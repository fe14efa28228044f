"""Geodesic integration and transported-potential growth control.

Geodesics are integrated in unit speed; the optional transport carries a scalar
along the curve by the second-order equation u'' = Ric(c', c') u, which is the
restriction of the static system to the curve. To carry a potential f, start
``integrate_geodesic(..., transport=True)`` from ``launch_state(metric, point,
direction, f)``, whose ``f_value`` and ``f_slope`` hold f and its derivative
along the normalized launch velocity. The growth
side packages the comparison envelope w(t) = A t^alpha built from a curvature
smallness constant and sup data on the launch sphere.

Every ODE here, and the gradient flow of ``global_checks``, is solved by
``solve_ivp``: the lane-wise numpy port of scipy's DOP853 in ``ode``, which
takes scipy's steps bit for bit. A geodesic is a batch of one lane
(``one_lane``); ``solve_curve_ode`` solves a whole batch of transport equations
in one call. The tolerances are pinned below: 1e-10/1e-12 for geodesics,
1e-12/1e-14 for the transport equations.

A geodesic's stages cannot batch, so its right-hand side reads only the two
contracted terms it needs, Gamma^k(c', c') and Ric(c', c'), from one jet
evaluation of the metric at the stage's point, in Python floats. It matches
``curvature_at`` to roundoff; the samples of a trajectory still take one
batched ``curvature_at`` pass. The gradient flow's stages are read the same
way, at a single point in Python floats (``global_checks._flow_terms``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainExitError, PreconditionError, StepFailureError
from .geometry import MetricField, Point3, _geodesic_terms, curvature_at
from .potentials import PotentialField
from .zeroset import _quad

_GEODESIC_RTOL, _GEODESIC_ATOL = 1e-10, 1e-12
_CURVE_RTOL, _CURVE_ATOL = 1e-12, 1e-14


def solve_ivp(*args, **kwargs):
    """``ode.solve_ivp``, imported at the first integration: compiling the port
    is ~15 ms of a fresh start, and most suites integrate nothing. A module
    attribute, so that perfbench's tracer can rebind it to count right-hand-side
    evaluations."""
    from .ode import solve_ivp
    return solve_ivp(*args, **kwargs)


def one_lane(fn):
    """The lane-wise form of a one-system ``fn(t, y)`` for ``solve_ivp``, on a
    batch of one lane; its (n,) or scalar value broadcasts over the lane."""
    return lambda t, y, lanes: fn(t[0], y[0])


@dataclass(frozen=True)
class GeodesicState:
    t: float
    position: np.ndarray
    velocity: np.ndarray
    f_value: float = 0.0
    f_slope: float = 0.0
    h_value: float = 0.0   # Ric(c', c') at the sample


@dataclass(frozen=True)
class GeodesicTrajectory:
    states: list
    max_speed_drift: float

    @property
    def positions(self) -> np.ndarray:
        return np.array([s.position for s in self.states])

    @property
    def f_values(self) -> np.ndarray:
        return np.array([s.f_value for s in self.states])

    @property
    def h_values(self) -> np.ndarray:
        return np.array([s.h_value for s in self.states])


def launch_state(metric: MetricField, point, direction,
                 f: PotentialField | None = None) -> GeodesicState:
    """Initial state with the direction normalized to unit metric length.

    A non-finite coordinate of ``point`` or ``direction``, or a zero direction,
    raises ValueError. Any other direction is normalized, however large or
    small its norm.
    Given a potential ``f``, the state carries its value and its slope along
    the normalized velocity, the initial data that transport starts from.
    """
    p = Point3.of(point)
    v = np.asarray(direction, dtype=float)
    if not (np.isfinite(p.as_array()).all() and np.isfinite(v).all()):
        raise ValueError("point and direction must be finite")
    g = metric.matrix(p)
    # a power-of-two scale keeps v g v in range and leaves the quotient's bits
    v = np.ldexp(v, -math.frexp(float(np.max(np.abs(v))))[1])
    speed = math.sqrt(v @ g @ v)
    if speed <= 0:
        raise ValueError("direction must be nonzero")
    velocity = v / speed
    if f is None:
        return GeodesicState(t=0.0, position=p.as_array(), velocity=velocity)
    return GeodesicState(t=0.0, position=p.as_array(), velocity=velocity, f_value=f.value(p),
                         f_slope=float(f.gradient(p) @ velocity))


def _rhs(metric: MetricField, with_transport: bool) -> Callable:
    def rhs(t, y):
        x0, x1, x2, v0, v1, v2 = y[:6].tolist()
        (a0, a1, a2), h = _geodesic_terms(metric, (x0, x1, x2), (v0, v1, v2), with_transport)
        if not with_transport:
            return np.array([v0, v1, v2, -a0, -a1, -a2])
        return np.array([v0, v1, v2, -a0, -a1, -a2, y[7], h * y[6]])

    return rhs


def integrate_geodesic(metric: MetricField, start: GeodesicState, t_end: float,
                       n_samples: int = 200, transport: bool = False) -> GeodesicTrajectory:
    """Integrate the geodesic equation, optionally transporting a scalar along.

    Integration runs forward only, from ``start.t`` to ``start.t + t_end``.
    Raises DomainExitError when the curve reaches the chart boundary and
    StepFailureError when the integrator gives up or the unit-speed drift
    exceeds 1e-6; ``t_end <= 0`` or ``n_samples`` below 1 raises ValueError.
    Each integrator stage evaluates the metric's jets once, at one point, and
    contracts Gamma^k(v, v) and, with transport, Ric(v, v) from them without
    building a curvature bundle (``geometry._geodesic_terms``, with
    ``curvature_at`` as its oracle). The accepted samples are evaluated in one
    batched pass: one ``curvature_at`` with transport, one ``metric.matrix``
    without.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    y0 = np.concatenate([start.position, start.velocity]
                        + ([[start.f_value, start.f_slope]] if transport else []))

    def boundary(t, y):
        return metric.boundary_margin(Point3(y[0], y[1], y[2]))

    sol = solve_ivp(one_lane(_rhs(metric, transport)), (start.t, start.t + t_end), y0[None],
                    rtol=_GEODESIC_RTOL, atol=_GEODESIC_ATOL,
                    t_eval=np.linspace(start.t, start.t + t_end, n_samples + 1),
                    events=[(one_lane(boundary), -1)]).lanes[0]
    if sol.status == -1:
        raise StepFailureError(f"geodesic integration failed: {sol.message}")
    if sol.status == 1 and len(sol.t_events[0]) > 0:
        t_exit = float(sol.t_events[0][0])
        x_exit = sol.y_events[0][0][0:3]
        raise DomainExitError(
            f"geodesic left the chart of {metric.label} at t={t_exit:.6g}, "
            f"position {tuple(float(c) for c in x_exit)}")

    xs, vs = sol.y[0:3].T.copy(), sol.y[3:6].T.copy()
    p = Point3(xs[:, 0], xs[:, 1], xs[:, 2])
    if transport:
        bundle = curvature_at(metric, p)
        g, hs = bundle.metric_matrix, _quad(vs, bundle.ricci, vs)
        fvs, fps = sol.y[6], sol.y[7]
    else:
        g, hs = metric.matrix(p), np.zeros(len(sol.t))
        fvs = fps = hs
    drift = float(np.max(np.abs(_quad(vs, g, vs) - 1.0)))
    states = [GeodesicState(t=t, position=x, velocity=v, f_value=fv, f_slope=fp, h_value=h)
              for t, x, v, fv, fp, h in zip(sol.t.tolist(), xs, vs, fvs.tolist(),
                                            fps.tolist(), hs.tolist())]
    if drift > 1e-6:
        raise StepFailureError(f"unit-speed drift {drift:.3e} exceeds 1e-6")
    return GeodesicTrajectory(states=states, max_speed_drift=drift)


def solve_curve_ode(h_fn: Callable, f0, f0_slope, t0: float, t1: float,
                    t_eval=None) -> CurveBatch:
    """Solve u'' = h(t) u on a batch of curves; one (ts, us, slopes) per curve.

    ``f0`` and ``f0_slope`` hold the initial data, one entry per curve (a
    scalar is a batch of one). ``h_fn(t, lanes)`` returns the coefficients at
    times ``t`` of the curves ``lanes`` (indices into ``f0``), as
    ``zeroset.brentq`` takes its objective. All curves run in one lane-wise
    solve, forward only, and each takes the steps it would take alone.

    A curve whose solution grows too large to step on fails with
    StepFailureError naming the t where it stopped, not with inf or nan: the
    overflowing steps are rejected until the step size falls below the
    spacing of t. The error is raised when that curve is read from the
    returned batch, so the other curves stay readable. A bad span (t1 <= t0
    among them) or start raises ValueError at the call.
    """
    f0, f0_slope = np.broadcast_arrays(np.asarray(f0, dtype=float),
                                       np.asarray(f0_slope, dtype=float))

    def rhs(t, y, lanes):
        dy = np.empty_like(y)
        dy[:, 0] = y[:, 1]
        dy[:, 1] = h_fn(t, lanes) * y[:, 0]
        return dy

    with np.errstate(over="ignore", invalid="ignore"):   # overflow fails the curve on reading
        sol = solve_ivp(rhs, (t0, t1), np.stack([f0.ravel(), f0_slope.ravel()], axis=1),
                        rtol=_CURVE_RTOL, atol=_CURVE_ATOL, t_eval=t_eval)
    return CurveBatch(sol.lanes)


class CurveBatch(Sequence):
    """``solve_curve_ode``'s curves: item k is curve k's (ts, us, slopes).

    Reading a curve that failed raises its StepFailureError.
    """

    def __init__(self, lanes):
        self._lanes = lanes

    def __len__(self):
        return len(self._lanes)

    def __getitem__(self, k):
        lane = self._lanes[k]
        if not lane.success or not np.isfinite(lane.y).all():
            reason = "the solution overflowed" if lane.success else lane.message
            raise StepFailureError(f"transport equation failed at t = {lane.t_stop:g}: {reason}")
        return lane.t, lane.y[0], lane.y[1]


### Growth envelope


@dataclass(frozen=True)
class GrowthBound:
    """Envelope w(t) = A t^alpha for curves with |Ric(c',c')| <= eps/t^2."""

    epsilon: float
    r0: float
    amplitude: float
    alpha: float

    def w(self, t):
        return self.amplitude * np.asarray(t, dtype=float) ** self.alpha

    def w_slope(self, t):
        return self.amplitude * self.alpha * np.asarray(t, dtype=float) ** (self.alpha - 1.0)

    @classmethod
    def from_initial_data(cls, epsilon: float, sup_data: float, r0: float) -> "GrowthBound":
        """Smallest amplitude with w(r0), w'(r0) above the sup data, padded by 1e-6."""
        if epsilon < 0 or r0 <= 0 or sup_data <= 0:
            raise ValueError("need epsilon >= 0, r0 > 0 and positive sup data")
        alpha = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * epsilon))
        amplitude = max(sup_data / r0 ** alpha,
                        sup_data / (alpha * r0 ** (alpha - 1.0))) * (1.0 + 1e-6)
        return cls(epsilon=epsilon, r0=r0, amplitude=amplitude, alpha=alpha)


@dataclass(frozen=True)
class GrowthVerdict:
    ok: bool
    n_checked: int
    violations: int
    min_margin: float


def growth_bound_check(ts, fs, bound: GrowthBound, slope_at_start: float | None = None,
                       h_values=None) -> GrowthVerdict:
    """Compare sampled transport data against the growth envelope.

    Hypotheses are enforced up front: samples start at r0, the initial value
    and slope sit inside the envelope, and any supplied curvature samples obey
    |h| <= eps / t^2. The verdict counts violations of
    |f(t) - f(r0)| < w(t) - w(r0).
    """
    ts = np.asarray(ts, dtype=float)
    fs = np.asarray(fs, dtype=float)
    if ts.ndim != 1 or ts.shape != fs.shape or len(ts) < 2:
        raise ValueError("need matching 1-d sample arrays with at least two entries")
    if np.any(np.diff(ts) <= 0):
        raise PreconditionError("sample times must be strictly increasing")
    if abs(ts[0] - bound.r0) > 1e-9 * max(1.0, bound.r0):
        raise PreconditionError(f"samples must start at r0={bound.r0:g}, got {ts[0]:g}")
    if abs(fs[0]) > bound.w(bound.r0):
        raise PreconditionError("initial value lies outside the envelope")
    if slope_at_start is not None and abs(slope_at_start) > bound.w_slope(bound.r0):
        raise PreconditionError("initial slope lies outside the envelope")
    if h_values is not None:
        h_values = np.asarray(h_values, dtype=float)
        cap = bound.epsilon / ts ** 2
        bad = np.abs(h_values) > cap * (1.0 + 1e-9) + 1e-300
        if np.any(bad):
            k = int(np.argmax(bad))
            raise PreconditionError(
                f"curvature sample |h({ts[k]:g})| = {abs(h_values[k]):.3e} "
                f"exceeds eps/t^2 = {cap[k]:.3e}")

    margins = (bound.w(ts) - bound.w(bound.r0)) - np.abs(fs - fs[0])
    grace = 1e-12 * (1.0 + np.abs(bound.w(ts)))
    violations = int(np.sum(margins < -grace))
    return GrowthVerdict(ok=violations == 0, n_checked=len(ts),
                         violations=violations, min_margin=float(margins.min()))
