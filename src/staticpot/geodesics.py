"""Geodesic integration and transported-potential growth control.

Geodesics are integrated in unit speed; the optional transport carries a scalar
along the curve by the second-order equation u'' = Ric(c', c') u, which is the
restriction of the static system to the curve. The growth side packages the
comparison envelope w(t) = A t^alpha built from a curvature smallness constant
and sup data on the launch sphere.

Every ODE here, and the gradient flow of ``global_checks``, is solved by
``solve_ivp``: the lane-wise numpy port of scipy's DOP853 in ``ode``, which
takes scipy's steps bit for bit. A geodesic is a batch of one lane
(``one_lane``); ``solve_curve_ode`` solves a whole batch of transport equations
in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainExitError, PreconditionError, StepFailureError
from .geometry import MetricField, Point3, christoffel_at, curvature_at
from .zeroset import _quad


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
    def ts(self) -> np.ndarray:
        return np.array([s.t for s in self.states])

    @property
    def positions(self) -> np.ndarray:
        return np.array([s.position for s in self.states])

    @property
    def f_values(self) -> np.ndarray:
        return np.array([s.f_value for s in self.states])

    @property
    def h_values(self) -> np.ndarray:
        return np.array([s.h_value for s in self.states])


def launch_state(metric: MetricField, point, direction, f_value: float = 0.0,
                 f_slope: float = 0.0) -> GeodesicState:
    """Initial state with the direction normalized to unit metric length."""
    p = Point3.of(point)
    g = metric.matrix(p)
    v = np.asarray(direction, dtype=float)
    speed = math.sqrt(v @ g @ v)
    if speed <= 0:
        raise ValueError("direction must be nonzero")
    return GeodesicState(t=0.0, position=p.as_array(), velocity=v / speed,
                         f_value=f_value, f_slope=f_slope)


def _rhs(metric: MetricField, with_transport: bool) -> Callable:
    def rhs(t, y):
        x, v = y[0:3], y[3:6]
        p = Point3(x[0], x[1], x[2])
        if not with_transport:
            gamma = christoffel_at(metric, p, check_domain=False)
            return np.concatenate([v, -np.einsum("kij,i,j->k", gamma, v, v)])
        bundle = curvature_at(metric, p, check_domain=False)  # Gamma and Ric from one pass
        h = float(v @ bundle.ricci @ v)
        return np.concatenate([v, -np.einsum("kij,i,j->k", bundle.gamma, v, v), [y[7], h * y[6]]])

    return rhs


def integrate_geodesic(metric: MetricField, start: GeodesicState, t_end: float,
                       rtol: float = 1e-10, atol: float = 1e-12, n_samples: int = 200,
                       transport: bool = False) -> GeodesicTrajectory:
    """Integrate the geodesic equation, optionally transporting a scalar along.

    Raises DomainExitError when the curve reaches the chart boundary and
    StepFailureError when the integrator gives up or the unit-speed drift
    exceeds 1e-6. The samples are evaluated in one batched pass: one
    ``curvature_at`` with transport, one ``metric.matrix`` without.
    """
    y0 = np.concatenate([start.position, start.velocity]
                        + ([[start.f_value, start.f_slope]] if transport else []))

    def boundary(t, y):
        return metric.boundary_margin(Point3(y[0], y[1], y[2]))

    sol = solve_ivp(one_lane(_rhs(metric, transport)), (start.t, start.t + t_end), y0[None],
                    rtol=rtol, atol=atol,
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


def integrate_geodesic_rk4(metric: MetricField, start: GeodesicState, t_end: float,
                           n_steps: int) -> GeodesicTrajectory:
    """Fixed-step fourth-order integrator, kept for self-convergence checks."""
    rhs = _rhs(metric, False)
    h = t_end / n_steps
    y = np.concatenate([start.position, start.velocity])
    t = start.t
    states = [GeodesicState(t=t, position=y[0:3].copy(), velocity=y[3:6].copy())]
    drift = 0.0
    for _ in range(n_steps):
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        t += h
        p = Point3(y[0], y[1], y[2])
        if not metric.contains(p):
            raise DomainExitError(f"fixed-step geodesic left the chart at t={t:.6g}")
        g = metric.matrix(p)
        drift = max(drift, abs(float(y[3:6] @ g @ y[3:6]) - 1.0))
        states.append(GeodesicState(t=t, position=y[0:3].copy(), velocity=y[3:6].copy()))
    return GeodesicTrajectory(states=states, max_speed_drift=drift)


def transport_potential(metric: MetricField, f0: float, f0_slope: float,
                        trajectory: GeodesicTrajectory, rtol: float = 1e-10,
                        atol: float = 1e-12) -> GeodesicTrajectory:
    """Carry a scalar along an already-integrated geodesic.

    Re-integrates the joint system from the trajectory's initial position and
    velocity with the given transport data, sampling at the trajectory's own
    times.
    """
    first = trajectory.states[0]
    start = GeodesicState(t=first.t, position=first.position, velocity=first.velocity,
                          f_value=f0, f_slope=f0_slope)
    span = trajectory.states[-1].t - first.t
    return integrate_geodesic(metric, start, span, rtol=rtol, atol=atol,
                              n_samples=len(trajectory.states) - 1, transport=True)


def solve_curve_ode(h_fn: Callable, f0, f0_slope, t0: float, t1: float,
                    t_eval=None, rtol: float = 1e-12, atol: float = 1e-14) -> list:
    """Solve u'' = h(t) u on a batch of curves; one (ts, us, slopes) per curve.

    ``f0`` and ``f0_slope`` hold the initial data, one entry per curve (a
    scalar is a batch of one). ``h_fn(t, lanes)`` returns the coefficients at
    times ``t`` of the curves ``lanes`` (indices into ``f0``), as
    ``zeroset.brentq`` takes its objective. All curves run in one lane-wise
    solve.

    A curve whose solution grows too large to step on fails with
    StepFailureError naming the t where it stopped, not with inf or nan: the
    overflowing steps are rejected until the step size falls below the
    spacing of t. A failing batch raises the error of its lowest-index
    failing curve.
    """
    f0, f0_slope = np.broadcast_arrays(np.asarray(f0, dtype=float),
                                       np.asarray(f0_slope, dtype=float))

    def rhs(t, y, lanes):
        return np.column_stack((y[:, 1], h_fn(t, lanes) * y[:, 0]))

    with np.errstate(over="ignore", invalid="ignore"):   # overflow fails the curve below
        sol = solve_ivp(rhs, (t0, t1), np.stack([f0.ravel(), f0_slope.ravel()], axis=1),
                        rtol=rtol, atol=atol, t_eval=t_eval)
    for lane in sol.lanes:
        if not lane.success or not np.isfinite(lane.y).all():
            reason = "the solution overflowed" if lane.success else lane.message
            raise StepFailureError(f"transport equation failed at t = {lane.t_stop:g}: {reason}")
    return [(lane.t, lane.y[0], lane.y[1]) for lane in sol.lanes]


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
    def from_initial_data(cls, epsilon: float, sup_data: float, r0: float,
                          pad: float = 1e-6) -> "GrowthBound":
        """Smallest padded amplitude with w(r0) and w'(r0) above the sup data."""
        if epsilon < 0 or r0 <= 0 or sup_data <= 0:
            raise ValueError("need epsilon >= 0, r0 > 0 and positive sup data")
        alpha = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * epsilon))
        amplitude = max(sup_data / r0 ** alpha,
                        sup_data / (alpha * r0 ** (alpha - 1.0))) * (1.0 + pad)
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
