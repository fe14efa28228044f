"""Geodesic integration and transported-potential growth control.

Geodesics are integrated in unit speed; the optional transport carries a scalar
along the curve by the second-order equation u'' = Ric(c', c') u, which is the
restriction of the static system to the curve. The growth side packages the
comparison envelope w(t) = A t^alpha built from a curvature smallness constant
and sup data on the launch sphere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainExitError, PreconditionError, StepFailureError
from .geometry import MetricField, Point3, christoffel_at, curvature_at


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
    exceeds 1e-6.
    """
    y0 = np.concatenate([start.position, start.velocity]
                        + ([[start.f_value, start.f_slope]] if transport else []))

    def boundary(t, y):
        return metric.boundary_margin(Point3(y[0], y[1], y[2]))

    boundary.terminal = True
    boundary.direction = -1

    sol = solve_ivp(_rhs(metric, transport), (start.t, start.t + t_end), y0,
                    method="DOP853", rtol=rtol, atol=atol,
                    t_eval=np.linspace(start.t, start.t + t_end, n_samples + 1),
                    events=[boundary], dense_output=False)
    if sol.status == -1:
        raise StepFailureError(f"geodesic integration failed: {sol.message}")
    if sol.status == 1 and len(sol.t_events[0]) > 0:
        t_exit = float(sol.t_events[0][0])
        x_exit = sol.y_events[0][0][0:3]
        raise DomainExitError(
            f"geodesic left the chart of {metric.label} at t={t_exit:.6g}, "
            f"position {tuple(float(c) for c in x_exit)}")

    states = []
    drift = 0.0
    for k, t in enumerate(sol.t):
        x = sol.y[0:3, k]
        v = sol.y[3:6, k]
        p = Point3(x[0], x[1], x[2])
        if transport:
            bundle = curvature_at(metric, p)
            g, h = bundle.metric_matrix, float(v @ bundle.ricci @ v)
        else:
            g, h = metric.matrix(p), 0.0
        drift = max(drift, abs(float(v @ g @ v) - 1.0))
        fv, fp = (float(sol.y[6, k]), float(sol.y[7, k])) if transport else (0.0, 0.0)
        states.append(GeodesicState(t=float(t), position=x.copy(), velocity=v.copy(),
                                    f_value=fv, f_slope=fp, h_value=h))
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


def solve_curve_ode(h_fn: Callable, f0: float, f0_slope: float, t0: float, t1: float,
                    t_eval=None, rtol: float = 1e-12, atol: float = 1e-14):
    """Solve u'' = h(t) u with given initial data; returns (ts, us, slopes)."""
    if t1 == t0:
        raise ValueError(f"empty integration span: t1 = t0 = {t0:g}")

    def rhs(t, y):
        return [y[1], h_fn(t) * y[0]]

    sol = solve_ivp(rhs, (t0, t1), [f0, f0_slope], method="DOP853",
                    rtol=rtol, atol=atol, t_eval=t_eval)
    if not sol.success:
        raise StepFailureError(f"transport equation failed: {sol.message}")
    return sol.t, sol.y[0], sol.y[1]


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
