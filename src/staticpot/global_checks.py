"""Global and asymptotic verifications tying the pointwise machinery together.

Everything here works on one chart: mass read off sphere averages, the decay
model for the Ricci tensor of conformally flat ends, the anisotropy sequence
along a zero-set graph, divergence-identity bookkeeping between bulk and flux
integrals, scalar flatness of the conformal double, and classification of
gradient flow lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import (DegenerateConformalError, IllConditionedFitError, ResolutionError,
                     StepFailureError, UnboundedPotentialError)
from .geodesics import one_lane, solve_ivp
from .geometry import MetricField, Point3, _first_flagged, curvature_at, generic_metric
from .potentials import PotentialField, _norm_g, _pair, fit_linear_part, require_static
from .quadrature import SphereRule, flux_integral, sphere_average, sphere_rule, volume_integral
from .zeroset import AnnulusRegion, SurfaceGraph, _quad, extract_closed_component

ESCAPE_TO_END = "escape_to_end"
EXIT_BOUNDARY = "exit_boundary"
CONVERGE_CRITICAL = "converge_critical"
UNRESOLVED = "unresolved"


### Mass from sphere averages


@dataclass(frozen=True)
class MassFit:
    limit: float
    inverse_coefficient: float
    quadratic_coefficient: float
    mass: float
    window: tuple
    radii: np.ndarray
    averages: np.ndarray
    residual_rms: float
    condition: float

    def model(self, r: float) -> float:
        return self.limit + self.inverse_coefficient / r + self.quadratic_coefficient / r ** 2


def fit_mass_expansion(f: PotentialField, metric: MetricField, window=(50.0, 400.0),
                       n_spheres: int = 8, rule: SphereRule | None = None,
                       linear_gate: float = 1e-2) -> MassFit:
    """Fit sphere averages of a bounded potential to a + A/r + B/r^2.

    The mass is -A/a (so a potential with limit 1 reports -A directly). A
    nonzero linear part trips UnboundedPotentialError, a degenerate fit
    IllConditionedFitError.
    """
    if rule is None:
        rule = sphere_rule()
    lo, hi = float(window[0]), float(window[1])
    radii = np.geomspace(lo, hi, n_spheres)

    lp = fit_linear_part(f, metric, radii[:: max(1, n_spheres // 4)], rule=rule)
    if np.linalg.norm(lp.coefficients) > linear_gate:
        raise UnboundedPotentialError(
            f"{f.label}: linear part {lp.coefficients} exceeds gate {linear_gate:g}; "
            "mass expansion needs a bounded potential")

    avgs = np.array([sphere_average(f.value, r, rule) for r in radii])
    design = np.column_stack([np.ones_like(radii), 1.0 / radii, 1.0 / radii ** 2])
    cond = float(np.linalg.cond(design))
    if cond > 1e10:
        raise IllConditionedFitError(f"fit window {window} gives condition number {cond:.3e}")
    coef, _, _, _ = np.linalg.lstsq(design, avgs, rcond=None)
    resid = avgs - design @ coef
    a, A = float(coef[0]), float(coef[1])
    if abs(a) < 1e-8:
        raise IllConditionedFitError(
            f"{f.label}: potential limit {a:.3e} too small to normalize the mass")
    return MassFit(limit=a, inverse_coefficient=A, quadratic_coefficient=float(coef[2]),
                   mass=-A / a, window=(lo, hi), radii=radii, averages=avgs,
                   residual_rms=float(np.sqrt(np.mean(resid ** 2))), condition=cond)


### Decay model for conformally flat ends


@dataclass(frozen=True)
class DecayModelResidual:
    point: Point3
    computed: np.ndarray
    model: np.ndarray
    residual: float


def curvature_decay_residual(metric: MetricField, point) -> DecayModelResidual:
    """Deviation of Ricci from the leading conformal model at a point.

    The model is (m/|y|^3) phi^-2 (delta - 3 yhat yhat) with
    phi = 1 + m/(2|y|); for the unperturbed conformal slice it is exact, and
    for perturbed ends the deviation inherits the perturbation's decay. A
    batched Point3 takes one curvature pass; the fields then carry the batch
    shape in front.
    """
    p = Point3.of(point)
    m = metric.mass
    r = p.r

    def radial(q: float) -> float:  # in float arithmetic, node by node
        return (m / q ** 3) * (1.0 + m / (2.0 * q)) ** -2

    coef = np.reshape([radial(float(q)) for q in np.ravel(r)], np.shape(r) + (1, 1))
    yhat = np.stack(np.broadcast_arrays(*p.coords()), axis=-1) / np.asarray(r)[..., None]
    model = coef * (np.eye(3) - 3.0 * (yhat[..., :, None] * yhat[..., None, :]))
    ric = curvature_at(metric, p).ricci
    residual = np.sqrt(_pair(ric - model, ric - model))
    return DecayModelResidual(point=p, computed=ric, model=model,
                              residual=residual if np.ndim(residual) else float(residual))


### Anisotropy sequence along a zero-set graph


@dataclass(frozen=True)
class AnisotropyReport:
    heights: np.ndarray
    scaled_differences: np.ndarray
    extrapolated: float


def anisotropy_limit(metric: MetricField, graph: SurfaceGraph, heights) -> AnisotropyReport:
    """Scaled difference of Ricci in the two tangent directions, extrapolated.

    At base points (0, y) of the graph the two chart tangents are normalized
    and the difference Ric(t_u, t_u) - Ric(t_v, t_v), scaled by |y|^3, is
    extrapolated in 1/|y|. All heights take one chart solve, which gives the
    points and tangents, and one curvature pass.
    """
    region = graph.region
    heights = np.array(sorted(float(y) for y in heights))
    if isinstance(region, AnnulusRegion):
        if heights[0] <= region.inner or heights[-1] >= region.outer:
            raise ResolutionError(
                f"heights must lie inside the annulus ({region.inner:g}, {region.outer:g})")
    lift = graph.chart._lift(np.zeros_like(heights), heights)
    bundle = curvature_at(metric, lift.point)
    g, ric = bundle.metric_matrix, bundle.ricci
    tu = lift.tu / np.sqrt(_quad(lift.tu, g, lift.tu))[:, None]
    tv = lift.tv / np.sqrt(_quad(lift.tv, g, lift.tv))[:, None]
    vals = np.abs(heights) ** 3 * (_quad(tu, ric, tu) - _quad(tv, ric, tv))
    design = np.column_stack([np.ones_like(heights), 1.0 / heights, 1.0 / heights ** 2])
    coef, _, _, _ = np.linalg.lstsq(design, vals, rcond=None)
    return AnisotropyReport(heights=heights, scaled_differences=vals,
                            extrapolated=float(coef[0]))


### Divergence-identity bookkeeping


def _ricci_density(f: PotentialField, metric: MetricField, weight):
    """Volume integrand weight(f) |Ric|_g^2 on coordinate arrays.

    One batched curvature evaluation covers every node of a radial panel.
    """

    def density(x1, x2, x3) -> np.ndarray:
        p = Point3(x1, x2, x3)
        b = curvature_at(metric, p)
        ginv = np.linalg.inv(b.metric_matrix)
        ric_up = ginv @ b.ricci @ ginv
        return weight(f.value(p)) * (b.ricci * ric_up).sum(axis=(-2, -1))

    return density


@dataclass(frozen=True)
class IntegralReport:
    bulk: float
    flux_inner: float
    flux_outer: float

    @property
    def defect(self) -> float:
        return self.bulk - (self.flux_outer - self.flux_inner)

    @property
    def relative_defect(self) -> float:
        scale = max(abs(self.bulk), abs(self.flux_outer), abs(self.flux_inner), 1e-300)
        return abs(self.defect) / scale


def integral_identity_check(f: PotentialField, metric: MetricField, r_inner: float,
                            r_outer: float, rule: SphereRule | None = None,
                            n_panels: int = 16, nodes_per_panel: int = 8,
                            static_tol: float = 1e-6, max_nodes: int | None = None) -> IntegralReport:
    """Balance f |Ric|^2 over a shell against Ricci-contracted gradient flux.

    For a static potential the divergence theorem turns the bulk integral of
    f |Ric|^2 into the difference of Ric(grad f, nu) fluxes through the two
    boundary spheres; the report carries all three numbers.
    """
    if rule is None:
        rule = sphere_rule()
    for k in range(3):
        rr = r_inner * (r_outer / r_inner) ** ((k + 0.5) / 3.0)
        d = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0) if k % 2 else np.array([1.0, -0.5, 0.25]) / np.linalg.norm([1.0, -0.5, 0.25])
        require_static(f, metric, Point3.of(rr * d), tol=static_tol)

    def flux_vector(x1, x2, x3) -> np.ndarray:
        p = Point3(x1, x2, x3)
        b = curvature_at(metric, p)
        ginv = np.linalg.inv(b.metric_matrix)
        return (ginv @ b.ricci @ (ginv @ f.gradient(p)[..., None]))[..., 0]

    bulk = volume_integral(metric, _ricci_density(f, metric, lambda v: v), r_inner, r_outer,
                           rule, n_panels=n_panels, nodes_per_panel=nodes_per_panel,
                           max_nodes=max_nodes)
    flux_in = flux_integral(metric, flux_vector, r_inner, rule)
    flux_out = flux_integral(metric, flux_vector, r_outer, rule)
    return IntegralReport(bulk=bulk, flux_inner=flux_in, flux_outer=flux_out)


@dataclass(frozen=True)
class CapacityBalance:
    integral: float
    predicted: float
    euler_characteristic: int
    boundary_gradient: float       # measured |grad f| constant on the component
    boundary_gradient_spread: float
    relative_gap: float


def capacity_balance_instance(mass: float, f: PotentialField, metric: MetricField,
                              r_outer: float = 60.0, rule: SphereRule | None = None,
                              n_panels: int = 26, nodes_per_panel: int = 10,
                              n_theta: int = 12, n_phi: int = 24) -> CapacityBalance:
    """Full-space balance of |f| |Ric|^2 against zero-set topology data.

    The bulk integral runs over the inversion-symmetric truncation
    ((m/2)^2 / R, R); the prediction is 4 pi c (chi - 0) with c the measured
    gradient constant of the zero set and chi its Euler characteristic from
    the extracted mesh.
    """
    m = float(mass)
    if m <= 0:
        raise ValueError("the balance instance needs positive mass")
    if rule is None:
        rule = sphere_rule()
    r_inner = (0.5 * m) ** 2 / r_outer

    comp = extract_closed_component(f, metric, center=(0.0, 0.0, 0.0),
                                    s_bracket=(0.25 * m, 0.8 * m),
                                    n_theta=n_theta, n_phi=n_phi)
    c_val = float(comp.grad_norms.mean())
    spread = float((comp.grad_norms.max() - comp.grad_norms.min()) / c_val)

    bulk = volume_integral(metric, _ricci_density(f, metric, np.abs), r_inner, r_outer, rule,
                           n_panels=n_panels, nodes_per_panel=nodes_per_panel,
                           breakpoints=(0.5 * m,))
    predicted = 4.0 * math.pi * c_val * comp.euler_characteristic
    gap = abs(bulk - predicted) / max(abs(predicted), 1e-300)
    return CapacityBalance(integral=bulk, predicted=predicted,
                           euler_characteristic=comp.euler_characteristic,
                           boundary_gradient=c_val, boundary_gradient_spread=spread,
                           relative_gap=gap)


### Conformal doubling


def conformal_double_scalar(f: PotentialField, metric: MetricField, sign: int, point) -> float:
    """Scalar curvature of (1 +/- f)^4 g at a point.

    Raises DegenerateConformalError where the conformal factor is not safely
    positive, at the first such node of a batched Point3, whose nodes then
    take one curvature pass and give an array of scalars. Coordinates whose
    squares overflow raise OverflowError before f is evaluated.
    """
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    p = Point3.of(point)
    p.r  # an overflowing coordinate raises here, before f overflows with numpy warnings
    u0 = 1.0 + sign * f.value(p)
    low = u0 <= 1e-8
    if np.any(low):
        raise DegenerateConformalError(
            f"conformal factor 1{'+' if sign > 0 else '-'}f = "
            f"{float(np.ravel(u0)[np.flatnonzero(low)[0]]):.3e} at {_first_flagged(p, low)}")

    def comps(X1, X2, X3):
        u = 1.0 + sign * f.expr(X1, X2, X3)
        w = u * u
        w = w * w
        G = metric.components(X1, X2, X3)
        return [[G[i][j] * w for j in range(3)] for i in range(3)]

    doubled = generic_metric(comps, tau=metric.tau,
                             contains=metric.contains,
                             boundary_margin=metric.boundary_margin,
                             label=f"double[{metric.label}]", mass=metric.mass)
    return curvature_at(doubled, p).scalar


### Gradient flow classification


@dataclass(frozen=True)
class FlowBudget:
    t_max: float = 1e10
    r_escape: float = 1000.0
    grad_floor: float = 1e-7
    rtol: float = 1e-10
    atol: float = 1e-12
    max_samples: int = 400


@dataclass(frozen=True)
class FlowSample:
    t: float
    position: np.ndarray
    f_value: float
    grad_norm: float


@dataclass(frozen=True)
class FlowTrace:
    samples: list
    classification: str
    interval: tuple
    limit_estimate: float | None    # asymptotic value of f on escape, inf if unbounded
    monotone_violations: int


def flow_classify(f: PotentialField, metric: MetricField, point,
                  budget: FlowBudget = FlowBudget()) -> FlowTrace:
    """Integrate the gradient flow of f and classify its forward fate.

    Outcomes: escape_to_end (reached the escape radius; limit_estimate carries
    the extrapolated value of f, infinite when the 1/r model does not fit),
    exit_boundary, converge_critical (|grad f| fell below the floor), or
    unresolved at the time budget.
    """
    p0 = Point3.of(point)
    g0 = metric.matrix(p0)  # also validates the start point

    def rhs(t, y):
        p = Point3(y[0], y[1], y[2])
        g = np.array(metric.components(y[0], y[1], y[2]), dtype=float)
        return np.linalg.inv(g) @ f.gradient(p)

    def grad_norm_at(y) -> float:
        g = np.array(metric.components(y[0], y[1], y[2]), dtype=float)
        return _norm_g(g, f.gradient(Point3(y[0], y[1], y[2])))

    def ev_escape(t, y):
        return math.sqrt(y[0] ** 2 + y[1] ** 2 + y[2] ** 2) - budget.r_escape

    def ev_critical(t, y):
        return grad_norm_at(y) - budget.grad_floor

    def ev_boundary(t, y):
        return metric.boundary_margin(Point3(y[0], y[1], y[2]))

    sol = solve_ivp(one_lane(rhs), (0.0, budget.t_max), p0.as_array()[None],
                    rtol=budget.rtol, atol=budget.atol,
                    events=[(one_lane(ev_escape), 1), (one_lane(ev_critical), -1),
                            (one_lane(ev_boundary), -1)]).lanes[0]
    if sol.status == -1:
        raise StepFailureError(f"flow integration failed: {sol.message}")

    ts = sol.t
    ys = sol.y
    stride = max(1, len(ts) // budget.max_samples)
    idx = list(range(0, len(ts), stride))
    if idx[-1] != len(ts) - 1:
        idx.append(len(ts) - 1)
    samples = []
    for k in idx:
        y = ys[:, k]
        samples.append(FlowSample(t=float(ts[k]), position=y.copy(),
                                  f_value=f.value(Point3(y[0], y[1], y[2])),
                                  grad_norm=grad_norm_at(y)))

    fs = np.array([s.f_value for s in samples])
    drops = np.diff(fs) < -1e-12 * (1.0 + np.abs(fs[:-1]))
    violations = int(np.sum(drops))

    if sol.status == 1 and len(sol.t_events[0]) > 0:
        classification = ESCAPE_TO_END
        limit = _escape_limit(samples, budget.r_escape)
    elif sol.status == 1 and len(sol.t_events[1]) > 0:
        classification = CONVERGE_CRITICAL
        limit = None
    elif sol.status == 1 and len(sol.t_events[2]) > 0:
        classification = EXIT_BOUNDARY
        limit = None
    else:
        classification = UNRESOLVED
        limit = None
    return FlowTrace(samples=samples, classification=classification,
                     interval=(0.0, float(ts[-1])), limit_estimate=limit,
                     monotone_violations=violations)


def _escape_limit(samples, r_escape: float) -> float:
    """Two-point 1/r elimination of the potential limit along an escaping flow."""
    rs = np.array([float(np.linalg.norm(s.position)) for s in samples])
    fs = np.array([s.f_value for s in samples])
    k2 = len(rs) - 1
    target = 0.5 * rs[k2]
    k1 = int(np.argmin(np.abs(rs - target)))
    if k1 == k2:
        k1 = max(0, k2 - 1)
    r1, r2, f1, f2 = rs[k1], rs[k2], fs[k1], fs[k2]
    if r2 <= r1:
        return float(f2)
    b = (f2 * r2 - f1 * r1) / (r2 - r1)
    A = (f2 - f1) * r1 * r2 / (r2 - r1)
    if abs(A) > 0.05 * max(abs(b), 1e-300) * r1:
        return math.inf if f2 >= f1 else -math.inf
    return float(b)
