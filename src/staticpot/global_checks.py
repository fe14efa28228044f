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

from . import jets
from .errors import (DegenerateConformalError, IllConditionedFitError, ResolutionError,
                     StepFailureError, UnboundedPotentialError)
from .geodesics import one_lane, solve_ivp
from .geometry import (MetricField, Point3, _bundle_nodes, _first_flagged, _metric_taylor,
                       curvature_at, generic_metric)
from .potentials import (PotentialField, _gate, _norm_g, _norm_ginv, _pair, _static_from,
                         fit_linear_part)
from .quadrature import (SphereRule, _flux_from, inverse_power_fit, sphere_average,
                         sphere_rule, volume_integral)
from .zeroset import SurfaceGraph, _quad, extract_closed_component

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


_LINEAR_GATE = 1e-2  # largest linear part a bounded potential may show


def fit_mass_expansion(f: PotentialField, metric: MetricField, window=(50.0, 400.0),
                       n_spheres: int = 8, rule: SphereRule | None = None) -> MassFit:
    """Fit sphere averages of a bounded potential to a + A/r + B/r^2.

    The mass is -A/a (so a potential with limit 1 reports -A directly). A
    window outside 0 < lo < hi raises ValueError, a linear part above 1e-2
    UnboundedPotentialError, a degenerate fit IllConditionedFitError.
    """
    if rule is None:
        rule = sphere_rule()
    lo, hi = float(window[0]), float(window[1])
    if not 0.0 < lo < hi:
        raise ValueError(f"fit window needs 0 < lo < hi, got {window}")
    radii = np.geomspace(lo, hi, n_spheres)

    lp = fit_linear_part(f, metric, radii[:: max(1, n_spheres // 4)], rule=rule)
    if np.linalg.norm(lp.coefficients) > _LINEAR_GATE:
        raise UnboundedPotentialError(
            f"{f.label}: linear part {lp.coefficients} exceeds gate {_LINEAR_GATE:g}; "
            "mass expansion needs a bounded potential")

    avgs = np.array([sphere_average(f.value, r, rule) for r in radii])
    coef, resid, cond = inverse_power_fit(radii, avgs)
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


def curvature_decay_residual(metric: MetricField, mass: float, point) -> DecayModelResidual:
    """Deviation of Ricci from the leading conformal model of mass ``mass`` at a point.

    The model is (m/|y|^3) phi^-2 (delta - 3 yhat yhat) with
    phi = 1 + m/(2|y|); for the unperturbed conformal slice of mass m it is
    exact, and for perturbed ends the deviation inherits the perturbation's
    decay. A batched Point3 takes one curvature pass; the fields then carry
    the batch shape in front.
    """
    p = Point3.of(point)
    m = float(mass)
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
    extrapolated in 1/|y| by ``inverse_power_fit``. All heights take one chart
    solve, which gives the points and tangents, and one curvature pass.
    """
    region = graph.region
    heights = np.array(sorted(float(y) for y in heights))
    if heights[0] <= region.inner or heights[-1] >= region.outer:
        raise ResolutionError(
            f"heights must lie inside the annulus ({region.inner:g}, {region.outer:g})")
    lift = graph.chart.lift(np.zeros_like(heights), heights)
    bundle = curvature_at(metric, lift.point)
    g, ric = bundle.metric_matrix, bundle.ricci
    tu = lift.tu / np.sqrt(_quad(lift.tu, g, lift.tu))[:, None]
    tv = lift.tv / np.sqrt(_quad(lift.tv, g, lift.tv))[:, None]
    vals = np.abs(heights) ** 3 * (_quad(tu, ric, tu) - _quad(tv, ric, tv))
    return AnisotropyReport(heights=heights, scaled_differences=vals,
                            extrapolated=float(inverse_power_fit(heights, vals)[0][0]))


### Divergence-identity bookkeeping


def _ricci_density(f: PotentialField, weight):
    """Volume integrand weight(f) |Ric|_g^2 on the curvature bundle of a radial panel."""

    def density(b) -> np.ndarray:
        ginv = np.linalg.inv(b.metric_matrix)
        ric_up = ginv @ b.ricci @ ginv
        return weight(f.value(b.point)) * (b.ricci * ric_up).sum(axis=(-2, -1))

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
                            n_panels: int = 16, nodes_per_panel: int = 8) -> IntegralReport:
    """Balance f |Ric|^2 over a shell against Ricci-contracted gradient flux.

    For a static potential the divergence theorem turns the bulk integral of
    f |Ric|^2 into the difference of Ric(grad f, nu) fluxes through the two
    boundary spheres; the report carries all three numbers. The static gate, at
    tolerance 1e-6, probes three points of the shell. Those three points and
    the nodes of both boundary spheres take one curvature pass; the gate reads
    its slice of it first, and each flux is ``flux_integral``'s reduction of
    its sphere's slice. The bulk then takes ``volume_integral``'s passes.
    """
    if rule is None:
        rule = sphere_rule()
    diagonal = np.array([1.0, 1.0, 1.0]) / math.sqrt(3.0)
    skew = np.array([1.0, -0.5, 0.25]) / np.linalg.norm([1.0, -0.5, 0.25])
    probes = [r_inner * (r_outer / r_inner) ** ((k + 0.5) / 3.0) * (diagonal if k % 2 else skew)
              for k in range(3)]
    x = np.concatenate([probes, r_inner * rule.directions, r_outer * rule.directions])
    bundle = curvature_at(metric, Point3(x[:, 0], x[:, 1], x[:, 2]))
    gate = _bundle_nodes(bundle, slice(0, 3))
    _gate(_static_from(f, gate.point, gate), f, metric, 1e-6)

    def flux_vector(b) -> np.ndarray:
        ginv = np.linalg.inv(b.metric_matrix)
        return (ginv @ b.ricci @ (ginv @ f.gradient(b.point)[..., None]))[..., 0]

    n = rule.count
    flux_in = _flux_from(_bundle_nodes(bundle, slice(3, 3 + n)), flux_vector, r_inner, rule)
    flux_out = _flux_from(_bundle_nodes(bundle, slice(3 + n, None)), flux_vector, r_outer, rule)
    del bundle, gate  # held through the bulk's passes, the pass would add to their peak memory
    bulk = volume_integral(metric, _ricci_density(f, lambda v: v), r_inner, r_outer,
                           rule, n_panels=n_panels, nodes_per_panel=nodes_per_panel)
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
    gradient constant of the zero set and chi = 2 its Euler characteristic.
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

    bulk = volume_integral(metric, _ricci_density(f, np.abs), r_inner, r_outer, rule,
                           n_panels=n_panels, nodes_per_panel=nodes_per_panel,
                           breakpoints=(0.5 * m,))
    # the component is meshed by one ray per direction, so it is a sphere
    chi = 2
    predicted = 4.0 * math.pi * c_val * chi
    gap = abs(bulk - predicted) / max(abs(predicted), 1e-300)
    return CapacityBalance(integral=bulk, predicted=predicted, euler_characteristic=chi,
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

    doubled = generic_metric(comps, boundary_margin=metric.boundary_margin,
                             label=f"double[{metric.label}]")
    return curvature_at(doubled, p).scalar


### Gradient flow classification


_FLOW_GRAD_FLOOR = 1e-7  # |grad f|_g below which a flow line counts as critical
_FLOW_RTOL, _FLOW_ATOL = 1e-10, 1e-12
_FLOW_MAX_SAMPLES = 400  # trace samples kept, evenly strided over the solver steps


@dataclass(frozen=True)
class FlowBudget:
    t_max: float = 1e10
    r_escape: float = 1000.0


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
    exit_boundary, converge_critical (|grad f|_g fell below 1e-7), or
    unresolved at the time budget. An escape radius not beyond the start
    point's chart radius raises ValueError: the flow could never cross it.
    Each solver stage reads g and the gradient of f at its one point from one
    component pass and one depth-1 jet of f (``_flow_terms``), with no domain
    check; the critical-point event at each accepted step's end reuses the
    read of the step's last stage. The trace keeps every k-th solver step,
    k = max(1, steps // 400), and the last, and evaluates f and |grad f|_g on
    all of them in one batched pass.
    """
    p0 = Point3.of(point)
    metric.matrix(p0)  # validates the start point
    if not budget.r_escape > p0.r:
        raise ValueError(f"r_escape {budget.r_escape!r} must exceed the start point's "
                         f"chart radius {p0.r!r}")
    rhs = _flow_rhs(metric, f)

    def ev_escape(t, y):
        return math.sqrt(y[0] ** 2 + y[1] ** 2 + y[2] ** 2) - budget.r_escape

    def ev_critical(t, y):   # at a step's end, the inv(g) and grad its last stage read
        return _norm_ginv(*rhs.read(y)) - _FLOW_GRAD_FLOOR

    def ev_boundary(t, y):
        return metric.boundary_margin(Point3(y[0], y[1], y[2]))

    sol = solve_ivp(one_lane(rhs), (0.0, budget.t_max), p0.as_array()[None],
                    rtol=_FLOW_RTOL, atol=_FLOW_ATOL,
                    events=[(one_lane(ev_escape), 1), (one_lane(ev_critical), -1),
                            (one_lane(ev_boundary), -1)]).lanes[0]
    if sol.status == -1:
        raise StepFailureError(f"flow integration failed: {sol.message}")

    ts = sol.t
    ys = sol.y
    stride = max(1, len(ts) // _FLOW_MAX_SAMPLES)
    idx = list(range(0, len(ts), stride))
    if idx[-1] != len(ts) - 1:
        idx.append(len(ts) - 1)
    states = ys[:, idx]
    p = Point3(*states)
    fvals = f.value(p)
    norms = _norm_g(_metric_taylor(metric, p.coords(), 0)[0], f.gradient(p))
    samples = [FlowSample(t=float(ts[k]), position=states[:, n].copy(),
                          f_value=float(fvals[n]), grad_norm=float(norms[n]))
               for n, k in enumerate(idx)]

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


def _flow_terms(metric: MetricField, f: PotentialField, y):
    """The metric matrix g and the coordinate gradient of f at one state row y.

    The single-point read of a flow stage: one ``metric.components`` call on
    Python floats and one ``f.expr`` call on depth-1 jets, whose gradient
    slots are read as they are (a constant has gradient 0). These are the
    floats the batched read-outs ``_metric_taylor(metric, y, 0)[0]`` and
    ``f.gradient(Point3(*y))`` return, so the stage is bit-identical to one
    built on them, at a fraction of the cost.
    """
    x = y.tolist()
    g = np.array(metric.components(*x), dtype=float)
    df = f.expr(*jets.seed(x, 1))
    grad = np.array(df.grad, dtype=float) if isinstance(df, jets.Jet) else np.zeros(3)
    return g, grad


def _flow_reader(metric: MetricField, f: PotentialField):
    """``read(y)``: inv(g) and the gradient of f at one state row y, from
    ``_flow_terms``, remembered for the last row read. A second read of the
    same row, bit for bit, returns the first read's arrays without evaluating
    them again."""
    last = [None, None]   # the row's bytes and its (inv(g), grad)

    def read(y):
        key = y.tobytes()
        if key != last[0]:
            g, grad = _flow_terms(metric, f, y)
            last[:] = key, (np.linalg.inv(g), grad)
        return last[1]

    return read


def _flow_rhs(metric: MetricField, f: PotentialField):
    """The flow's right-hand side y' = g^-1 df. It keeps ``np.linalg.inv``:
    a solve or an adjugate rounds differently, and the adaptive step control
    would then move the trace's sample times. ``rhs.read`` is its reader
    (``_flow_reader``): an event at an accepted step's end, where the step's
    first-same-as-last stage has just read the state row, takes inv(g) and
    the gradient from it, without a second ``_flow_terms`` or inverse."""
    read = _flow_reader(metric, f)

    def rhs(t, y):
        ginv, grad = read(y)
        return ginv @ grad

    rhs.read = read
    return rhs


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
