"""Command line runner for the verification suites.

Each suite is a named list of checks with pinned tolerances. Every config key
has one declared kind (``KEY_KINDS``); ``run_suite`` coerces the merged config
through it before the suite is built. A run writes a deterministic ``report.json`` (no timestamps, sorted keys), a separate
``timing.json``, and any plot data as CSV. Exit code 0 means every check
passed, 1 means at least one failed, 2 means the invocation or config was bad.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import sys
import time
from dataclasses import dataclass, replace
from types import SimpleNamespace

import numpy as np

from . import config as cfgmod
from . import geometry, global_checks, identities, potentials, quadrature, zeroset
from .errors import ConfigError, IoError, StaticPotError, UnboundedPotentialError
from .geodesics import GrowthBound, growth_bound_check, solve_curve_ode
from .geometry import Point3, PerturbationTerm


@dataclass(frozen=True)
class CheckResult:
    passed: bool
    computed: float
    expected: float
    tolerance: float
    detail: str = ""
    name: str = ""


def _check(name, fn):
    """Run one check body and name its result; an error becomes a failed result."""
    try:
        return replace(fn(), name=name)
    except (StaticPotError, ValueError, ArithmeticError) as exc:
        return CheckResult(False, math.nan, math.nan, math.nan,
                           f"{type(exc).__name__}: {exc}", name)


def _ok(computed, expected, tolerance, detail=""):
    passed = bool(abs(computed - expected) <= tolerance)
    return CheckResult(passed, float(computed), float(expected),
                       float(tolerance), detail)


def _flag(passed, detail=""):
    return CheckResult(bool(passed), 1.0 if passed else 0.0, 1.0, 0.0, detail)


def _listed(values):
    return ", ".join(f"{v:g}" for v in values)


def _worst(*arrays):
    """Largest entry of the arrays; NaN when any entry is NaN, so a check fails on it."""
    return float(np.max(np.concatenate([np.ravel(a) for a in arrays])))


def _shell_setup(c, rng):
    """The Schwarzschild pair of mass c.mass and c.n_points points drawn from rng
    in the shell r_min <= r <= r_max: the points, their stack and the stack of
    the first 20. ConfigError unless 0 < r_min <= r_max; DomainError unless the
    chart, the exterior of a ball, holds the sphere of radius r_min and so the
    shell. Only a radius is compared: no metric is evaluated, and a radius that
    overflows near r_max = 1e300 is left to fail the checks."""
    metric = geometry.schwarzschild(c.mass)
    f = potentials.schwarzschild_potential(c.mass)
    if not 0.0 < c.r_min <= c.r_max:
        raise ConfigError(f"need 0 < r_min <= r_max, got r_min = {c.r_min:g} "
                          f"and r_max = {c.r_max:g}")
    geometry._require_inside(metric, Point3(c.r_min, 0.0, 0.0))
    pts = geometry.sample_shell(rng, c.n_points, c.r_min, c.r_max)
    return metric, f, pts, Point3.stack(pts), Point3.stack(pts[:20])


def emit_plot_data(out_dir, filename, header, rows):
    """Write one CSV of plot data; header-only when there are no rows."""
    path = os.path.join(out_dir, filename)
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            for row in rows:
                writer.writerow(["%.17g" % v if isinstance(v, float) else v for v in row])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None


# ---------------------------------------------------------------------------
# suites


def _suite_euclidean_affine(c, rng):
    # r_max = 0 would sample 40 copies of the origin
    if not c.r_max > 0.0:
        raise ConfigError(f"need r_max > 0, got r_max = {c.r_max:g}")
    metric = geometry.euclidean()
    f = potentials.affine(*c.coeffs)
    pts = [Point3.of(rng.uniform(-c.r_max, c.r_max, size=3))
           for _ in range(c.n_points)]
    nodes, head = Point3.stack(pts), Point3.stack(pts[:10])

    def curvature_zero():
        bundle = geometry.curvature_at(metric, nodes)
        return _ok(_worst(np.abs(bundle.riemann), np.abs(bundle.scalar)), 0.0, c.tol)

    def static_exact():
        return _ok(_worst(potentials.static_residual(f, metric, nodes).combined_norm),
                   0.0, c.tol)

    def frame_degenerate():
        bad = sum(1 for frame in identities.ricci_eigenframe(metric, head)
                  if frame.kind != identities.ALL_EQUAL)
        return _flag(bad == 0, f"{bad} of 10 points misclassified")

    def fd_agreement():
        a = geometry.curvature_at(metric, head, backend="dual").ricci
        b = geometry.curvature_at(metric, head, backend="fd").ricci
        return _ok(_worst(np.abs(a - b)), 0.0, 1e-6)

    checks = [("curvature_zero", curvature_zero),
              ("static_residual_zero", static_exact),
              ("eigenframe_all_equal", frame_degenerate),
              ("fd_backend_agreement", fd_agreement)]
    return checks, []


def _suite_schwarzschild_static(c, rng):
    metric, f, pts, nodes, head = _shell_setup(c, rng)
    rows = []

    @functools.cache
    def frames():
        """The eigenframes at the first 20 points, from one pass shared by the
        two frame checks; it runs in the first check that reads it."""
        return identities.ricci_eigenframe(metric, head)

    def static_residual():
        res = potentials.static_residual(f, metric, nodes).combined_norm
        rows.extend(sorted(zip(nodes.r.tolist(), res.tolist())))
        return _ok(_worst(res), 0.0, c.tol)

    def scalar_flat():
        return _ok(_worst(np.abs(geometry.curvature_at(metric, nodes).scalar)), 0.0, c.tol)

    def backend_agreement():
        a = geometry.curvature_at(metric, head, backend="dual").ricci
        b = geometry.curvature_at(metric, head, backend="fd").ricci
        scale = np.maximum(1e-30, np.abs(a).max(axis=(-2, -1)))
        return _ok(_worst(np.abs(a - b).max(axis=(-2, -1)) / scale), 0.0, 1e-6)

    def frame_structure():
        worst_kind = 0
        angles = [0.0]
        for p, frame in zip(pts, frames()):
            if frame.kind != identities.TWO_EQUAL:
                worst_kind += 1
                continue
            d = frame.frame[:, frame.simple_index]
            radial = p.as_array() / p.r
            cosang = abs(float(d @ radial)) / float(np.linalg.norm(d))
            angles.append(1.0 - min(1.0, cosang))
        if worst_kind:
            return _flag(False, f"{worst_kind} points not of the two-equal kind")
        return _ok(_worst(angles), 0.0, 1e-8)

    def eigenvalue_ratio():
        ratios = [0.0]
        for frame in frames():
            lam = frame.eigenvalues
            simple = lam[frame.simple_index]
            pair = [lam[i] for i in range(3) if i != frame.simple_index]
            ratios.append(abs(simple + 2.0 * pair[0]) / abs(simple))
        return _ok(_worst(ratios), 0.0, 1e-8)

    checks = [("static_residual_max", static_residual),
              ("scalar_curvature_zero", scalar_flat),
              ("backend_relative_agreement", backend_agreement),
              ("simple_direction_radial", frame_structure),
              ("radial_eigenvalue_doubling", eigenvalue_ratio)]
    plots = [("residuals.csv", ("r", "combined_residual"), rows)]
    return checks, plots


def _suite_tod_identities(c, rng):
    metric, f, _, nodes, head = _shell_setup(c, rng)
    rows = []

    def residual_max():
        res = np.abs(identities.tod_identity_residuals(f, metric, nodes)).max(axis=-1)
        rows.extend(sorted(zip(nodes.r.tolist(), res.tolist())))
        return _ok(_worst(res), 0.0, c.tol)

    def all_equal_count():
        bad = sum(1 for frame in identities.ricci_eigenframe(metric, head)
                  if frame.kind == identities.ALL_EQUAL)
        return _flag(bad == 0, f"{bad} points reported all eigenvalues equal")

    checks = [("cyclic_identity_max", residual_max),
              ("no_spurious_full_degeneracy", all_equal_count)]
    plots = [("residuals.csv", ("r", "max_identity_residual"), rows)]
    return checks, plots


def _suite_growth_bound(c, rng):
    epsilon, r0, t_end, n_trials = c.epsilon, c.r0, c.t_end, c.n_trials
    if t_end <= r0:
        raise ConfigError(f"need t_end > r0, got t_end = {t_end:g} and r0 = {r0:g}")
    bound = GrowthBound.from_initial_data(epsilon, 1.0, r0)
    ts = np.geomspace(r0, t_end, 400)
    rows = []

    @functools.cache
    def transported():
        """The trial curves and, as curve n_trials, the scaled extremal solution
        (coefficient scale 1, data 0.99 w(r0), 0.99 w'(r0)) in one solve. It
        runs in the first check that reads it, so a failure stays a check's;
        each check reads only its own curves."""
        scales = np.array([rng.uniform(-1.0, 1.0) for _ in range(n_trials)] + [1.0])
        h = lambda t, lanes: scales[lanes] * epsilon / (t * t)
        f0 = np.append(np.ones(n_trials), 0.99 * bound.w(r0))
        f0_slope = np.append(np.ones(n_trials), 0.99 * bound.w_slope(r0))
        return h, solve_curve_ode(h, f0, f0_slope, r0, t_end, t_eval=ts)

    def envelope_trials():
        h, curves = transported()
        # read every trial first: a failed curve raises before any row is kept
        trials = [curves[k] for k in range(n_trials)]
        violations = 0
        for k, (sol_ts, fs, _) in enumerate(trials):
            verdict = growth_bound_check(sol_ts, fs, bound, slope_at_start=1.0,
                                         h_values=h(sol_ts, k))
            violations += verdict.violations
            if k == 0:
                for t, v in zip(sol_ts, fs):
                    rows.append((t, v, bound.w(t)))
        return _ok(violations, 0.0, 0.0, f"{n_trials} admissible coefficient trials")

    def extremal_match():
        sol_ts, fs, _ = transported()[1][n_trials]
        exact = 0.99 * bound.w(sol_ts)
        worst = float(np.max(np.abs(fs - exact) / np.abs(exact)))
        return _ok(worst, 0.0, 1e-8, "scaled extremal solution against the closed form")

    def exponent_identity():
        a = bound.alpha
        return _ok(a * (a - 1.0), epsilon, 1e-13)

    def tail_slope_bounded():
        # the scalar power, as on one point: numpy's array power rounds differently
        h = lambda t, lanes: 0.5 * np.array([x ** (-2.75) for x in t.tolist()])
        [(sol_ts, fs, slopes)] = solve_curve_ode(h, 1.0, 1.0, r0, 1e6)
        worst = float(np.max(np.abs(slopes)))
        return _ok(min(worst, 10.0), worst, 0.0,
                   "slope stays bounded when the coefficient decays faster")

    checks = [("envelope_violations", envelope_trials),
              ("extremal_reproduction", extremal_match),
              ("exponent_identity", exponent_identity),
              ("tail_slope_bounded", tail_slope_bounded)]
    plots = [("envelope.csv", ("t", "solution", "envelope"), rows)]
    return checks, plots


_GRAPH_EXPR = "x1 + 0.5*ln(x2^2 + x3^2)"
_CHART_DECAY = -1.0  # the Schwarzschild chart's deviation from flat decays like 1/r


def _suite_zero_set_gauss_bonnet(c, rng):
    lo, hi = c.bracket
    # the decay exponent is a line fit through the radii; gauss_bonnet_limit
    # refuses radii whose last three are not geometric, before any circle
    if len(set(c.radii)) != len(c.radii) or len(c.radii) < 2:
        raise ConfigError(f"need at least two radii, all distinct, got radii = {_listed(c.radii)}")
    metric = geometry.schwarzschild(c.mass)
    f = potentials.expression_potential(_GRAPH_EXPR, label="log graph")
    region = zeroset.AnnulusRegion(c.inner, c.outer)
    graph = zeroset.extract_zero_graph(f, metric, region, (lo, hi), n_u=4, n_v=8)
    report = zeroset.gauss_bonnet_limit(graph, c.radii, n_angles=c.n_angles)
    rows = list(zip(report.radii, report.turning_integrals,
                    report.kappa_deviations))

    def limit_check():
        err = abs(report.extrapolated / (2.0 * math.pi) - 1.0)
        return _ok(err, 0.0, c.tol, f"extrapolated {report.extrapolated:.6f} vs 2*pi")

    def exponent_check():
        return _ok(report.deviation_decay_exponent, _CHART_DECAY, 0.3)

    def graph_flattens():
        du, dv = graph.chart.lift(0.0, c.outer / 2.0).slopes
        return _ok(math.hypot(du, dv), 0.0, 0.2)

    checks = [("turning_limit", limit_check),
              ("deviation_decay_exponent", exponent_check),
              ("graph_slope_decay", graph_flattens)]
    plots = [("turning.csv",
              ("radius", "turning_integral", "mean_kappa_deviation"),
              rows)]
    return checks, plots


def _suite_mass_fit(c, rng):
    mass, n_spheres = c.mass, c.n_spheres
    lo, hi = c.window
    # the spheres are spaced geometrically from lo
    if not lo > 0.0:
        raise ConfigError(f"need 0 < lo < hi, got window = {lo:g}, {hi:g}")
    metric = geometry.schwarzschild(mass)
    f = potentials.schwarzschild_potential(mass)
    rows = []

    def recovered():
        fit = global_checks.fit_mass_expansion(f, metric, window=(lo, hi),
                                               n_spheres=n_spheres)
        for r, avg in zip(fit.radii, fit.averages):
            rows.append((r, avg, fit.model(r)))
        return _ok(fit.mass / mass, 1.0, c.tol, f"fitted mass {fit.mass:.8f}")

    def synthetic_exact():
        g = geometry.euclidean()
        fsyn = potentials.expression_potential("1 - 3/r + 5/(r*r)",
                                               label="synthetic expansion")
        fit = global_checks.fit_mass_expansion(fsyn, g, window=(lo, hi),
                                               n_spheres=n_spheres)
        return _ok(fit.mass, 3.0, 5e-3)

    def unbounded_gate():
        try:
            global_checks.fit_mass_expansion(potentials.affine(0.0, 1.0, 0.0, 0.0),
                                             geometry.euclidean(),
                                             window=(lo, hi),
                                             n_spheres=n_spheres)
        except UnboundedPotentialError:
            return _flag(True)
        return _flag(False, "a potential with linear growth was accepted")

    def remainder_decay():
        fit = potentials.fit_linear_part(
            f, metric, radii=list(np.geomspace(lo, hi, max(3, n_spheres))))
        if fit.remainder_exponent is None:
            return _flag(False, "remainder below resolution; widen the window inward")
        return _ok(fit.remainder_exponent, -2.0, 0.4)

    checks = [("mass_recovered", recovered),
              ("synthetic_mass_exact", synthetic_exact),
              ("unbounded_rejected", unbounded_gate),
              ("remainder_decay_exponent", remainder_decay)]
    plots = [("averages.csv", ("r", "sphere_average", "fitted_model"), rows)]
    return checks, plots


def _suite_huisken_yau(c, rng):
    mass, amp, r_lo, r_hi = c.mass, c.perturb_amp, c.r_lo, c.r_hi
    ratio_tol = c.ratio_factor
    # equal radii make the ratio 1 on any metric, and a factor below 1 leaves
    # no ratio that could pass
    if not 0.0 < r_lo < r_hi:
        raise ConfigError(f"need 0 < r_lo < r_hi, got r_lo = {r_lo:g} and r_hi = {r_hi:g}")
    if not ratio_tol >= 1.0:
        raise ConfigError(f"need ratio_factor >= 1, got {ratio_tol:g}")
    pure = geometry.schwarzschild(mass)
    terms = [PerturbationTerm(0, 0, amp, (0, 0, 0)),
             PerturbationTerm(0, 1, 0.6 * amp, (0, 0, 0)),
             PerturbationTerm(2, 2, -0.8 * amp, (0, 0, 0))]
    bumpy = geometry.perturbed_as(mass, terms)
    dirs = quadrature.sphere_rule(4, 8).directions
    for metric in (pure, bumpy):
        for r in (r_lo, r_hi):
            geometry._require_inside(metric, Point3(*(r * dirs).T))
    rows = []

    def sphere_max(metric, r):
        x = r * dirs
        res = global_checks.curvature_decay_residual(metric, mass, Point3(*x.T))
        return _worst(res.residual)

    def exact_on_pure():
        worst = sphere_max(pure, r_lo)
        return _ok(worst, 0.0, 1e-12)

    def perturbed_ratio():
        # geomspace returns r_lo and r_hi exactly as its first and last radii
        sweep = [(rr, sphere_max(bumpy, rr)) for rr in np.geomspace(r_lo, r_hi, 7)]
        rows.extend(sweep)
        expected = (r_lo / r_hi) ** 4
        ratio = sweep[-1][1] / sweep[0][1]
        passed = expected / ratio_tol <= ratio <= expected * ratio_tol
        return CheckResult(passed, ratio, expected, expected * (ratio_tol - 1.0),
                           f"doubling the radius scales the defect by {ratio:.5f}")

    def rotation_covariant():
        theta = 0.3
        q = np.array([[math.cos(theta), -math.sin(theta), 0.0],
                      [math.sin(theta), math.cos(theta), 0.0],
                      [0.0, 0.0, 1.0]])
        rotated = geometry.rotate_chart(bumpy, q)
        p = Point3.of(r_lo * dirs[3])
        a = global_checks.curvature_decay_residual(bumpy, mass, p).residual
        b = global_checks.curvature_decay_residual(
            rotated, mass, Point3.of(q.T @ p.as_array())).residual
        scale = max(a, 1e-30)
        return _ok(abs(a - b) / scale, 0.0, 1e-8)

    checks = [("model_exact_unperturbed", exact_on_pure),
              ("residual_ratio_fourth_order", perturbed_ratio),
              ("rotation_covariance", rotation_covariant)]
    plots = [("decay.csv", ("r", "sphere_max_residual"), rows)]
    return checks, plots


def _suite_anisotropy_limit(c, rng):
    f = potentials.expression_potential(_GRAPH_EXPR, label="log graph")
    region = zeroset.AnnulusRegion(c.inner, c.outer)
    # the model a + b/y + c/y^2 has three coefficients to fit
    heights = set(c.heights)
    if len(heights) < 3 or not all(c.inner < y < c.outer for y in heights):
        raise ConfigError(f"need at least three distinct heights inside ({c.inner:g}, "
                          f"{c.outer:g}), got heights = {_listed(c.heights)}")
    # each mass names its check, and report.json needs the names distinct
    names = [f"limit_mass_{m:g}" for m in c.masses]
    if len(set(names)) < len(names):
        raise ConfigError("need masses with distinct check names limit_mass_<m:g>, got "
                          f"masses = {', '.join(map(repr, c.masses))}")
    rows = []
    checks = []
    for m, name in zip(c.masses, names):
        metric = geometry.schwarzschild(m)   # a zero mass is refused at set-up

        def one(mass=m, metric=metric):
            graph = zeroset.extract_zero_graph(f, metric, region, (-10.0, 2.0),
                                               n_u=4, n_v=8)
            report = global_checks.anisotropy_limit(metric, graph, c.heights)
            for y, v in zip(report.heights, report.scaled_differences):
                rows.append((mass, y, v))
            err = abs(report.extrapolated / (3.0 * mass) - 1.0)
            return _ok(err, 0.0, c.tol,
                       f"extrapolated {report.extrapolated:.5f} vs {3.0 * mass:g}")
        checks.append((name, one))
    plots = [("scaled_differences.csv",
              ("mass", "height", "scaled_difference"), rows)]
    return checks, plots


_REFINE_OUTER = 10.0  # outer radius of the angular refinement guard's shell


def _suite_integral_identities(c, rng):
    mass, r_inner, r_outer, rel_tol = c.mass, c.r_inner, c.r_outer, c.rel_tol
    n_panels, nodes_per_panel = c.n_panels, c.nodes_per_panel
    if mass <= 0.0:
        raise ConfigError("mass must be positive: the capacity balance needs a horizon")
    if not 0.0 < r_inner < min(r_outer, _REFINE_OUTER):
        raise ConfigError(f"need 0 < r_inner < r_outer and r_inner < {_REFINE_OUTER:g}, "
                          "the outer radius of the angular refinement shell")
    metric = geometry.schwarzschild(mass)
    # the chart is the exterior of a ball, so the sphere r_inner is in it when one point is
    geometry._require_inside(metric, Point3(r_inner, 0.0, 0.0))
    f = potentials.schwarzschild_potential(mass)
    rule = quadrature.sphere_rule(c.n_polar, c.n_azimuth)
    rows = []

    def shell_defect():
        report = global_checks.integral_identity_check(
            f, metric, r_inner, r_outer, rule=rule,
            n_panels=n_panels, nodes_per_panel=nodes_per_panel)
        rows.append((r_inner, report.flux_inner))
        rows.append((r_outer, report.flux_outer))
        return _ok(report.relative_defect, 0.0, rel_tol,
                   f"volume term {report.bulk:.10f}")

    def doubled_rule_stable():
        # doubling guard for the reduced angular rules: a radially symmetric
        # integrand must not move when the rule is refined
        coarse = quadrature.sphere_rule(6, 12)
        fine = quadrature.sphere_rule(12, 24)
        a = global_checks.integral_identity_check(
            f, metric, r_inner, _REFINE_OUTER, rule=coarse,
            n_panels=8, nodes_per_panel=6)
        b = global_checks.integral_identity_check(
            f, metric, r_inner, _REFINE_OUTER, rule=fine,
            n_panels=8, nodes_per_panel=6)
        drift = abs(a.relative_defect - b.relative_defect)
        return _ok(drift, 0.0, rel_tol, f"coarse defect {a.relative_defect:.3e}")

    def capacity():
        full_chart = geometry.schwarzschild(mass, exterior_only=False)
        balance = global_checks.capacity_balance_instance(
            mass, f, full_chart, rule=quadrature.sphere_rule(6, 12))
        return _ok(balance.relative_gap, 0.0, c.capacity_tol,
                   f"boundary factor {balance.boundary_gradient:.8f}, "
                   f"euler characteristic {balance.euler_characteristic}")

    checks = [("shell_flux_defect", shell_defect),
              ("angular_refinement_stable", doubled_rule_stable),
              ("capacity_balance", capacity)]
    plots = [("fluxes.csv", ("r", "flux"), rows)]
    return checks, plots


def _suite_conformal_double(c, rng):
    metric, f, _, nodes, _ = _shell_setup(c, rng)
    rows = []

    def both_signs():
        plus = global_checks.conformal_double_scalar(f, metric, 1, nodes)
        minus = global_checks.conformal_double_scalar(f, metric, -1, nodes)
        rows.extend(sorted(zip(nodes.r.tolist(), plus.tolist(), minus.tolist())))
        return _ok(_worst(np.abs(plus), np.abs(minus)), 0.0, c.tol)

    def nonstatic_control():
        g = geometry.euclidean()
        fq = potentials.expression_potential("x1*x1", label="quadratic control")
        val = global_checks.conformal_double_scalar(fq, g, 1, Point3(1.0, 0.0, 0.0))
        return _ok(val, -0.5, 1e-10, "a non-static pair must not look flat")

    checks = [("doubled_scalar_flat", both_signs),
              ("control_scalar_nonzero", nonstatic_control)]
    plots = [("doubled_scalars.csv", ("r", "scalar_plus", "scalar_minus"), rows)]
    return checks, plots


def _suite_flow_classify(c, rng):
    metric = geometry.schwarzschild(c.mass)
    f = potentials.schwarzschild_potential(c.mass)
    budget = global_checks.FlowBudget(r_escape=c.r_escape, t_max=1e10)
    trace = global_checks.flow_classify(f, metric, Point3.of(c.start), budget)
    rows = [(s.t, float(np.linalg.norm(s.position)), s.f_value, s.grad_norm)
            for s in trace.samples]

    def classified():
        return _flag(trace.classification == global_checks.ESCAPE_TO_END,
                     f"got {trace.classification}")

    def limit_value():
        if trace.limit_estimate is None:
            return _ok(math.nan, 1.0, c.b_tol, f"no limit: the flow ended as {trace.classification}")
        return _ok(trace.limit_estimate, 1.0, c.b_tol)

    def monotone():
        return _ok(trace.monotone_violations, 0.0, 0.0)

    def critical_control():
        g = geometry.euclidean()
        fq = potentials.expression_potential("-(x1*x1 + x2*x2 + x3*x3)",
                                             label="sink control")
        tr = global_checks.flow_classify(
            fq, g, Point3(1.0, 0.0, 0.0),
            global_checks.FlowBudget(r_escape=50.0, t_max=50.0))
        return _flag(tr.classification == global_checks.CONVERGE_CRITICAL,
                     f"got {tr.classification}")

    def unbounded_control():
        g = geometry.euclidean()
        fa = potentials.affine(0.0, 1.0, 0.0, 0.0)
        tr = global_checks.flow_classify(
            fa, g, Point3(0.1, 0.0, 0.0),
            global_checks.FlowBudget(r_escape=25.0, t_max=1e4))
        ok = (tr.classification == global_checks.ESCAPE_TO_END
              and math.isinf(tr.limit_estimate))
        return _flag(ok, f"got {tr.classification}, limit {tr.limit_estimate}")

    checks = [("escape_classification", classified),
              ("limit_estimate", limit_value),
              ("monotone_violations", monotone),
              ("critical_point_detected", critical_control),
              ("unbounded_escape_detected", unbounded_control)]
    plots = [("flow_trace.csv", ("t", "r", "potential", "gradient_norm"), rows)]
    return checks, plots


SUITES = {
    "euclidean_affine": (
        {"n_points": "40", "r_max": "10", "tol": "1e-10",
         "coeffs": "0.5, 1.0, -2.0, 3.0"},
        _suite_euclidean_affine),
    "schwarzschild_static": (
        {"mass": "2.0", "n_points": "50", "r_min": "1.5", "r_max": "10",
         "tol": "1e-7"},
        _suite_schwarzschild_static),
    "tod_identities": (
        {"mass": "1.5", "n_points": "50", "r_min": "1.2", "r_max": "15",
         "tol": "1e-5"},
        _suite_tod_identities),
    "growth_bound": (
        {"epsilon": "0.5", "r0": "1.0", "t_end": "1e4", "n_trials": "20"},
        _suite_growth_bound),
    "zero_set_gauss_bonnet": (
        {"mass": "2.0", "inner": "30", "outer": "500",
         "radii": "50, 100, 200", "n_angles": "128", "tol": "0.01",
         "bracket": "-8, 0"},
        _suite_zero_set_gauss_bonnet),
    "mass_fit": (
        {"mass": "2.0", "window": "50, 400", "n_spheres": "8", "tol": "0.01"},
        _suite_mass_fit),
    "huisken_yau": (
        {"mass": "1.0", "perturb_amp": "0.5", "r_lo": "20", "r_hi": "40",
         "ratio_factor": "1.5"},
        _suite_huisken_yau),
    "anisotropy_limit": (
        {"masses": "2, -1", "heights": "100, 140, 200, 280, 400, 560, 800",
         "inner": "50", "outer": "1000", "tol": "0.05"},
        _suite_anisotropy_limit),
    "integral_identities": (
        {"mass": "1.0", "r_inner": "2", "r_outer": "40", "n_polar": "8",
         "n_azimuth": "16", "n_panels": "18", "nodes_per_panel": "8",
         "rel_tol": "1e-5", "capacity_tol": "0.02"},
        _suite_integral_identities),
    "conformal_double": (
        {"mass": "1.0", "n_points": "50", "r_min": "0.8", "r_max": "15",
         "tol": "1e-6"},
        _suite_conformal_double),
    "flow_classify": (
        {"mass": "1.0", "start": "0.6, 0, 0", "r_escape": "700",
         "b_tol": "1e-3"},
        _suite_flow_classify),
}

# The kind of every config key above, declared once: "count" is an integer
# >= 1, "float" a finite number, "nonneg" a finite number >= 0 (a tolerance),
# "list" a non-empty list of finite numbers, an integer n a list of exactly n
# numbers, and "pair" two increasing numbers.
KEY_KINDS = {
    **dict.fromkeys(("n_points", "n_trials", "n_angles", "n_spheres", "n_polar",
                     "n_azimuth", "n_panels", "nodes_per_panel"), "count"),
    **dict.fromkeys(("radii", "heights", "masses"), "list"),
    **dict.fromkeys(("window", "bracket"), "pair"),
    "coeffs": 4,
    "start": 3,
    **dict.fromkeys(("mass", "r_min", "r_max", "epsilon", "r0", "t_end",
                     "inner", "outer", "perturb_amp", "r_lo", "r_hi",
                     "ratio_factor", "r_inner", "r_outer", "r_escape"), "float"),
    **dict.fromkeys(("tol", "rel_tol", "capacity_tol", "b_tol"), "nonneg"),
}


def _coerce(cfg, key):
    """One config value as its declared kind; ConfigError when it is not one."""
    kind = KEY_KINDS[key]
    if kind == "float":
        return cfgmod.as_float(cfg, key)
    if kind == "nonneg":
        value = cfgmod.as_float(cfg, key)
        if value < 0:
            raise ConfigError(f"key {key!r}: expected a number >= 0, got {cfg[key]!r}")
        return value
    if kind == "count":
        value = cfgmod.as_int(cfg, key)
        if value < 1:
            raise ConfigError(f"key {key!r}: expected an integer >= 1, got {cfg[key]!r}")
        return value
    values = cfgmod.as_float_list(cfg, key)
    if kind == "list" and not values:
        raise ConfigError(f"key {key!r}: expected at least one number")
    if kind == "pair" and not (len(values) == 2 and values[0] < values[1]):
        raise ConfigError(f"key {key!r}: expected two increasing numbers lo, hi, "
                          f"got {cfg[key]!r}")
    if isinstance(kind, int) and len(values) != kind:
        raise ConfigError(f"key {key!r}: expected {kind} numbers, got {cfg[key]!r}")
    return values


# ---------------------------------------------------------------------------
# report plumbing


def _atomic_write_json(path, payload):
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from None


def _number(x):
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    if isinstance(x, float) and math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return x


def run_suite(suite, cfg_overrides, out_dir, seed=0):
    if suite not in SUITES:
        raise ConfigError(f"unknown suite {suite!r}; see list-suites")
    defaults, fn = SUITES[suite]
    cfg = cfgmod.merge_with_defaults(cfg_overrides, defaults, suite)
    values = SimpleNamespace(**{key: _coerce(cfg, key) for key in cfg})
    rng = np.random.default_rng(seed)
    os.makedirs(out_dir, exist_ok=True)

    started = time.time()
    try:
        checks, plots = fn(values, rng)
    except ConfigError:
        raise
    except (StaticPotError, ValueError, ArithmeticError) as exc:
        # the configured values were refused before any check ran
        raise ConfigError(f"suite {suite!r}: {type(exc).__name__}: {exc}") from None
    results = [_check(name, body) for name, body in checks]
    for filename, header, rows in plots:
        emit_plot_data(out_dir, filename, header, rows)
    elapsed = time.time() - started

    report = {
        "suite": suite,
        "seed": seed,
        "config": {k: cfg[k] for k in sorted(cfg)},
        "checks": [
            {"name": r.name, "passed": r.passed,
             "computed": _number(r.computed), "expected": _number(r.expected),
             "tolerance": _number(r.tolerance), "detail": r.detail}
            for r in results],
        "n_passed": sum(1 for r in results if r.passed),
        "n_failed": sum(1 for r in results if not r.passed),
        "passed": all(r.passed for r in results),
    }
    _atomic_write_json(os.path.join(out_dir, "report.json"), report)
    _atomic_write_json(os.path.join(out_dir, "timing.json"),
                       {"suite": suite, "elapsed_seconds": elapsed,
                        "started_unix": started})
    return report


def _parse_metric_spec(spec):
    family, _, rest = spec.partition(":")
    kwargs = {}
    for tok in filter(None, (t.strip() for t in rest.split(","))):
        if "=" not in tok:
            raise ConfigError(f"bad metric option {tok!r}")
        k, v = tok.split("=", 1)
        kwargs[k.strip()] = v.strip()
    if family == "euclidean":
        if kwargs:
            raise ConfigError("euclidean takes no options")
        return geometry.euclidean()
    if family == "schwarzschild":
        mass = cfgmod.as_float({"mass": kwargs.pop("mass", "1")}, "mass")
        if kwargs:
            raise ConfigError(f"unknown schwarzschild option(s): {sorted(kwargs)}")
        try:
            return geometry.schwarzschild(mass)
        except ValueError as exc:
            raise ConfigError(f"metric {spec!r}: {exc}") from None
    raise ConfigError(f"unknown metric family {family!r}")


def _parse_points(arg, path):
    triples = []
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                lines = [ln.strip() for ln in fh if ln.strip()]
        except OSError as exc:
            raise ConfigError(f"cannot read points file: {exc}") from None
        triples.extend(lines)
    if arg:
        triples.extend(t for t in arg.split(";") if t.strip())
    pts = []
    for t in triples:
        try:
            vals = [float(v) for v in t.split(",")]
        except ValueError:
            raise ConfigError(f"point {t!r} is not three numbers") from None
        if len(vals) != 3:
            raise ConfigError(f"point {t!r} is not three coordinates")
        if not all(math.isfinite(v) for v in vals):
            raise ConfigError(f"point {t!r} has a non-finite coordinate")
        pts.append(Point3.of(vals))
    if not pts:
        raise ConfigError("no points given; use --points or --points-file")
    return pts


def _cmd_dump_curvature(args):
    metric = _parse_metric_spec(args.metric)
    pts = _parse_points(args.points, args.points_file)
    os.makedirs(args.out, exist_ok=True)
    rows = []
    for p in pts:
        try:
            bundle = geometry.curvature_at(metric, p, backend=args.backend)
        except (StaticPotError, OverflowError) as exc:
            # a point outside the chart, where the metric degenerates, or so
            # far out that its squared radius overflows
            raise ConfigError(f"{type(exc).__name__}: {exc}") from None
        ric = bundle.ricci
        rows.append((p.x1, p.x2, p.x3, bundle.scalar,
                     ric[0, 0], ric[0, 1], ric[0, 2],
                     ric[1, 1], ric[1, 2], ric[2, 2]))
    emit_plot_data(args.out, "curvature.csv",
                   ("x1", "x2", "x3", "scalar",
                    "ric_11", "ric_12", "ric_13",
                    "ric_22", "ric_23", "ric_33"), rows)
    print(f"wrote {len(rows)} rows to {os.path.join(args.out, 'curvature.csv')}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="staticpot",
        description="numerical verification suites for static potentials")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run one verification suite")
    p_verify.add_argument("suite")
    p_verify.add_argument("--config", default=None,
                          help="flat key = value file overriding suite defaults")
    p_verify.add_argument("--out", default="out",
                          help="directory for report.json, timing.json and CSVs")
    p_verify.add_argument("--seed", type=int, default=0)

    sub.add_parser("list-suites", help="print suite names and their config keys")

    p_dump = sub.add_parser("dump-curvature",
                            help="tabulate curvature of a metric at points")
    p_dump.add_argument("--metric", default="euclidean",
                        help="family[:key=value,...], e.g. schwarzschild:mass=2")
    p_dump.add_argument("--points", default="",
                        help="semicolon-separated x1,x2,x3 triples")
    p_dump.add_argument("--points-file", default=None,
                        help="file with one x1,x2,x3 triple per line")
    p_dump.add_argument("--backend", default="dual", choices=("dual", "fd"))
    p_dump.add_argument("--out", default="out")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list-suites":
            for name in sorted(SUITES):
                keys = ", ".join(sorted(SUITES[name][0]))
                print(f"{name}: {keys}")
            return 0
        if args.command == "dump-curvature":
            return _cmd_dump_curvature(args)
        overrides = cfgmod.load_config(args.config) if args.config else {}
        report = run_suite(args.suite, overrides, args.out, seed=args.seed)
        for chk in report["checks"]:
            mark = "PASS" if chk["passed"] else "FAIL"
            print(f"[{mark}] {report['suite']}.{chk['name']}")
        print(f"{report['n_passed']} passed, {report['n_failed']} failed; "
              f"report in {os.path.join(args.out, 'report.json')}")
        return 0 if report["passed"] else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except IoError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
