"""Acceptance gate: one test per release criterion, each printing a verdict line.

Every test checks a pinned tolerance and prints ``[PASS]``/``[FAIL]`` with the
measured number, so a plain pytest run doubles as the sign-off checklist. The
criteria with a runtime budget assert it too.
"""

import math
import time

import numpy as np
import pytest

import staticpot as sp
from staticpot import global_checks, quadrature, zeroset
from staticpot.geodesics import GrowthBound, growth_bound_check, solve_curve_ode
from staticpot.geometry import Point3

from .reference_pointwise import reconstruct_riemann_from_ricci

_T0 = time.perf_counter()
_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_verdicts(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _criterion(name, passed, detail):
    mark = "PASS" if passed else "FAIL"
    line = f"[{mark}] {name}: {detail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)
    assert passed, f"{name}: {detail}"


def _shell_points(rng, n, r_min, r_max):
    return sp.sample_shell(rng, n, r_min, r_max)


def test_c01_flatness_and_backend_agreement():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    cases = [(sp.euclidean(),
              [Point3.of(rng.uniform(-8.0, 8.0, size=3)) for _ in range(100)]),
             (sp.schwarzschild(1.0), _shell_points(rng, 100, 0.8, 15.0)),
             (sp.schwarzschild(2.0), _shell_points(rng, 100, 1.2, 20.0))]
    worst_scalar = 0.0
    worst_gap = 0.0
    for metric, pts in cases:
        for p in pts:
            dual = sp.curvature_at(metric, p, backend="dual")
            worst_scalar = max(worst_scalar, abs(dual.scalar))
            fd = sp.curvature_at(metric, p, backend="fd")
            worst_gap = max(worst_gap, float(np.max(np.abs(dual.ricci - fd.ricci))))
    elapsed = time.perf_counter() - t0
    _criterion("scalar_flatness_and_backend_agreement",
               worst_scalar < 1e-8 and worst_gap < 1e-6 and elapsed < 5.0,
               f"|scalar| max {worst_scalar:.2e} (< 1e-8), backend gap "
               f"{worst_gap:.2e} (< 1e-6), {elapsed:.1f}s (< 5s)")


def test_c02_static_residuals():
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    g = sp.schwarzschild(1.0)
    f = sp.schwarzschild_potential(1.0)
    worst_n = max(sp.static_residual(f, g, p).combined_norm
                  for p in _shell_points(rng, 100, 0.8, 15.0))
    flat = sp.euclidean()
    worst_affine = 0.0
    for _ in range(5):
        fa = sp.affine(*rng.uniform(-3.0, 3.0, size=4))
        worst_affine = max(worst_affine,
                           max(sp.static_residual(fa, flat, Point3.of(q)).combined_norm
                               for q in rng.uniform(-8.0, 8.0, size=(20, 3))))
    elapsed = time.perf_counter() - t0
    _criterion("static_residuals",
               worst_n < 1e-7 and worst_affine < 1e-12 and elapsed < 5.0,
               f"conformal-slice residual {worst_n:.2e} (< 1e-7), affine "
               f"{worst_affine:.2e} (< 1e-12), {elapsed:.1f}s (< 5s)")


def test_c03_eigenframe_derivative_identities():
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    g = sp.schwarzschild(1.0)
    f = sp.schwarzschild_potential(1.0)
    worst = max(float(np.max(np.abs(sp.tod_identity_residuals(f, g, p))))
                for p in _shell_points(rng, 50, 0.8, 12.0))
    elapsed = time.perf_counter() - t0
    _criterion("eigenframe_derivative_identities",
               worst < 1e-5 and elapsed < 10.0,
               f"max residual {worst:.2e} (< 1e-5), {elapsed:.1f}s (< 10s)")


def test_c04_riemann_reconstruction():
    rng = np.random.default_rng(104)
    g = sp.schwarzschild(1.0)
    worst = 0.0
    for p in _shell_points(rng, 50, 0.8, 15.0):
        b = sp.curvature_at(g, p)
        rebuilt = reconstruct_riemann_from_ricci(b.ricci, b.scalar, b.metric_matrix)
        worst = max(worst, float(np.max(np.abs(rebuilt - b.riemann))))
    _criterion("riemann_reconstruction_from_ricci",
               worst < 1e-7, f"max gap {worst:.2e} (< 1e-7)")


def test_c05_growth_envelope():
    eps, r0, t_end = 0.5, 1.0, 1e4
    rng = np.random.default_rng(105)
    bound = GrowthBound.from_initial_data(eps, 1.0, r0)
    assert bound.alpha == (1.0 + math.sqrt(3.0)) / 2.0
    ts = np.geomspace(r0, t_end, 400)
    scales = np.array([rng.uniform(-1.0, 1.0) for _ in range(20)])
    h = lambda t, lanes: scales[lanes] * eps / (t * t)
    violations = 0
    for k, (sol_ts, fs, _) in enumerate(solve_curve_ode(h, np.ones(20), np.ones(20), r0, t_end,
                                                         t_eval=ts)):
        verdict = growth_bound_check(sol_ts, fs, bound, slope_at_start=1.0,
                                     h_values=h(sol_ts, k))
        violations += verdict.violations
    exact_bound = GrowthBound(epsilon=eps, r0=r0, amplitude=1.0, alpha=bound.alpha)
    [(sol_ts, fs, _)] = solve_curve_ode(lambda t, lanes: eps / (t * t),
                                        exact_bound.w(r0), exact_bound.w_slope(r0),
                                        r0, t_end, t_eval=ts)
    rel = float(np.max(np.abs(fs - exact_bound.w(sol_ts)) / exact_bound.w(sol_ts)))
    _criterion("growth_envelope",
               violations == 0 and rel < 1e-8,
               f"{violations} violations over 20 trials (= 0), extremal "
               f"reproduction {rel:.2e} (< 1e-8)")


def test_c06_horizon_zero_set_laws():
    m = 1.0
    g = sp.schwarzschild(m, exterior_only=False)
    f = sp.schwarzschild_potential(m)
    comp = sp.extract_closed_component(f, g, (0.0, 0.0, 0.0),
                                       s_bracket=(0.25 * m, 0.8 * m),
                                       n_theta=6, n_phi=8)
    samples = [(0.8, 1.0), (1.5, 2.0), (2.0, 4.0)]
    report = sp.zero_set_laws(f, g, comp.chart, samples)
    oracle = 1.0 / (4.0 * m)
    k_scale = 1.0 / (2.0 * m) ** 2
    grad_err = float(np.max(np.abs(report.grad_norms - oracle))) / oracle
    rel_2r11 = float(np.max(report.k_minus_2r11)) / k_scale
    rel_r33 = float(np.max(report.k_plus_r33)) / k_scale
    ok = (report.grad_norm_spread < 1e-10 and grad_err < 1e-10
          and rel_2r11 < 1e-10 and rel_r33 < 1e-10)
    _criterion("horizon_zero_set_laws", ok,
               f"gradient spread {report.grad_norm_spread:.2e}, offset from "
               f"1/(4m) {grad_err:.2e}, K=2R11 gap {rel_2r11:.2e}, "
               f"K=-R33 gap {rel_r33:.2e} (all < 1e-10 relative)")


def test_c07_turning_limit():
    t0 = time.perf_counter()
    g = sp.schwarzschild(2.0)
    f = sp.expression_potential("x1 + 0.5*ln(x2^2 + x3^2)", label="log graph")
    graph = sp.extract_zero_graph(f, g, sp.AnnulusRegion(30.0, 500.0),
                                  n_u=4, n_v=8, bracket=(-8.0, 0.0))
    report = sp.gauss_bonnet_limit(graph, [50.0, 100.0, 200.0], n_angles=128)
    limit_err = abs(report.extrapolated / (2.0 * math.pi) - 1.0)
    exp_err = abs(report.deviation_decay_exponent - (-1.0))  # deviations from flat decay like 1/r
    elapsed = time.perf_counter() - t0
    _criterion("circle_turning_limit",
               limit_err < 0.01 and exp_err <= 0.3 and elapsed < 10.0,
               f"extrapolated {report.extrapolated:.5f} vs 2*pi "
               f"(rel {limit_err:.2e} < 1e-2), deviation exponent "
               f"{report.deviation_decay_exponent:.3f} vs -1 "
               f"(gap {exp_err:.2f} <= 0.3), {elapsed:.1f}s (< 10s)")


def test_c08_mass_recovery():
    m = 2.0
    fit = sp.fit_mass_expansion(sp.schwarzschild_potential(m), sp.schwarzschild(m),
                                window=(50.0, 400.0))
    err = abs(fit.mass / m - 1.0)
    _criterion("mass_recovery", err < 0.01,
               f"fitted {fit.mass:.6f} vs {m:g} (rel {err:.2e} < 1e-2)")


def test_c09_decay_model_fourth_order():
    m = 1.0
    terms = [sp.PerturbationTerm(0, 0, 0.5, (0, 0, 0)),
             sp.PerturbationTerm(0, 1, 0.3, (0, 0, 0)),
             sp.PerturbationTerm(2, 2, -0.4, (0, 0, 0))]
    bumpy = sp.perturbed_as(m, terms)
    pure = sp.schwarzschild(m)
    dirs = quadrature.sphere_rule(4, 8).directions

    def sphere_max(metric, r):
        return max(sp.curvature_decay_residual(metric, m, Point3.of(r * d)).residual
                   for d in dirs)

    exact = sphere_max(pure, 20.0)
    lo, hi = sphere_max(bumpy, 20.0), sphere_max(bumpy, 40.0)
    ratio = hi / lo
    ok = exact < 1e-12 and 2.0 ** -4 / 1.5 <= ratio <= 2.0 ** -4 * 1.5
    _criterion("decay_model_fourth_order", ok,
               f"doubling radius scales residual by {ratio:.4f} "
               f"(2^-4 within factor 1.5), exact slice residual {exact:.1e}")


def test_c10_anisotropy_limit():
    f = sp.expression_potential("x1 + 0.5*ln(x2^2 + x3^2)", label="log graph")
    heights = [100.0, 140.0, 200.0, 280.0, 400.0, 560.0, 800.0]
    errs = {}
    for m in (2.0, -1.0):
        g = sp.schwarzschild(m)
        graph = sp.extract_zero_graph(f, g, sp.AnnulusRegion(50.0, 1000.0),
                                      n_u=4, n_v=8,
                                      bracket=(-10.0, 2.0))
        report = sp.anisotropy_limit(g, graph, heights)
        errs[m] = abs(report.extrapolated / (3.0 * m) - 1.0)
    _criterion("anisotropy_limit", all(e < 0.05 for e in errs.values()),
               ", ".join(f"mass {m:g}: rel {e:.2e}" for m, e in errs.items())
               + " (both < 5e-2)")


def test_c11_integral_identities():
    t0 = time.perf_counter()
    m = 1.0
    f = sp.schwarzschild_potential(m)
    shell = sp.integral_identity_check(f, sp.schwarzschild(m), 2.0, 40.0,
                                       rule=quadrature.sphere_rule(6, 12),
                                       n_panels=18, nodes_per_panel=8)
    full = sp.schwarzschild(m, exterior_only=False)
    balance = sp.capacity_balance_instance(m, f, full, r_outer=40.0,
                                           rule=quadrature.sphere_rule(6, 12),
                                           n_panels=18, nodes_per_panel=8,
                                           n_theta=6, n_phi=12)
    elapsed = time.perf_counter() - t0
    ok = (shell.relative_defect < 1e-5
          and balance.euler_characteristic == 2
          and abs(balance.boundary_gradient - 1.0 / (4.0 * m)) < 1e-8
          and balance.relative_gap < 0.02
          and elapsed < 30.0)
    _criterion("integral_identities", ok,
               f"shell defect {shell.relative_defect:.2e} (< 1e-5), capacity gap "
               f"{balance.relative_gap:.2e} (< 2e-2) with euler characteristic "
               f"{balance.euler_characteristic} and boundary factor "
               f"{balance.boundary_gradient:.8f}, {elapsed:.1f}s (< 30s)")


def test_c12_conformal_doubling():
    rng = np.random.default_rng(112)
    g = sp.schwarzschild(1.0)
    f = sp.schwarzschild_potential(1.0)
    worst = 0.0
    for p in _shell_points(rng, 50, 0.8, 15.0):
        worst = max(worst, abs(sp.conformal_double_scalar(f, g, 1, p)),
                    abs(sp.conformal_double_scalar(f, g, -1, p)))
    _criterion("conformal_doubling", worst < 1e-6,
               f"|scalar| max over both signs {worst:.2e} (< 1e-6)")


def test_c13_flow_classification():
    g = sp.schwarzschild(1.0)
    f = sp.schwarzschild_potential(1.0)
    budget = global_checks.FlowBudget(r_escape=700.0)
    worst_gap = 0.0
    total_violations = 0
    kinds = set()
    for start in [(0.6, 0.0, 0.0), (0.0, 0.8, 0.0), (0.7, -0.7, 0.5)]:
        trace = sp.flow_classify(f, g, Point3.of(start), budget)
        kinds.add(trace.classification)
        worst_gap = max(worst_gap, abs(trace.limit_estimate - 1.0))
        total_violations += trace.monotone_violations
    ok = (kinds == {global_checks.ESCAPE_TO_END}
          and worst_gap < 1e-3 and total_violations == 0)
    _criterion("flow_classification", ok,
               f"all traces escape, asymptotic value gap {worst_gap:.2e} "
               f"(< 1e-3), {total_violations} monotonicity violations (= 0)")


def test_c14_total_wall_time():
    elapsed = time.perf_counter() - _T0
    _criterion("acceptance_wall_time", elapsed < 600.0,
               f"{elapsed:.1f}s for the whole gate (< 600s)")
