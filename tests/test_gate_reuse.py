"""Differential and evaluation-count tests for the static-gated identities.

The eigenframe (Tod) identities, the Bochner identity and the zero-set laws
hold only where the static system does, so each runs the static
gate first. The gate's single pass already holds the curvature bundle and the
potential's value, gradient and covariant Hessian; the identities must read
them from it and give bit-identical results to the versions in
``reference_pointwise`` that evaluate them again. The geodesic transport
right-hand side contracts Gamma(v, v) and Ric(v, v) from one jet evaluation of
the metric, without a curvature bundle; it matches the reference, which reads
them off ``christoffel_at`` and ``curvature_at``, to roundoff (1e-14
relative). The gradient flow's stage reads g and the gradient of f from one
component pass and one depth-1 jet; it gives the same bytes as the batched
read-outs of the reference, stage by stage and over a whole flow; its
critical-point event takes the last stage's read at an accepted step's end,
one read fewer per step, with the same trace. The surface Christoffels are one
contraction instead of a loop.
"""

import sys
from dataclasses import replace

import numpy as np
import pytest

import staticpot as sp
from staticpot import geodesics, geometry, global_checks, jets, potentials, quadrature, zeroset
from staticpot.geometry import PerturbationTerm, Point3
from staticpot.potentials import _norm_g

from .reference_pointwise import (reference_bochner_residual, reference_flow_rhs,
                                  reference_flow_terms, reference_geodesic_rhs,
                                  reference_ricci_quadratic, unbounded,
                                  reference_surface_christoffel,
                                  reference_tod_identity_residuals, reference_zero_set_laws)

LOOSE = 1e12  # a gate every sample passes, so non-static pairs still run the identities
_Q = np.array([[0.36, 0.48, -0.8], [-0.8, 0.6, 0.0], [0.48, 0.64, 0.6]])


def _metrics():
    bumpy = sp.perturbed_as(1.0, [PerturbationTerm(0, 0, 0.4, (1, 0, 0)),
                                  PerturbationTerm(0, 1, 0.3, (0, 0, 1)),
                                  PerturbationTerm(2, 2, -0.5, (1, 1, 0))])
    return {"schwarzschild": sp.schwarzschild(1.5),
            "perturbed_as": bumpy,
            "rotate_chart": sp.rotate_chart(bumpy, _Q)}


METRICS = _metrics()
F = sp.schwarzschild_potential(1.5)
N = sp.expression_potential("3 + 0.2*x1 - 0.1*x2*x3/r", label="shifted")


def _warped():
    """A half-space chart with the static potential f = x1 x2^(2/3)."""
    g = sp.generic_metric(
        lambda x1, x2, x3: [[x2 ** (4.0 / 3.0), 0.0, 0.0],
                            [0.0, 1.0 + 0.0 * x1, 0.0],
                            [0.0, 0.0, x2 ** (-2.0 / 3.0)]],
        label="warped half space", boundary_margin=lambda p: p.x2 - 1e-6)
    fw = sp.PotentialField(lambda x1, x2, x3: x1 * x2 ** (2.0 / 3.0), label="warped f")
    return g, fw


def _points(n=12, seed=3):
    return geometry.sample_shell(np.random.default_rng(seed), n, 2.5, 12.0)


def _same(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the class and message must match, whatever it is
        return (type(exc), str(exc))


@pytest.mark.parametrize("name", sorted(METRICS))
def test_tod_residuals_match_reference(name):
    metric = METRICS[name]
    for p in _points():
        a = sp.tod_identity_residuals(F, metric, p, static_tol=LOOSE)
        b = reference_tod_identity_residuals(F, metric, p, static_tol=LOOSE)
        assert _same(a, b), (p, a, b)


def _bochner_close(f, metric, p, **kwargs):
    """bochner_residual within 1e-14 of the reference's object-array jet path.

    The scale is |Hess f|_g^2, one of the terms whose balance the residual
    measures, so a static pair (residual at roundoff) is compared fairly.
    """
    a = sp.bochner_residual(f, metric, p, **kwargs)
    b = reference_bochner_residual(f, metric, p, **kwargs)
    gate = sp.static_residual(f, metric, p)
    ginv = np.linalg.inv(gate.curvature.metric_matrix)
    H = gate.covariant_hessian
    scale = max(abs(b), float(np.einsum("ik,jl,ij,kl->", ginv, ginv, H, H)))
    return isinstance(a, float) and abs(a - b) <= 1e-14 * scale


@pytest.mark.parametrize("name", sorted(METRICS))
def test_bochner_residual_matches_reference(name):
    metric = METRICS[name]
    for p in _points(8):
        for f in (F, N):
            assert _bochner_close(f, metric, p, static_tol=LOOSE), (p, f.label)


def test_static_pairs_match_reference():
    # the identities at their default gate, on pairs that pass it
    g = sp.schwarzschild(1.5)
    for p in _points(6, seed=5):
        assert _same(sp.tod_identity_residuals(F, g, p),
                     reference_tod_identity_residuals(F, g, p))
        assert _bochner_close(F, g, p)


@pytest.mark.parametrize("fn,ref,args", [
    # not static
    (sp.tod_identity_residuals, reference_tod_identity_residuals,
     (sp.affine(0, 1, 0, 0), METRICS["schwarzschild"], Point3(2.0, 0.0, 0.0))),
    (sp.bochner_residual, reference_bochner_residual,
     (sp.expression_potential("1 + x1*x1"), sp.euclidean(), Point3(1.0, 2.0, 0.0))),
    (sp.tod_identity_residuals, reference_tod_identity_residuals,
     (N, METRICS["perturbed_as"], Point3(3.0, 1.0, -2.0))),
    (sp.bochner_residual, reference_bochner_residual,
     (N, METRICS["schwarzschild"], Point3(3.0, 1.0, -2.0))),
    # zero potential, also where f is not static or the point is off the chart
    (sp.bochner_residual, reference_bochner_residual,
     (sp.expression_potential("x1"), sp.euclidean(), Point3(0.0, 1.0, 0.0))),
    (sp.bochner_residual, reference_bochner_residual,
     (sp.expression_potential("x1*x1"), sp.euclidean(), Point3(0.0, 1.0, 0.0))),
    (sp.bochner_residual, reference_bochner_residual,
     (sp.expression_potential("sqrt(x1)"), sp.euclidean(), Point3(0.0, 1.0, 0.0))),
    (sp.bochner_residual, reference_bochner_residual,
     (F, sp.schwarzschild(1.5), Point3(0.75, 0.0, 0.0))),
])
def test_errors_match_reference(fn, ref, args):
    a, b = _outcome(fn, *args), _outcome(ref, *args)
    assert isinstance(a, tuple) and a == b


def _warped_strip():
    g, f = _warped()
    chart = zeroset.SurfaceChart(f, g, embed=lambda u, v, s: (s, u, v),
                                 bracket=(-1.0, 1.0), label="strip")
    return f, g, chart, [(1.0, 0.0), (2.0, 1.0), (3.0, -2.0)]


def _horizon():
    g = sp.schwarzschild(1.0, exterior_only=False)
    f = sp.schwarzschild_potential(1.0)
    comp = sp.extract_closed_component(f, g, (0.0, 0.0, 0.0), s_bracket=(0.25, 0.8),
                                       n_theta=6, n_phi=8)
    return f, g, comp.chart, [(0.8, 1.0), (1.5, 2.0), (2.0, 4.0)]


@pytest.mark.parametrize("build", [_warped_strip, _horizon])
def test_zero_set_laws_match_reference(build):
    # |grad f|_g is grad @ inv(g) @ grad in the shared form, where the old
    # frame associated it as grad @ (inv(g) @ grad): a last-bit difference
    f, g, chart, samples = build()
    a = sp.zero_set_laws(f, g, chart, samples)
    b = reference_zero_set_laws(f, g, chart, samples)
    assert np.allclose(a.grad_norms, b.grad_norms, rtol=1e-14, atol=0.0)
    assert _same(a.k_values, b.k_values)
    for field in ("tangential_ricci_max", "eigen_residuals", "r11_r22_gaps",
                  "k_minus_2r11", "k_plus_r33"):
        x, y = getattr(a, field), getattr(b, field)
        scale = float(np.abs(a.k_values).max())
        assert np.allclose(x, y, rtol=1e-14, atol=1e-14 * scale), field


def test_zero_set_laws_errors_match_reference():
    f, g, chart, samples = _warped_strip()
    bent = sp.PotentialField(lambda x1, x2, x3: x1 * x2 ** (2.0 / 3.0) + 1e-3 * x1 * x1,
                             label="bent f")
    bent_chart = zeroset.SurfaceChart(bent, g, embed=lambda u, v, s: (s, u, v),
                                      bracket=(-1.0, 1.0), label="bent")
    a = _outcome(sp.zero_set_laws, bent, g, bent_chart, samples, static_tol=1e-12)
    b = _outcome(reference_zero_set_laws, bent, g, bent_chart, samples, static_tol=1e-12)
    assert isinstance(a, tuple) and a[0] is sp.NotStaticError and a == b


def test_surface_christoffel_matches_loop():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        a = rng.normal(size=(2, 2))
        sig = a @ a.T + 0.1 * np.eye(2)
        d_u, d_v = (0.5 * (m + m.T) for m in rng.normal(size=(2, 2, 2)) * 10.0 ** rng.uniform(-3, 3))
        assert _same(zeroset._surface_christoffel(sig, np.stack((d_u, d_v))),
                     reference_surface_christoffel(sig, d_u, d_v))


def _rhs_close(metric, y, transport):
    """``geodesics._rhs`` within 1e-14 of the per-point reference.

    The acceleration is scaled by max|Gamma| |v|^2, the transport slope by
    max|Ric| |v|^2 |u|, from the reference's curvature bundle; position,
    velocity and slope entries are copied, so they must match exactly.
    """
    yy = y if transport else y[:6]
    a = geodesics._rhs(metric, transport)(0.0, yy)
    b = reference_geodesic_rhs(metric, transport)(0.0, yy)
    bundle = sp.curvature_at(unbounded(metric), Point3(*y[:3]))
    vv = float(y[3:6] @ y[3:6])
    if a.shape != b.shape or not _same(a[:3], b[:3]):
        return False
    if abs(a[3:6] - b[3:6]).max() > 1e-14 * np.abs(bundle.gamma).max() * vv:
        return False
    return not transport or (a[6] == b[6] and abs(a[7] - b[7])
                             <= 1e-14 * np.abs(bundle.ricci).max() * vv * abs(y[6]))


@pytest.mark.parametrize("name", sorted(METRICS))
def test_transport_rhs_matches_reference(name):
    # the stage contracts Gamma(v, v) and Ric(v, v) from the metric's jets;
    # the reference reads them off christoffel_at and curvature_at
    metric = METRICS[name]
    rng = np.random.default_rng(7)
    for p in _points(10, seed=9):
        y = np.concatenate([p.as_array(), rng.normal(size=3), rng.normal(size=2)])
        for transport in (False, True):
            assert _rhs_close(metric, y, transport), (p, transport)


def _sin_log_metric():
    """A non-conformal metric whose entries go through jets.sin and jets.log."""
    def comps(x1, x2, x3):
        g01 = 0.2 * jets.log(3.0 + x3 * x3)
        g02 = 0.1 * jets.sin(x1 + x3)
        g12 = 0.15 * jets.sin(x2 - 0.5 * x3)
        return [[2.0 + 0.3 * jets.sin(x1 * x2), g01, g02],
                [g01, 1.5 + 0.2 * jets.log(1.0 + x1 * x1 + x2 * x2), g12],
                [g02, g12, 1.0 + 0.25 * jets.sin(x3) * jets.sin(x3)]]

    return sp.generic_metric(comps, label="sin-log")


@pytest.mark.parametrize("build", ["warped", "sin_log"])
def test_transport_rhs_matches_reference_off_the_families(build):
    # fractional powers (the warped half space) and sin/log entries
    metric = _warped()[0] if build == "warped" else _sin_log_metric()
    rng = np.random.default_rng(13)
    for _ in range(12):
        x = rng.uniform(-1.5, 1.5, size=3)
        x[1] = abs(x[1]) + 0.2
        y = np.concatenate([x, rng.normal(size=3), rng.normal(size=2)])
        for transport in (False, True):
            assert _rhs_close(metric, y, transport), (x, transport)


def test_transport_rhs_on_flat_space_is_exact():
    # constant entries: no jet carries a derivative, so both terms are exactly 0
    y = np.array([1.0, -2.0, 0.5, 0.3, -0.7, 0.2, 1.5, -0.4])
    assert np.array_equal(geodesics._rhs(sp.euclidean(), False)(0.0, y[:6]),
                          np.concatenate([y[3:6], np.zeros(3)]))
    assert np.array_equal(geodesics._rhs(sp.euclidean(), True)(0.0, y),
                          np.concatenate([y[3:6], np.zeros(3), [y[7], 0.0]]))
    (a, h) = geometry._geodesic_terms(sp.euclidean(), (1.0, -2.0, 0.5), (0.3, -0.7, 0.2), True)
    assert a == (0.0, 0.0, 0.0) and h == 0.0


@pytest.mark.parametrize("transport", [False, True])
def test_transport_rhs_rejects_a_singular_metric(transport):
    # the stage keeps curvature_at's positive-definiteness check: same class,
    # same message, also with the domain check off
    metric = sp.generic_metric(lambda x1, x2, x3: [[x1, 0.0, 0.0], [0.0, 1.0 + 0.0 * x2, 0.0],
                                                   [0.0, 0.0, 1.0 + 0.0 * x3]],
                               label="signature change")
    y = np.array([-0.5, 1.0, 2.0, 0.3, 0.4, 0.5, 1.0, 0.0])
    yy = y if transport else y[:6]
    a = _outcome(geodesics._rhs(metric, transport), 0.0, yy)
    b = _outcome(reference_geodesic_rhs(metric, transport), 0.0, yy)
    assert isinstance(a, tuple) and a[0] is sp.SingularMetricError and a == b


@pytest.mark.parametrize("name", sorted(METRICS))
def test_transported_geodesic_matches_reference(name, monkeypatch):
    # DOP853 on the contracted stage against the same solve on the reference
    # stage: the two right-hand sides agree to roundoff, not bit for bit
    metric = METRICS[name]
    start = replace(sp.launch_state(metric, Point3(6.0, 2.0, -1.0), (-0.4, 1.0, 0.3)),
                    f_value=0.8, f_slope=0.05)
    new = sp.integrate_geodesic(metric, start, 6.0, n_samples=20, transport=True)
    monkeypatch.setattr(geodesics, "_rhs", reference_geodesic_rhs)
    old = sp.integrate_geodesic(metric, start, 6.0, n_samples=20, transport=True)
    assert np.abs(new.positions - old.positions).max() <= 1e-14 * np.abs(old.positions).max()
    assert np.abs(new.f_values - old.f_values).max() <= 1e-14 * np.abs(old.f_values).max()
    drift = 0.0
    for s in old.states:
        g = metric.matrix(Point3(*s.position))
        drift = max(drift, abs(float(s.velocity @ g @ s.velocity) - 1.0))
    # the samples are evaluated in one batched curvature pass, which rounds its
    # contractions differently from the per-point loop in the last bits
    h_ref = np.array([reference_ricci_quadratic(metric, s.position, s.velocity)
                      for s in old.states])
    assert np.max(np.abs(new.h_values - h_ref)) <= 1e-14 * np.max(np.abs(h_ref))
    assert abs(new.max_speed_drift - drift) <= 1e-14


@pytest.mark.parametrize("metric, f", [("schwarzschild", F), ("perturbed_as", N)])
def test_flow_trace_samples_match_per_sample_loop(metric, f):
    # the trace reads all its samples in one batched potential and metric pass
    metric = METRICS[metric]
    trace = sp.flow_classify(f, metric, Point3(3.0, 1.0, -2.0),
                             global_checks.FlowBudget(r_escape=20.0))
    assert trace.classification == global_checks.ESCAPE_TO_END and len(trace.samples) > 10
    for s in trace.samples:
        p = Point3(*s.position)
        assert s.f_value == f.value(p)
        assert s.grad_norm == _norm_g(metric.matrix(p), f.gradient(p))


def _flow_cases():
    """(metric, potential) pairs for the flow stage: the shipped flow and its
    two controls, perfbench's two-term perturbation, a rotated chart and a
    constant potential, whose expression returns no jet."""
    two_term = sp.perturbed_as(1.0, [PerturbationTerm(0, 0, 0.3, (0, 0, 0)),
                                     PerturbationTerm(1, 2, 0.2, (1, 1, 0))])
    return {
        "schwarzschild": (sp.schwarzschild(1.0), sp.schwarzschild_potential(1.0)),
        "sink": (sp.euclidean(),
                 sp.expression_potential("-(x1*x1 + x2*x2 + x3*x3)", label="sink")),
        "affine": (sp.euclidean(), sp.affine(0.5, 1.0, -2.0, 3.0)),
        "perturbed_as": (two_term, sp.schwarzschild_potential(1.0)),
        "rotate_chart": (METRICS["rotate_chart"], N),
        "constant": (sp.schwarzschild(1.0), sp.PotentialField(lambda x1, x2, x3: 2.5)),
    }


FLOW_CASES = _flow_cases()


@pytest.mark.parametrize("name", sorted(FLOW_CASES))
def test_flow_stage_bytes_match_the_batched_readout(name):
    metric, f = FLOW_CASES[name]
    rhs, ref = global_checks._flow_rhs(metric, f), reference_flow_rhs(metric, f)
    # state rows of a 2-D array hold numpy scalars, as the solver's lanes do
    rows = np.array([p.coords() for p in _points(24, seed=11)])
    for y in rows:
        g, grad = global_checks._flow_terms(metric, f, y)
        g_ref, grad_ref = reference_flow_terms(metric, f, y)
        assert _same(g, g_ref) and _same(grad, grad_ref)
        assert rhs(0.0, y).tobytes() == ref(0.0, y).tobytes()
        critical = _norm_g(g, grad) - global_checks._FLOW_GRAD_FLOOR
        critical_ref = _norm_g(g_ref, grad_ref) - global_checks._FLOW_GRAD_FLOOR
        assert np.float64(critical).tobytes() == np.float64(critical_ref).tobytes()


@pytest.mark.parametrize("name, start, budget", [
    ("schwarzschild", Point3(3.0, 1.0, -2.0), global_checks.FlowBudget(r_escape=20.0)),
    ("sink", Point3(1.0, 0.0, 0.0), global_checks.FlowBudget(r_escape=50.0, t_max=50.0)),
    ("affine", Point3(0.1, 0.0, 0.0), global_checks.FlowBudget(r_escape=25.0, t_max=1e4)),
])
def test_flow_trace_bytes_match_the_batched_readout(name, start, budget, monkeypatch):
    # every stage and event of the solve reads the same floats, so the solver
    # takes the same steps and the trace is the same, sample for sample
    metric, f = FLOW_CASES[name]
    new = global_checks.flow_classify(f, metric, start, budget)
    monkeypatch.setattr(global_checks, "_flow_terms", reference_flow_terms)
    old = global_checks.flow_classify(f, metric, start, budget)
    assert (new.classification, new.interval, new.limit_estimate, new.monotone_violations) == \
        (old.classification, old.interval, old.limit_estimate, old.monotone_violations)
    assert len(new.samples) == len(old.samples) > 2
    for a, b in zip(new.samples, old.samples):
        assert _same([a.t, a.f_value, a.grad_norm, *a.position],
                     [b.t, b.f_value, b.grad_norm, *b.position])


def test_critical_event_reuses_the_last_stage_read(monkeypatch):
    # the shipped flow: at each accepted step's end the critical-point event
    # takes the inv(g) and grad the step's last stage has just read, so a read
    # per accepted step goes and the trace stays the same, byte for byte
    f, metric = potentials.schwarzschild_potential(1.0), sp.schwarzschild(1.0)
    start, budget = Point3(0.6, 0.0, 0.0), global_checks.FlowBudget(r_escape=700.0)
    reads, lanes = [], []
    terms, solve = global_checks._flow_terms, global_checks.solve_ivp

    def spy(*args, **kwargs):
        sol = solve(*args, **kwargs)
        lanes.append(sol.lanes[0])
        return sol

    monkeypatch.setattr(global_checks, "_flow_terms", lambda *a: reads.append(1) or terms(*a))
    monkeypatch.setattr(global_checks, "solve_ivp", spy)

    new = global_checks.flow_classify(f, metric, start, budget)
    n_new = len(reads)
    reads.clear()

    def fresh_reader(metric, f):   # every read evaluates again, as the event did
        def read(y):
            g, grad = global_checks._flow_terms(metric, f, y)
            return np.linalg.inv(g), grad
        return read

    monkeypatch.setattr(global_checks, "_flow_reader", fresh_reader)
    old = global_checks.flow_classify(f, metric, start, budget)
    n_old = len(reads)

    accepted = len(lanes[0].t) - 1
    assert new.classification == global_checks.ESCAPE_TO_END and accepted > 50
    assert n_old - n_new == accepted
    assert (new.classification, new.interval, new.limit_estimate, new.monotone_violations) == \
        (old.classification, old.interval, old.limit_estimate, old.monotone_violations)
    assert len(new.samples) == len(old.samples)
    for a, b in zip(new.samples, old.samples):
        assert _same([a.t, a.f_value, a.grad_norm, *a.position],
                     [b.t, b.f_value, b.grad_norm, *b.position])


### Evaluation counts


def _count(monkeypatch, fn, counts, key):
    """Count calls of ``fn`` wherever a staticpot module looks it up."""

    def counted(*args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return fn(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("staticpot"):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)


def _count_method(monkeypatch, cls, attr, counts, key):
    fn = getattr(cls, attr)

    def counted(self, *args, **kwargs):
        counts[key] = counts.get(key, 0) + 1
        return fn(self, *args, **kwargs)

    monkeypatch.setattr(cls, attr, counted)


@pytest.fixture
def counts(monkeypatch):
    out = {}
    for fn in (geometry.curvature_at, geometry.christoffel_at,
               geometry.ricci_with_derivative):
        _count(monkeypatch, fn, out, fn.__name__)
    _count_method(monkeypatch, geometry.MetricField, "matrix", out, "matrix")
    for attr in ("value", "gradient"):
        _count_method(monkeypatch, potentials.PotentialField, attr, out, attr)
    return out


def test_tod_evaluates_each_point_once(counts):
    # the gate reads the depth-3 pass that also gives the Ricci derivative
    sp.tod_identity_residuals(F, METRICS["schwarzschild"], Point3(3.0, 1.0, -2.0))
    assert counts == {"ricci_with_derivative": 1}


def test_tod_batch_takes_one_curvature_pass(counts):
    sp.tod_identity_residuals(F, METRICS["perturbed_as"], Point3.stack(_points(6)),
                              static_tol=LOOSE)
    assert counts == {"ricci_with_derivative": 1}


def test_bochner_reads_connection_and_metric_from_gate(counts):
    sp.bochner_residual(F, METRICS["schwarzschild"], Point3(3.0, 1.0, -2.0))
    assert counts.get("christoffel_at", 0) == 0 and counts.get("matrix", 0) == 0
    assert counts["curvature_at"] == 1


def test_bochner_evaluates_the_metric_once(monkeypatch):
    # dg and d2g come from the gate's curvature bundle, not a second jet pass
    taylor = {}
    _count(monkeypatch, geometry._metric_taylor, taylor, "_metric_taylor")
    sp.bochner_residual(F, METRICS["perturbed_as"], Point3(3.0, 1.0, -2.0), static_tol=LOOSE)
    assert taylor == {"_metric_taylor": 1}


def test_flow_trace_evaluates_the_potential_once(counts):
    # the solver reads gradients only; the samples take one batched value pass
    sp.flow_classify(F, METRICS["schwarzschild"], Point3(3.0, 1.0, -2.0),
                     global_checks.FlowBudget(r_escape=20.0))
    assert counts["value"] == 1


def test_quadrature_drivers_group_panels_into_one_curvature_pass(counts):
    # four panels of 3 radii times 18 directions, 216 nodes: within one pass
    g, rule = METRICS["perturbed_as"], sp.sphere_rule(3, 6)
    rs, _ = sp.radial_panels(3.0, 9.0, 4, 3)
    sp.volume_integral(g, lambda b: b.scalar, 3.0, 9.0, rule, n_panels=4, nodes_per_panel=3)
    assert len(rs) == 4 * 3 and len(rs) * rule.count <= quadrature._PASS_NODES
    assert counts == {"curvature_at": 1}
    counts.clear()
    sp.flux_integral(g, lambda b: b.ricci[..., 0], 3.0, rule)
    assert counts == {"curvature_at": 1}


def test_integral_identity_check_takes_one_gate_and_flux_pass(counts):
    # perfbench's SHELL_BALANCE sizes: four 192-node panels, one pass each, and
    # one pass for the gate's three probes and the two 32-node spheres
    g, f = sp.schwarzschild(1.0), sp.schwarzschild_potential(1.0)
    sp.integral_identity_check(f, g, 2.0, 40.0, rule=sp.sphere_rule(4, 8), n_panels=4,
                               nodes_per_panel=6)
    assert counts["curvature_at"] == 1 + 4


def test_integral_identity_gate_error_matches_probe_loop():
    # the three static-gate probes run as one batch; a non-static f must fail
    # with the error the first failing probe gives on its own
    g, f = sp.schwarzschild(1.0), sp.schwarzschild_potential(2.0)
    r_inner, r_outer = 2.0, 10.0
    want = None
    for k in range(3):
        rr = r_inner * (r_outer / r_inner) ** ((k + 0.5) / 3.0)
        d = (np.array([1.0, 1.0, 1.0]) / np.sqrt(3.0) if k % 2
             else np.array([1.0, -0.5, 0.25]) / np.linalg.norm([1.0, -0.5, 0.25]))
        want = _outcome(sp.require_static, f, g, Point3.of(rr * d))
        if isinstance(want, tuple):
            break
    assert isinstance(want, tuple) and want[0] is sp.NotStaticError
    got = _outcome(sp.integral_identity_check, f, g, r_inner, r_outer,
                   rule=sp.sphere_rule(3, 6), n_panels=2, nodes_per_panel=2)
    assert got == want


def test_zero_set_laws_one_curvature_per_sample(counts):
    f, g, chart, samples = _warped_strip()
    sp.zero_set_laws(f, g, chart, samples[:1])
    assert counts["curvature_at"] == 1


def test_zero_set_laws_frame_reads_the_static_pass(counts):
    # the adapted frame takes g and grad f from the static pass: past the
    # intrinsic curvature's one metric check, no metric or gradient evaluation
    # is left, and the whole sample set takes one curvature pass
    f, g, chart, samples = _warped_strip()
    us, vs = np.array(samples).T
    zeroset.gaussian_curvature(chart, us, vs)
    intrinsic = dict(counts)
    counts.clear()
    sp.zero_set_laws(f, g, chart, samples)
    assert counts.get("matrix", 0) == intrinsic.get("matrix", 0) == 1
    assert counts.get("gradient", 0) == intrinsic.get("gradient", 0) == 0
    assert counts["curvature_at"] == 1


def test_zero_set_laws_reports_a_critical_zero_set_before_the_gate():
    # grad f vanishes on x1 = 0 and f = x1^2 is not static: the frame's
    # CriticalOnZeroSetError comes first, as in the reference
    f, g, chart, samples = _warped_strip()
    flat = sp.PotentialField(lambda x1, x2, x3: x1 * x1 + 0.0 * x2, label="flat f")
    a = _outcome(sp.zero_set_laws, flat, g, chart, samples[:1])
    b = _outcome(reference_zero_set_laws, flat, g, chart, samples[:1])
    assert isinstance(a, tuple) and a[0] is sp.CriticalOnZeroSetError and a == b


STAGE_METRICS = {
    "perturbed_as": METRICS["perturbed_as"],
    "schwarzschild(1)": sp.schwarzschild(1.0),
    # the two-term perturbation of the benchmark's geodesic workload
    "perturbed_as(2 terms)": sp.perturbed_as(1.0, [PerturbationTerm(0, 0, 0.3, (0, 0, 0)),
                                                   PerturbationTerm(1, 2, 0.2, (1, 1, 0))]),
}


def _count_numpy(monkeypatch, counts):
    """Count the positive-definiteness test's numpy calls: eigvalsh and isfinite."""
    for mod, attr in ((np.linalg, "eigvalsh"), (np, "isfinite")):
        fn = getattr(mod, attr)

        def counted(*args, _fn=fn, _key=attr, **kwargs):
            counts[_key] = counts.get(_key, 0) + 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(mod, attr, counted)


@pytest.mark.parametrize("name", sorted(STAGE_METRICS))
@pytest.mark.parametrize("transport", [False, True])
def test_transport_rhs_one_metric_jet_pass_per_stage(counts, monkeypatch, transport, name):
    # one components evaluation on jets (depth 2 with transport, 1 without),
    # no curvature bundle or Christoffel array, and a metric check that the
    # Gershgorin bound decides without eigvalsh or isfinite
    metric = STAGE_METRICS[name]
    depths = []

    def components(*xs):
        depths.append(type(xs[0]))
        return metric.components(*xs)

    y = np.array([4.0, 1.0, -2.0, 0.3, -0.5, 0.2, 1.0, 0.1])
    rhs = geodesics._rhs(replace(metric, components=components), transport)
    _count_numpy(monkeypatch, counts)
    rhs(0.0, y if transport else y[:6])
    assert depths == [jets.Jet2 if transport else jets.Jet]
    assert counts == {}


def _not_dominant_metric():
    """Positive definite (smallest eigenvalue near 0.1) but no row diagonally
    dominant: the Gershgorin bound cannot certify it."""
    def comps(x1, x2, x3):
        off = 0.9 + 0.01 * jets.sin(x1 * x2)
        return [[1.0 + 0.02 * x3 * x3, off, 0.9],
                [off, 1.0 + 0.01 * x1 * x1, 0.9 + 0.01 * x2],
                [0.9, 0.9 + 0.01 * x2, 1.05]]

    return sp.generic_metric(comps, label="not dominant")


@pytest.mark.parametrize("transport", [False, True])
def test_transport_rhs_falls_back_once_on_a_metric_the_bound_cannot_certify(
        monkeypatch, transport):
    # exactly one eigvalsh test per stage decides, and it changes no byte of
    # the stage: the same stage with the check switched off agrees
    metric = _not_dominant_metric()
    y = np.array([0.4, -0.3, 0.5, 0.3, -0.5, 0.2, 1.0, 0.1])
    yy = y if transport else y[:6]
    g = metric.matrix(Point3(*y[:3]))
    assert not geometry._dominant(*g.ravel().tolist()) and np.linalg.eigvalsh(g)[0] > 0.05
    rhs = geodesics._rhs(metric, transport)
    checks, counts = [], {}
    real_check = geometry._check_positive
    monkeypatch.setattr(geometry, "_check_positive",
                        lambda *args: checks.append(1) or real_check(*args))
    _count_numpy(monkeypatch, counts)
    out = rhs(0.0, yy)
    assert checks == [1] and counts == {"eigvalsh": 1, "isfinite": 1}
    monkeypatch.setattr(geometry, "_dominant", lambda *args: True)
    assert _same(out, rhs(0.0, yy))


@pytest.mark.parametrize("name", ["perturbed_as", "constant"])
def test_flow_stage_one_component_and_one_expr_pass(counts, monkeypatch, name):
    # one components call on Python floats and one expr call on depth-1 jets;
    # no batched read-out of the metric or of the potential
    metric, f = FLOW_CASES[name]
    for fn in (jets.taylor, geometry._metric_taylor):
        _count(monkeypatch, fn, counts, fn.__name__)
    calls = []

    def components(*xs):
        calls.append(("components", *map(type, xs)))
        return metric.components(*xs)

    def expr(*xs):
        calls.append(("expr", *map(type, xs)))
        return f.expr(*xs)

    y = np.array([[4.0, 1.0, -2.0]])[0]
    global_checks._flow_rhs(replace(metric, components=components), replace(f, expr=expr))(0.0, y)
    assert calls == [("components", float, float, float), ("expr", jets.Jet, jets.Jet, jets.Jet)]
    assert counts == {}
