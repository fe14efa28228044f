"""Differential and evaluation-count tests for the static-gated identities.

The eigenframe (Tod) identities, the Bochner identity, the quotient law and the
zero-set laws hold only where the static system does, so each runs the static
gate first. The gate's single pass already holds the curvature bundle and the
potential's value, gradient and covariant Hessian; the identities must read
them from it and give bit-identical results to the versions in
``reference_pointwise`` that evaluate them again. The geodesic transport
right-hand side likewise reads its Christoffels and Ricci tensor from one
curvature bundle, and the surface Christoffels are one contraction instead of a
loop.
"""

import sys

import numpy as np
import pytest

import staticpot as sp
from staticpot import geodesics, geometry, potentials, zeroset
from staticpot.geometry import PerturbationTerm, Point3

from .reference_pointwise import (reference_bochner_residual, reference_geodesic_rhs,
                                  reference_quotient_residual, reference_ricci_quadratic,
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
    """A half-space chart with two static potentials, N = x2^(2/3) and f = x1 N."""
    g = sp.generic_metric(
        lambda x1, x2, x3: [[x2 ** (4.0 / 3.0), 0.0, 0.0],
                            [0.0, 1.0 + 0.0 * x1, 0.0],
                            [0.0, 0.0, x2 ** (-2.0 / 3.0)]],
        label="warped half space", contains=lambda p: p.x2 > 1e-6)
    Nw = sp.from_callable(lambda x1, x2, x3: x2 ** (2.0 / 3.0), label="warped N")
    fw = sp.from_callable(lambda x1, x2, x3: x1 * x2 ** (2.0 / 3.0), label="warped f")
    return g, Nw, fw


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


@pytest.mark.parametrize("name", sorted(METRICS))
def test_quotient_residual_matches_reference(name):
    metric = METRICS[name]
    for p in _points(8):
        a = sp.quotient_residual(F, N, metric, p, static_tol=LOOSE)
        b = reference_quotient_residual(F, N, metric, p, static_tol=LOOSE)
        assert _same(a, b), (p, a, b)


def test_static_pairs_match_reference():
    # the identities at their default gate, on pairs that pass it
    g = sp.schwarzschild(1.5)
    for p in _points(6, seed=5):
        assert _same(sp.tod_identity_residuals(F, g, p),
                     reference_tod_identity_residuals(F, g, p))
        assert _bochner_close(F, g, p)
    warped, Nw, fw = _warped()
    for p in [Point3(0.5, 1.5, -0.2), Point3(2.0, 1.0, 0.0), Point3(-1.0, 3.0, 2.0)]:
        assert _same(sp.quotient_residual(fw, Nw, warped, p),
                     reference_quotient_residual(fw, Nw, warped, p))


@pytest.mark.parametrize("fn,ref,args", [
    # not static
    (sp.tod_identity_residuals, reference_tod_identity_residuals,
     (sp.affine(0, 1, 0, 0), METRICS["schwarzschild"], Point3(2.0, 0.0, 0.0))),
    (sp.bochner_residual, reference_bochner_residual,
     (sp.expression_potential("1 + x1*x1"), sp.euclidean(), Point3(1.0, 2.0, 0.0))),
    (sp.quotient_residual, reference_quotient_residual,
     (sp.expression_potential("x1*x1"), N, sp.euclidean(), Point3(1.0, 2.0, 0.5))),
    (sp.quotient_residual, reference_quotient_residual,
     (sp.affine(0, 1, 0, 0), sp.expression_potential("2 + x2*x2"), sp.euclidean(),
      Point3(1.0, 2.0, 0.5))),
    # zero potential, also where f is not static or the point is off the chart
    (sp.bochner_residual, reference_bochner_residual,
     (sp.expression_potential("x1"), sp.euclidean(), Point3(0.0, 1.0, 0.0))),
    (sp.bochner_residual, reference_bochner_residual,
     (sp.expression_potential("x1*x1"), sp.euclidean(), Point3(0.0, 1.0, 0.0))),
    (sp.bochner_residual, reference_bochner_residual,
     (sp.expression_potential("sqrt(x1)"), sp.euclidean(), Point3(0.0, 1.0, 0.0))),
    (sp.bochner_residual, reference_bochner_residual,
     (F, sp.schwarzschild(1.5), Point3(0.75, 0.0, 0.0))),
    (sp.quotient_residual, reference_quotient_residual,
     (F, sp.expression_potential("x1"), sp.euclidean(), Point3(-1.0, 1.0, 0.0))),
    (sp.quotient_residual, reference_quotient_residual,
     (sp.expression_potential("x1*x1"), sp.expression_potential("x2"), sp.euclidean(),
      Point3(1.0, 0.0, 0.0))),
])
def test_errors_match_reference(fn, ref, args):
    a, b = _outcome(fn, *args), _outcome(ref, *args)
    assert isinstance(a, tuple) and a == b


def _warped_strip():
    g, _, f = _warped()
    chart = zeroset.SurfaceChart(f, g, embed=lambda u, v, s: (s, u, v),
                                 bracket=lambda u, v: (-1.0, 1.0), label="strip")
    return f, g, chart, [(1.0, 0.0), (2.0, 1.0), (3.0, -2.0)], [0.02, 0.05, 0.08]


def _horizon():
    g = sp.schwarzschild(1.0, exterior_only=False)
    f = sp.schwarzschild_potential(1.0)
    comp = sp.extract_closed_component(f, g, (0.0, 0.0, 0.0), s_bracket=(0.25, 0.8),
                                       n_theta=6, n_phi=8)
    return f, g, comp.chart, [(0.8, 1.0), (1.5, 2.0), (2.0, 4.0)], [0.05, 0.05, 0.05]


@pytest.mark.parametrize("build", [_warped_strip, _horizon])
def test_zero_set_laws_match_reference(build):
    # |grad f|_g is grad @ inv(g) @ grad in the shared form, where the old
    # frame associated it as grad @ (inv(g) @ grad): a last-bit difference
    f, g, chart, samples, deltas = build()
    a = sp.zero_set_laws(f, g, chart, samples, deltas)
    b = reference_zero_set_laws(f, g, chart, samples, deltas)
    assert np.allclose(a.grad_norms, b.grad_norms, rtol=1e-14, atol=0.0)
    assert _same(a.k_values, b.k_values)
    for field in ("tangential_ricci_max", "eigen_residuals", "r11_r22_gaps",
                  "k_minus_2r11", "k_plus_r33"):
        x, y = getattr(a, field), getattr(b, field)
        scale = float(np.abs(a.k_values).max())
        assert np.allclose(x, y, rtol=1e-14, atol=1e-14 * scale), field


def test_zero_set_laws_errors_match_reference():
    f, g, chart, samples, deltas = _warped_strip()
    bent = sp.from_callable(lambda x1, x2, x3: x1 * x2 ** (2.0 / 3.0) + 1e-3 * x1 * x1,
                            label="bent f")
    bent_chart = zeroset.SurfaceChart(bent, g, embed=lambda u, v, s: (s, u, v),
                                      bracket=lambda u, v: (-1.0, 1.0), label="bent")
    a = _outcome(sp.zero_set_laws, bent, g, bent_chart, samples, deltas, static_tol=1e-12)
    b = _outcome(reference_zero_set_laws, bent, g, bent_chart, samples, deltas,
                 static_tol=1e-12)
    assert isinstance(a, tuple) and a[0] is sp.NotStaticError and a == b


def test_surface_christoffel_matches_loop():
    rng = np.random.default_rng(11)
    for _ in range(2000):
        a = rng.normal(size=(2, 2))
        sig = a @ a.T + 0.1 * np.eye(2)
        d_u, d_v = (0.5 * (m + m.T) for m in rng.normal(size=(2, 2, 2)) * 10.0 ** rng.uniform(-3, 3))
        assert _same(zeroset._surface_christoffel(sig, d_u, d_v),
                     reference_surface_christoffel(sig, d_u, d_v))


@pytest.mark.parametrize("name", sorted(METRICS))
def test_transport_rhs_matches_reference(name):
    metric = METRICS[name]
    rng = np.random.default_rng(7)
    for p in _points(10, seed=9):
        y = np.concatenate([p.as_array(), rng.normal(size=3), rng.normal(size=2)])
        for transport in (False, True):
            yy = y if transport else y[:6]
            a = geodesics._rhs(metric, transport)(0.0, yy)
            b = reference_geodesic_rhs(metric, transport)(0.0, yy)
            assert _same(a, b), (p, transport)


@pytest.mark.parametrize("name", sorted(METRICS))
def test_transported_geodesic_matches_reference(name, monkeypatch):
    metric = METRICS[name]
    start = sp.launch_state(metric, Point3(6.0, 2.0, -1.0), (-0.4, 1.0, 0.3),
                            f_value=0.8, f_slope=0.05)
    new = sp.integrate_geodesic(metric, start, 6.0, n_samples=20, transport=True)
    monkeypatch.setattr(geodesics, "_rhs", reference_geodesic_rhs)
    old = sp.integrate_geodesic(metric, start, 6.0, n_samples=20, transport=True)
    assert _same(new.positions, old.positions)
    assert _same(new.f_values, old.f_values)
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
    sp.tod_identity_residuals(F, METRICS["schwarzschild"], Point3(3.0, 1.0, -2.0))
    assert counts == {"curvature_at": 1, "ricci_with_derivative": 1}


def test_bochner_reads_connection_and_metric_from_gate(counts):
    sp.bochner_residual(F, METRICS["schwarzschild"], Point3(3.0, 1.0, -2.0))
    assert counts.get("christoffel_at", 0) == 0 and counts.get("matrix", 0) == 0
    assert counts["curvature_at"] == 1


def test_zero_set_laws_one_curvature_per_sample(counts):
    f, g, chart, samples, deltas = _warped_strip()
    sp.zero_set_laws(f, g, chart, samples[:1], deltas[:1])
    assert counts["curvature_at"] == 1


def test_zero_set_laws_frame_reads_the_static_pass(counts):
    # the adapted frame takes g and grad f from the static pass: past the
    # intrinsic curvature stencils, no metric or gradient evaluation is left,
    # and the whole sample set takes one curvature pass
    f, g, chart, samples, deltas = _warped_strip()
    us, vs = np.array(samples).T
    zeroset.gaussian_curvature(chart, us, vs, np.array(deltas))
    stencils = dict(counts)
    counts.clear()
    sp.zero_set_laws(f, g, chart, samples, deltas)
    assert counts.get("matrix", 0) == stencils.get("matrix", 0) == 1
    assert counts.get("gradient", 0) == stencils.get("gradient", 0) == 0
    assert counts["curvature_at"] == 1


def test_zero_set_laws_reports_a_critical_zero_set_before_the_gate():
    # grad f vanishes on x1 = 0 and f = x1^2 is not static: the frame's
    # CriticalOnZeroSetError comes first, as in the reference
    f, g, chart, samples, deltas = _warped_strip()
    flat = sp.from_callable(lambda x1, x2, x3: x1 * x1 + 0.0 * x2, label="flat f")
    a = _outcome(sp.zero_set_laws, flat, g, chart, samples[:1], deltas[:1])
    b = _outcome(reference_zero_set_laws, flat, g, chart, samples[:1], deltas[:1])
    assert isinstance(a, tuple) and a[0] is sp.CriticalOnZeroSetError and a == b


def test_transport_rhs_one_curvature_per_stage(counts):
    y = np.array([4.0, 1.0, -2.0, 0.3, -0.5, 0.2, 1.0, 0.1])
    geodesics._rhs(METRICS["perturbed_as"], True)(0.0, y)
    assert counts.get("curvature_at", 0) == 1 and counts.get("christoffel_at", 0) == 0
