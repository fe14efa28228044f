"""Differential tests: the batched curvature path against the pointwise reference.

The reference (``reference_pointwise``) is a frozen copy of the scalar
list-based assembler and of the node-by-node quadrature drivers. Random
``perturbed_as`` metrics, pulled back along random rotations, are evaluated at
random shell points as one batch, as batches of one, and through the
reference; the two evaluations must agree to roundoff, and the fd backend must
agree with the dual one to its truncation error.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import staticpot as sp
from staticpot.geometry import PerturbationTerm, Point3

from .reference_pointwise import (reference_christoffel_at, reference_curvature_at,
                                  reference_flux_integral, reference_ricci_with_derivative,
                                  reference_volume_integral)

ROUNDOFF = 1e-14

_powers = st.tuples(*[st.integers(0, 2)] * 3).filter(lambda p: sum(p) <= 2)
_terms = st.lists(st.builds(PerturbationTerm, st.integers(0, 2), st.integers(0, 2),
                            st.floats(-0.5, 0.5), _powers),
                  min_size=1, max_size=3)


@st.composite
def charts(draw):
    """A perturbed_as metric in a rotated chart, plus a seed for its sample points."""
    mass = draw(st.floats(0.5, 2.0))
    metric = sp.perturbed_as(mass, draw(_terms))
    a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))).reshape(3, 3)
    q, _ = np.linalg.qr(a + 3.0 * np.eye(3))
    return sp.rotate_chart(metric, q), draw(st.integers(0, 2 ** 32 - 1))


def _r_min(metric):
    """Radius of the excised ball of a (rotated) perturbed_as chart."""
    # boundary_margin is r - r_min on these charts
    return -float(metric.boundary_margin(Point3(0.0, 0.0, 0.0)))


def _nodes(metric, seed, n=12):
    r_min = _r_min(metric)
    return sp.sample_shell(np.random.default_rng(seed), n, 1.5 * r_min, 8.0 * r_min)


def _batch(points):
    return Point3(*(np.array([getattr(p, a) for p in points]) for a in ("x1", "x2", "x3")))


def _rel(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / max(float(np.max(np.abs(b))), 1e-300)


@settings(max_examples=15, deadline=None)
@given(charts())
def test_batch_matches_single_points_and_reference(chart):
    metric, seed = chart
    points = _nodes(metric, seed)
    batch = sp.curvature_at(metric, _batch(points))
    for k, p in enumerate(points):
        one = sp.curvature_at(metric, p)
        ref = reference_curvature_at(metric, p)
        for name in ("metric_matrix", "gamma", "riemann", "ricci"):
            assert _rel(getattr(batch, name)[k], getattr(ref, name)) <= ROUNDOFF, name
            assert _rel(getattr(one, name), getattr(ref, name)) <= ROUNDOFF, name
        scale = float(np.max(np.abs(ref.ricci)))
        assert abs(batch.scalar[k] - ref.scalar) <= ROUNDOFF * scale
        assert abs(one.scalar - ref.scalar) <= ROUNDOFF * scale
        assert isinstance(one.scalar, float)
        assert _rel(sp.christoffel_at(metric, p), reference_christoffel_at(metric, p)) <= ROUNDOFF
    gammas = sp.christoffel_at(metric, _batch(points))
    assert _rel(gammas, batch.gamma) <= ROUNDOFF


@settings(max_examples=10, deadline=None)
@given(charts())
def test_ricci_derivative_matches_reference(chart):
    metric, seed = chart
    for p in _nodes(metric, seed, n=2):
        b = sp.ricci_with_derivative(metric, p)
        ric, dric, gamma = b.ricci, b.dricci, b.gamma
        ref_ric, ref_dric, ref_gamma = reference_ricci_with_derivative(metric, p)
        assert _rel(ric, ref_ric) <= ROUNDOFF
        assert _rel(dric, ref_dric) <= ROUNDOFF
        assert _rel(gamma, ref_gamma) <= ROUNDOFF


_TWO_TERMS = sp.perturbed_as(1.0, [PerturbationTerm(0, 0, 0.4, (1, 0, 0)),
                                    PerturbationTerm(1, 2, -0.3, (0, 1, 1))])
_DEPTH_METRICS = {
    "schwarzschild": sp.schwarzschild(1.0),
    "perturbed_as": _TWO_TERMS,
    "rotate_chart": sp.rotate_chart(_TWO_TERMS, [[0.36, 0.48, -0.8], [-0.8, 0.6, 0.0],
                                                 [0.48, 0.64, 0.6]]),
}


@pytest.mark.parametrize("name", sorted(_DEPTH_METRICS))
def test_depth_three_pass_is_bit_identical_to_curvature_at(name):
    # the depth-3 tangent pass and the depth-2 float pass share every value
    metric = _DEPTH_METRICS[name]
    points = sp.sample_shell(np.random.default_rng(17), 150, 2.0, 12.0)
    for where in (_batch(points), points[0], points[-1]):
        deep = sp.ricci_with_derivative(metric, where)
        flat = sp.curvature_at(metric, where)
        for field in ("metric_matrix", "dg", "d2g", "gamma", "riemann", "ricci", "scalar"):
            assert np.array_equal(getattr(deep, field), getattr(flat, field)), field
        assert flat.dricci is None and deep.dricci.shape == np.shape(flat.ricci)[:-2] + (3, 3, 3)
        assert type(deep.scalar) is type(flat.scalar)


@settings(max_examples=15, deadline=None)
@given(charts())
def test_fd_backend_agrees_with_dual(chart):
    metric, seed = chart
    nodes = _batch(_nodes(metric, seed))
    dual = sp.curvature_at(metric, nodes)
    fd = sp.curvature_at(metric, nodes, backend="fd")
    for k in range(len(nodes.x1)):
        assert _rel(fd.ricci[k], dual.ricci[k]) <= 1e-6


def _ricci_norm_sq(bundle):
    ginv = np.linalg.inv(bundle.metric_matrix)
    return (bundle.ricci * (ginv @ bundle.ricci @ ginv)).sum(axis=(-2, -1))


@settings(max_examples=8, deadline=None)
@given(charts())
def test_quadrature_drivers_match_node_sums(chart):
    metric, _ = chart
    r_min = _r_min(metric)
    rule = sp.sphere_rule(3, 6)
    f = sp.schwarzschild_potential(1.0)

    def density(b):
        return f.value(b.point) * _ricci_norm_sq(b)

    def density_at(p):
        return f.value(p) * float(_ricci_norm_sq(reference_curvature_at(metric, p)))

    def flux(b):
        return (b.ricci @ f.gradient(b.point)[..., None])[..., 0]

    def flux_at(p):
        return reference_curvature_at(metric, p).ricci @ f.gradient(p)

    shell = (1.5 * r_min, 6.0 * r_min)
    bulk = sp.volume_integral(metric, density, *shell, rule, n_panels=3, nodes_per_panel=3)
    ref_bulk = reference_volume_integral(metric, density_at, *shell, rule, n_panels=3,
                                         nodes_per_panel=3)
    assert abs(bulk - ref_bulk) <= 1e-12 * abs(ref_bulk)
    for radius in shell:
        out = sp.flux_integral(metric, flux, radius, rule)
        ref = reference_flux_integral(metric, flux_at, radius, rule)
        assert abs(out - ref) <= 1e-12 * abs(ref)


def _raised(fn, *args, **kwargs):
    with pytest.raises(sp.StaticPotError) as err:
        fn(*args, **kwargs)
    return err.value


@settings(max_examples=10, deadline=None)
@given(charts())
def test_node_outside_chart_raises_same_error(chart):
    metric, seed = chart
    points = _nodes(metric, seed, n=5)
    outside = Point3.of(0.5 * points[2].as_array() * _r_min(metric) / points[2].r)
    points[2] = outside
    expected = _raised(reference_curvature_at, metric, outside)
    assert isinstance(expected, sp.DomainError)
    for fn in (sp.curvature_at, sp.christoffel_at):
        got = _raised(fn, metric, _batch(points))
        assert type(got) is type(expected) and str(got) == str(expected)
    got = _raised(sp.ricci_with_derivative, metric, outside)
    assert type(got) is type(expected) and str(got) == str(expected)
    rule = sp.sphere_rule(3, 6)
    inner = 0.5 * _r_min(metric)
    got = _raised(sp.volume_integral, metric, lambda b: b.point.x1, inner, 2.0 * inner, rule)
    expected = _raised(reference_volume_integral, metric, lambda p: p.x1, inner, 2.0 * inner, rule)
    assert type(got) is type(expected) and str(got) == str(expected)


def test_degenerate_metric_raises_same_error():
    # g_11 = x1^2 - 1 is indefinite for |x1| < 1
    bad = sp.generic_metric(lambda X1, X2, X3: [[X1 * X1 - 1.0, 0.0, 0.0],
                                                [0.0, 1.0, 0.0],
                                                [0.0, 0.0, 1.0]], label="indefinite")
    points = [Point3(2.0, 0.0, 1.0), Point3(0.5, 1.0, 0.0), Point3(0.2, 0.0, 0.0)]
    expected = _raised(reference_curvature_at, bad, points[1])
    assert isinstance(expected, sp.SingularMetricError)
    for fn in (sp.curvature_at, sp.christoffel_at):
        got = _raised(fn, bad, _batch(points))
        assert type(got) is type(expected) and str(got) == str(expected)
    got = _raised(sp.curvature_at, bad, _batch(points), backend="fd")
    assert type(got) is type(expected) and str(got) == str(expected)
    assert type(_raised(sp.ricci_with_derivative, bad, points[1])) is type(expected)
    rule = sp.sphere_rule(3, 6)
    got = _raised(sp.flux_integral, bad, lambda b: np.zeros(b.point.x1.shape + (3,)), 0.7, rule)
    expected = _raised(reference_flux_integral, bad, lambda p: np.zeros(3), 0.7, rule)
    assert type(got) is type(expected) and str(got) == str(expected)
