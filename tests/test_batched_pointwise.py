"""Differential tests: the batched pointwise kernels and suites.

The Ricci derivative runs the curvature assembly on (value, coordinate
derivative) pairs of float arrays over a depth-3 metric evaluation; it must
match the frozen jet-arithmetic path of ``reference_pointwise`` to roundoff,
for one point and for a batch. The static gate, the eigenframe identities, the
conformal double and the curvature decay model take a batched Point3; each
node must give what a single-point call gives, and a failing batch must raise
the error the per-point loop raises first, with the same class and message.
The pointwise suites call each kernel once per sample set, so their kernel
call counts do not grow with ``n_points``, and a NaN at any sample fails the
check that reduces over it.
"""

import dataclasses
import functools
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import staticpot as sp
from staticpot import cli, geometry, global_checks, identities, potentials
from staticpot.geometry import PerturbationTerm, Point3

from .reference_pointwise import reference_ricci_with_derivative

ROUNDOFF = 1e-14
LOOSE = 1e12  # a gate every node passes, so a non-static pair still runs the identities

_powers = st.tuples(*[st.integers(0, 2)] * 3).filter(lambda p: sum(p) <= 2)
_terms = st.lists(st.builds(PerturbationTerm, st.integers(0, 2), st.integers(0, 2),
                            st.floats(-0.5, 0.5), _powers),
                  min_size=1, max_size=3)


@st.composite
def metrics(draw):
    """A schwarzschild, perturbed_as or rotated perturbed_as metric, its excised
    radius and a seed for its sample points."""
    mass = draw(st.floats(0.5, 2.0))
    kind = draw(st.sampled_from(["schwarzschild", "perturbed_as", "rotate_chart"]))
    if kind == "schwarzschild":
        metric = sp.schwarzschild(mass)
    else:
        metric = sp.perturbed_as(mass, draw(_terms))
        if kind == "rotate_chart":
            a = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9)))
            q, _ = np.linalg.qr(a.reshape(3, 3) + 3.0 * np.eye(3))
            metric = sp.rotate_chart(metric, q)
    # boundary_margin is r - r_min on these charts
    r_min = -float(metric.boundary_margin(Point3(0.0, 0.0, 0.0)))
    return metric, r_min, draw(st.integers(0, 2 ** 32 - 1))


def _batch(points):
    return Point3(*(np.array(x) for x in zip(*(p.coords() for p in points))))


def _rel(a, b):
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) / max(float(np.max(np.abs(b))), 1e-300)


@settings(max_examples=12, deadline=None)
@given(metrics())
def test_ricci_derivative_batch_and_single_match_reference(drawn):
    metric, r_min, seed = drawn
    points = sp.sample_shell(np.random.default_rng(seed), 6, 1.5 * r_min, 8.0 * r_min)
    ric, dric, gamma = sp.ricci_with_derivative(metric, _batch(points))
    assert ric.shape == (6, 3, 3) and dric.shape == (6, 3, 3, 3) and gamma.shape == (6, 3, 3, 3)
    for k, p in enumerate(points):
        ref = reference_ricci_with_derivative(metric, p)
        one = sp.ricci_with_derivative(metric, p)
        for batched, single, expected in zip((ric[k], dric[k], gamma[k]), one, ref):
            assert _rel(batched, expected) <= ROUNDOFF
            assert _rel(single, expected) <= ROUNDOFF


_Q = np.array([[0.36, 0.48, -0.8], [-0.8, 0.6, 0.0], [0.48, 0.64, 0.6]])
_BUMPY = sp.perturbed_as(1.0, [PerturbationTerm(0, 0, 0.4, (1, 0, 0)),
                               PerturbationTerm(0, 1, 0.3, (0, 0, 1)),
                               PerturbationTerm(2, 2, -0.5, (1, 1, 0))])
METRICS = {"schwarzschild": sp.schwarzschild(1.5), "perturbed_as": _BUMPY,
           "rotate_chart": sp.rotate_chart(_BUMPY, _Q)}
F = sp.schwarzschild_potential(1.5)
N = sp.expression_potential("3 + 0.2*x1 - 0.1*x2*x3/r", label="shifted")
POINTS = sp.sample_shell(np.random.default_rng(5), 16, 2.5, 12.0)


@pytest.mark.parametrize("name", sorted(METRICS))
def test_static_residual_batch_matches_single_points(name):
    metric = METRICS[name]
    for f in (F, N):
        batch = sp.static_residual(f, metric, _batch(POINTS))
        assert batch.combined_norm.shape == (len(POINTS),)
        for k, p in enumerate(POINTS):
            one = sp.static_residual(f, metric, p)
            assert isinstance(one.f_value, float) and isinstance(one.combined_norm, float)
            assert isinstance(one.laplacian_residual, float)
            scale = float(np.max(np.abs(one.covariant_hessian))) + abs(one.f_value) * float(
                np.max(np.abs(one.curvature.ricci)))
            assert abs(batch.f_value[k] - one.f_value) <= ROUNDOFF * abs(one.f_value)
            assert float(np.max(np.abs(batch.tensor_residual[k] - one.tensor_residual))) <= ROUNDOFF * scale
            assert abs(batch.laplacian_residual[k] - one.laplacian_residual) <= ROUNDOFF * scale
            assert abs(batch.combined_norm[k] - one.combined_norm) <= ROUNDOFF * scale
            assert _rel(batch.gradient[k], one.gradient) <= ROUNDOFF
            assert _rel(batch.curvature.ricci[k], one.curvature.ricci) <= ROUNDOFF


@pytest.mark.parametrize("name", sorted(METRICS))
def test_tod_residuals_batch_matches_single_points(name):
    metric = METRICS[name]
    for f in (F, N):
        batch = sp.tod_identity_residuals(f, metric, _batch(POINTS), static_tol=LOOSE)
        assert batch.shape == (len(POINTS), 3)
        for k, p in enumerate(POINTS):
            one = sp.tod_identity_residuals(f, metric, p, static_tol=LOOSE)
            assert one.shape == (3,)
            # the identities balance f grad Ric against (eigenvalue gap) grad f
            gate = sp.static_residual(f, metric, p)
            _, dric, _ = sp.ricci_with_derivative(metric, p)
            scale = (abs(gate.f_value) * float(np.max(np.abs(dric)))
                     + float(np.max(np.abs(gate.curvature.ricci))) * float(np.max(np.abs(gate.gradient))))
            assert float(np.max(np.abs(batch[k] - one))) <= ROUNDOFF * scale


def test_conformal_double_and_decay_batch_match_single_points():
    g, f = sp.schwarzschild(1.0), sp.schwarzschild_potential(1.0)
    nodes = sp.sample_shell(np.random.default_rng(2), 12, 0.8, 15.0)
    for sign in (1, -1):
        batch = sp.conformal_double_scalar(f, g, sign, _batch(nodes))
        for k, p in enumerate(nodes):
            one = sp.conformal_double_scalar(f, g, sign, p)
            assert isinstance(one, float)
            scale = float(np.max(np.abs(sp.curvature_at(g, p).ricci)))
            assert abs(batch[k] - one) <= ROUNDOFF * scale
    for metric in METRICS.values():
        batch = sp.curvature_decay_residual(metric, _batch(POINTS))
        for k, p in enumerate(POINTS):
            one = sp.curvature_decay_residual(metric, p)
            assert isinstance(one.residual, float)
            assert _rel(batch.computed[k], one.computed) <= ROUNDOFF
            assert _rel(batch.model[k], one.model) <= ROUNDOFF
            assert abs(batch.residual[k] - one.residual) <= ROUNDOFF * float(np.max(np.abs(one.computed)))


### The first failing node


def _first_error(fn, points, *args, **kwargs):
    """The class and message of the error a per-point loop over ``points`` raises first."""
    for p in points:
        try:
            fn(*args, p, **kwargs)
        except sp.StaticPotError as exc:
            return type(exc), str(exc)
    raise AssertionError("no node fails")


def _batch_error(fn, points, *args, **kwargs):
    with pytest.raises(sp.StaticPotError) as err:
        fn(*args, _batch(points), **kwargs)
    return type(err.value), str(err.value)


# x1^3 is not static; its defect 12e-7 |x1| passes the gate below |x1| ~ 0.9
CUBIC = sp.expression_potential("1 + 1e-7*x1^3", label="cubic")
CUBIC_NODES = [Point3(0.1, 1.0, 0.0), Point3(-0.5, 0.0, 2.0), Point3(3.0, 1.0, 1.0),
               Point3(5.0, -1.0, 0.0)]
# schwarzschild(1) excises r <= 1/2; the third and last nodes lie inside
F1 = sp.schwarzschild_potential(1.0)
DOMAIN_NODES = [Point3(2.0, 0.0, 0.0), Point3(0.0, 1.0, 1.0), Point3(0.1, 0.2, 0.0),
                Point3(0.3, 0.0, 0.0)]
# a skew part leaves the symmetric part (checked positive) the identity, but the
# lower triangle the eigensolve factors is positive definite only for |x1| < 1/2
SKEWED = sp.generic_metric(lambda x1, x2, x3: [[1.0 + 0.0 * x1, 2.0 * x1, 0.0],
                                               [-2.0 * x1, 1.0, 0.0],
                                               [0.0, 0.0, 1.0]], label="skewed")
SKEWED_NODES = [Point3(0.1, 0.3, 0.2), Point3(0.7, 0.1, 0.0), Point3(0.2, -1.0, 0.5),
                Point3(0.9, 0.0, 0.0)]


@pytest.mark.parametrize("fn,args,points,kind", [
    (sp.require_static, (CUBIC, sp.euclidean()), CUBIC_NODES, sp.NotStaticError),
    (sp.tod_identity_residuals, (CUBIC, sp.euclidean()), CUBIC_NODES, sp.NotStaticError),
    (sp.ricci_eigenframe, (SKEWED,), SKEWED_NODES, sp.DegenerateMetricError),
    (functools.partial(sp.tod_identity_residuals, static_tol=LOOSE),
     (sp.affine(1.0, 0.5, -0.25, 2.0), SKEWED), SKEWED_NODES, sp.DegenerateMetricError),
    (sp.require_static, (F1, sp.schwarzschild(1.0)), DOMAIN_NODES, sp.DomainError),
    (sp.static_residual, (F1, sp.schwarzschild(1.0)), DOMAIN_NODES, sp.DomainError),
    (sp.tod_identity_residuals, (F1, sp.schwarzschild(1.0)), DOMAIN_NODES, sp.DomainError),
    (sp.curvature_decay_residual, (sp.schwarzschild(1.0),), DOMAIN_NODES, sp.DomainError),
    (sp.conformal_double_scalar, (F1, sp.schwarzschild(1.0), 1),
     DOMAIN_NODES, sp.DomainError),
    # 1 - x1 is not safely positive from x1 = 1 on
    (sp.conformal_double_scalar, (sp.expression_potential("-x1"), sp.euclidean(), 1),
     [Point3(0.2, 0.0, 0.0), Point3(0.5, 1.0, 0.0), Point3(2.0, 0.0, 1.0), Point3(3.0, 0.0, 0.0)],
     sp.DegenerateConformalError),
])
def test_batch_raises_the_first_failing_node_error(fn, args, points, kind):
    expected = _first_error(fn, points, *args)
    assert expected[0] is kind
    assert _batch_error(fn, points, *args) == expected


### Suites: one call per kernel, and NaN never passes


def _counting(monkeypatch, fn, counts):
    def counted(*args, **kwargs):
        counts[fn.__name__] = counts.get(fn.__name__, 0) + 1
        return fn(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("staticpot"):
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    monkeypatch.setattr(mod, attr, counted)


@pytest.mark.parametrize("suite", ["tod_identities", "schwarzschild_static"])
def test_suite_kernel_calls_do_not_grow_with_n_points(suite, monkeypatch, tmp_path):
    counts = {}
    for fn in (geometry.curvature_at, geometry.ricci_with_derivative):
        _counting(monkeypatch, fn, counts)
    seen = []
    for n in (50, 150):
        counts.clear()
        report = cli.run_suite(suite, {"n_points": str(n)}, str(tmp_path / str(n)))
        assert report["passed"]
        seen.append(dict(counts))
    assert seen[0] == seen[1]


def _nan_at(index, kernel):
    """Wrap ``kernel`` so that a batched call reports NaN at node ``index``."""

    def patched(*args, **kwargs):
        out = kernel(*args, **kwargs)
        if isinstance(out, potentials.StaticResidual) and np.ndim(out.f_value):
            lap = out.laplacian_residual.copy()
            lap[index] = np.nan
            return dataclasses.replace(out, laplacian_residual=lap)
        if isinstance(out, global_checks.DecayModelResidual) and np.ndim(out.residual):
            res = out.residual.copy()
            res[index] = np.nan
            return dataclasses.replace(out, residual=res)
        if isinstance(out, np.ndarray) and out.ndim and out.shape[0] > index:
            out = out.copy()
            out[index] = np.nan
        return out

    return patched


@pytest.mark.parametrize("index", [0, 7])
@pytest.mark.parametrize("suite,module,kernel,check", [
    ("euclidean_affine", potentials, "static_residual", "static_residual_zero"),
    ("schwarzschild_static", potentials, "static_residual", "static_residual_max"),
    ("tod_identities", identities, "tod_identity_residuals", "cyclic_identity_max"),
    ("conformal_double", global_checks, "conformal_double_scalar", "doubled_scalar_flat"),
    ("huisken_yau", global_checks, "curvature_decay_residual", "model_exact_unperturbed"),
])
def test_nan_at_any_sample_fails_the_check(suite, module, kernel, check, index,
                                            monkeypatch, tmp_path):
    monkeypatch.setattr(module, kernel, _nan_at(index, getattr(module, kernel)))
    overrides = {} if suite == "huisken_yau" else {"n_points": "12"}
    report = cli.run_suite(suite, overrides, str(tmp_path))
    (result,) = [c for c in report["checks"] if c["name"] == check]
    assert not result["passed"] and result["computed"] == "nan"
