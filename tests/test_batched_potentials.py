"""Differential tests: batched potential and zero-set paths against pointwise ones.

The reference (``reference_pointwise``) keeps the recursive expression tree
walker, the node-by-node sphere average and linear-part fit, and the
sample-by-sample root scan. The compiled expressions must reproduce the tree
walker bit for bit, including which exception is raised; the batched sphere
drivers must reproduce the node loops bit for bit; the batched root scan must
give the same roots and fail with the same exception class and message, except
where the pointwise scan raises a float exception (a math domain error, a
division by zero): there the chart meets nan or inf and raises DomainError.

Bit-identity of a batched evaluation with the pointwise one holds for
``+ - * /``, ``sqrt`` and squares, which numpy and Python both round
correctly. ``np.log`` and other powers on arrays can differ from their scalar
counterparts in the last bit, so the sphere-driver tests use potentials built
from the former only.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import staticpot as sp
from staticpot import jets, zeroset
from staticpot.geometry import Point3

from .reference_pointwise import (reference_expression, reference_fit_linear_part,
                                  reference_root, reference_sphere_average)

_leaves = st.one_of(st.sampled_from(["x1", "x2", "x3", "r", "0", "2", "0.5"]),
                    st.floats(-4.0, 4.0, allow_nan=False).map(repr))


def _extend(children):
    return st.one_of(
        st.tuples(children, st.sampled_from("+-*/"), children).map(
            lambda t: f"({t[0]} {t[1]} {t[2]})"),
        st.tuples(children, st.sampled_from(["2", "3", "0.5", "-1", "(1/3)", "-(2+1)"])).map(
            lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(st.sampled_from(["sqrt", "ln"]), children).map(
            lambda t: f"{t[0]}({t[1]})"),
        children.map(lambda c: f"-{c}"),
        children.map(lambda c: f"+{c}"))


expressions = st.recursive(_leaves, _extend, max_leaves=8)
coords = st.floats(-3.0, 3.0, allow_nan=False)


def _outcome(fn, *args):
    """The value of fn(*args), or the class and message of what it raised."""
    try:
        return fn(*args)
    except Exception as exc:  # every failure mode must match, whatever it is
        return (type(exc), str(exc))


def _leaves_of(e, depth):
    """Flat list of the base entries of a depth-``depth`` jet (constants pass)."""
    if depth == 0:
        return [e]
    return _leaves_of(jets.peel_value(e), depth - 1) + [
        x for i in range(3) for x in _leaves_of(jets.peel_grad(e, i), depth - 1)]


def _assert_bits(a, b):
    if isinstance(a, tuple) or isinstance(b, tuple):
        assert a == b
        return
    assert type(a) is type(b)
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class TestCompiledExpressions:
    @given(expressions, coords, coords, coords)
    @settings(max_examples=300, deadline=None)
    def test_floats_match_tree_walker(self, text, x1, x2, x3):
        compiled = sp.expression_potential(text).expr
        _assert_bits(_outcome(compiled, x1, x2, x3),
                     _outcome(reference_expression(text), x1, x2, x3))

    @given(expressions, st.lists(coords, min_size=3, max_size=3), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_arrays_match_tree_walker(self, text, point, seed):
        rng = np.random.default_rng(seed)
        X = [np.append(rng.uniform(-3.0, 3.0, 6), c) for c in point]
        with np.errstate(all="ignore"):
            got = _outcome(sp.expression_potential(text).expr, *X)
            want = _outcome(reference_expression(text), *X)
        _assert_bits(got, want)

    @given(expressions, coords, coords, coords)
    @settings(max_examples=200, deadline=None)
    def test_depth_two_jets_match_tree_walker(self, text, x1, x2, x3):
        got = _outcome(sp.expression_potential(text).expr, *jets.seed((x1, x2, x3), 2))
        want = _outcome(reference_expression(text), *jets.seed((x1, x2, x3), 2))
        if isinstance(got, tuple) or isinstance(want, tuple):
            assert got == want
            return
        for a, b in zip(_leaves_of(got, 2), _leaves_of(want, 2), strict=True):
            _assert_bits(a, b)

    @pytest.mark.parametrize("text", ["ln(x1) + 1/x2", "1/x2 - sqrt(x1)", "ln(x1) * (1/x2)",
                                      "sqrt(x1) / (1/x2)", "-(ln(x1)) + x3^(-1)"])
    def test_left_operand_raises_first(self, text):
        # both operands fail at (-1, 0, 0); the left one's exception must win
        _assert_bits(_outcome(sp.expression_potential(text).expr, -1.0, 0.0, 0.0),
                     _outcome(reference_expression(text), -1.0, 0.0, 0.0))

    def test_validation_errors_unchanged(self):
        for text, message in [("x1^x2", "exponents must be constants"),
                              ("x1 % 2", "operator Mod not allowed"),
                              ("~x1", "only unary +/- allowed"),
                              ("exp(x1)", "only sqrt() and ln() calls allowed"),
                              ("sqrt(x1, x2)", "functions take exactly one argument"),
                              ("x4 + 1", "unknown name 'x4'"),
                              ("'a'", "only numeric constants allowed"),
                              ("x1 < 2", "construct Compare not allowed")]:
            with pytest.raises(sp.ConfigError) as err:
                sp.expression_potential(text)
            assert str(err.value) == message

    def test_constant_too_large_is_a_config_error(self):
        with pytest.raises(sp.ConfigError, match="numeric constant too large for a float"):
            sp.expression_potential("x1 + 1" + "0" * 400)


SPHERE_FIELDS = [
    sp.schwarzschild_potential(2.0),
    sp.expression_potential("1 - 3/r + 5/(r*r)"),
    sp.expression_potential("x1 - 0.5*x2 + 3/r + x3/(r*r)"),
    sp.expression_potential("2*x1 + 1/r"),
]


class TestSphereDrivers:
    @pytest.mark.parametrize("f", SPHERE_FIELDS, ids=lambda f: f.label)
    @pytest.mark.parametrize("n_polar,n_azimuth", [(32, 64), (5, 7)])
    def test_sphere_average_matches_node_loop(self, f, n_polar, n_azimuth):
        rule = sp.sphere_rule(n_polar, n_azimuth)
        for radius in (3.0, 57.5, 400.0):
            _assert_bits(sp.sphere_average(f.value, radius, rule),
                         reference_sphere_average(f.value, radius, rule))

    def test_sphere_average_keeps_the_summation_order(self):
        # terms spanning 24 orders of magnitude: any reordering shows in the bits
        rule = sp.sphere_rule(12, 16)

        def fn(p):
            return 1e16 * p.x1 * p.x1 * p.x1 + p.x2 / 3.0 - 1e-8 * p.x3

        _assert_bits(sp.sphere_average(fn, 1.7, rule), reference_sphere_average(fn, 1.7, rule))
        _assert_bits(sp.sphere_average(lambda p: 5.0, 2.0, rule),
                     reference_sphere_average(lambda p: 5.0, 2.0, rule))

    @pytest.mark.parametrize("f", SPHERE_FIELDS, ids=lambda f: f.label)
    def test_fit_linear_part_matches_node_loop(self, f):
        radii = [40.0, 80.0, 160.0, 320.0]
        for metric in (sp.euclidean(), sp.schwarzschild(1.0)):
            got = sp.fit_linear_part(f, metric, radii)
            want = reference_fit_linear_part(f, metric, radii)
            for name in ("coefficients", "radii", "averages", "remainder_rms"):
                _assert_bits(getattr(got, name), getattr(want, name))
            assert got.remainder_exponent == want.remainder_exponent

    def test_fit_linear_part_fails_as_node_loop(self):
        f = sp.expression_potential("x1*r")
        radii = [20.0, 40.0, 80.0, 160.0]
        assert (_outcome(sp.fit_linear_part, f, sp.euclidean(), radii)
                == _outcome(reference_fit_linear_part, f, sp.euclidean(), radii))

    @pytest.mark.parametrize("f", [sp.expression_potential("x1*x2*x3 + 1/r"),
                                   sp.expression_potential("sqrt(x1*x1 + 2)*x2 - x3^2"),
                                   sp.schwarzschild_potential(1.5),
                                   sp.affine(1.0, 2.0, 0.0, -1.0)],
                             ids=lambda f: f.label)
    def test_hessian_batch_matches_points(self, f):
        rng = np.random.default_rng(7)
        x = rng.uniform(1.0, 4.0, (2, 5, 3))
        batched = f.hessian(Point3(x[..., 0], x[..., 1], x[..., 2]))
        assert batched.shape == (2, 5, 3, 3)
        for idx in np.ndindex(2, 5):
            _assert_bits(batched[idx], f.hessian(Point3(*(float(c) for c in x[idx]))))


def _graph_chart(text, bracket, slope_floor=0.5):
    return zeroset.SurfaceChart(sp.expression_potential(text), sp.euclidean(),
                                embed=lambda U, V, S: (S, U, V),
                                bracket=lambda u, v: bracket, slope_floor=slope_floor,
                                label=f"graph[{text}]")


class TestRootScan:
    @pytest.mark.parametrize("text,bracket", [
        ("x1 + 0.5*ln(x2^2 + x3^2)", (-8.0, 8.0)),
        ("x1 + 0.5*ln(x2^2 + x3^2)", (-8.0, 0.0)),   # widened until it brackets
        ("x1 - 0.75", (-1.0, 2.0)),                    # a sample lands on the root
        ("x1*x1*x1 - x2 + 0.1*x3", (-3.0, 3.0)),
    ])
    def test_roots_match_pointwise_scan(self, text, bracket):
        chart = _graph_chart(text, bracket, slope_floor=1e-8)
        for u, v in [(0.3, 1.7), (2.0, -0.4), (-5.0, 3.0), (0.0, 9.5)]:
            _assert_bits(_outcome(chart.root, u, v), _outcome(reference_root, chart, u, v))

    @pytest.mark.parametrize("text,bracket,u", [
        ("x1*x1 + 1", (-2.0, 2.0), 1.0),        # NoRootError after every widening
        ("x1*x1 - 0.25", (-2.0, 2.0), 1.0),     # MultiRootError
        ("0.001*x1", (-2.0, 2.0), 1.0),         # MonotonicityError
    ])
    def test_failures_match_pointwise_scan(self, text, bracket, u):
        chart = _graph_chart(text, bracket)
        got = _outcome(chart.root, u, 0.5)
        want = _outcome(reference_root, chart, u, 0.5)
        assert isinstance(got, tuple), "a failing line must not produce a root"
        assert got == want

    @pytest.mark.parametrize("text,bracket,u,what,s", [
        ("ln(x1)", (-8.0, 8.0), 1.0, "f", "-8"),               # the first scan sample
        ("ln(x1*x1 - 1)", (-8.0, 8.0), 1.0, "f", "-0.666667"),  # a sample inside the scan
        ("sqrt(x1) - 1", (-8.0, 8.0), 1.0, "f", "-8"),
        ("1/x1", (-8.0, 7.0), 1.0, "f", "0"),    # the pole is bracketed; Brent lands on it
        ("x1 + 1/x2", (-8.0, 8.0), 0.0, "f", "-8"),             # a pole on the line itself
        ("x1^(1/3)", (0.0, 1.0), 1.0, "df/ds", "0"),  # a root at the first sample, slope inf
    ])
    def test_float_failures_raise_domain_error(self, text, bracket, u, what, s):
        # where the pointwise scan raises a float exception, the array pass
        # meets nan or inf, and the line fails with DomainError at that sample
        chart = _graph_chart(text, bracket)
        want = _outcome(reference_root, chart, u, 0.5)
        assert isinstance(want, tuple) and issubclass(want[0], (ValueError, ZeroDivisionError))
        with pytest.raises(sp.DomainError) as err:
            chart.root(u, 0.5)
        assert str(err.value) == (f"graph[{text}]: {what} is not finite at s = {s} "
                                  f"on the line (u, v) = ({u:g}, 0.5)")

    @pytest.mark.parametrize("text,s", [
        ("(x1)^0.5 - 1", -8.0),         # nan below x1 = 0
        ("1/x1", 0.0),                  # inf at the sample x1 = 0
        ("1e306*x1*x1*x1 - 1", -8.0),   # overflows to -inf at the first sample
    ])
    def test_non_finite_sample_raises_domain_error(self, text, s):
        # numpy scalars give nan or inf where floats raise; such a sample has
        # no sign, so the scan stops instead of counting it
        chart = _graph_chart(text, (-8.0, 8.0))
        with pytest.raises(sp.DomainError) as err:
            chart.root(1.0, 0.5)
        assert str(err.value) == (f"graph[{text}]: f is not finite at s = {s:g} "
                                  "on the line (u, v) = (1, 0.5)")

    def test_ray_chart_roots_match_pointwise_scan(self):
        f = sp.expression_potential("1 - 1/r + 0.1*x1/(r*r*r)")
        comp = sp.extract_closed_component(f, sp.euclidean(), (0.05, -0.1, 0.02), (0.2, 3.0),
                                           n_theta=2, n_phi=4)
        for u, v in [(0.3, 0.1), (1.2, 2.5), (2.9, 5.0)]:
            _assert_bits(_outcome(comp.chart.root, u, v),
                         _outcome(reference_root, comp.chart, u, v))
        assert math.isfinite(comp.chart.root(1.2, 2.5))
