import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import staticpot as sp
from staticpot.geometry import Point3


class TestStaticPairs:
    def test_affine_on_flat_is_static(self):
        g = sp.euclidean()
        f = sp.affine(0.5, 1.0, -2.0, 3.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            p = Point3.of(rng.uniform(-8, 8, 3))
            res = sp.static_residual(f, g, p)
            assert res.combined_norm < 1e-12

    def test_schwarzschild_pair_is_static(self):
        m = 2.0
        g = sp.schwarzschild(m)
        f = sp.schwarzschild_potential(m)
        rng = np.random.default_rng(6)
        for p in sp.sample_shell(rng, 30, 1.5, 25.0):
            res = sp.static_residual(f, g, p)
            assert res.combined_norm < 1e-13

    def test_wrong_pair_is_not_static(self):
        g = sp.schwarzschild(1.0)
        f = sp.affine(0.0, 1.0, 0.0, 0.0)
        res = sp.static_residual(f, g, Point3(2.0, 0.0, 0.0))
        assert res.combined_norm > 1e-4

    def test_require_static_gate(self):
        g = sp.schwarzschild(1.0)
        with pytest.raises(sp.NotStaticError):
            sp.require_static(sp.affine(0.0, 1.0, 0.0, 0.0), g, Point3(2.0, 0.0, 0.0))

    def test_one_pass_matches_separate_evaluations(self):
        # static_residual reads f, grad f and Hess f off one depth-2 pass; the
        # result must be bit-identical to the three separate evaluations
        terms = [sp.PerturbationTerm(0, 1, 0.2, (1, 0, 0))]
        cases = [(sp.schwarzschild_potential(1.5), sp.schwarzschild(1.5), Point3(2.0, -1.0, 0.5)),
                 (sp.expression_potential("x1 + 0.5*ln(x2^2 + x3^2) + 1/r"),
                  sp.perturbed_as(1.0, terms), Point3(3.0, 2.0, -1.0)),
                 (sp.affine(0.5, 1.0, -2.0, 3.0), sp.euclidean(), Point3(1.0, 2.0, 3.0))]
        for f, g, p in cases:
            res = sp.static_residual(f, g, p)
            bundle = sp.curvature_at(g, p)
            cov = f.hessian(p) - np.einsum("kij,k->ij", bundle.gamma, f.gradient(p))
            assert res.f_value == f.value(p)
            assert np.array_equal(res.tensor_residual, cov - f.value(p) * bundle.ricci)
            assert res.laplacian_residual == float(
                np.tensordot(np.linalg.inv(bundle.metric_matrix), cov))

    def test_laplacian_part_of_residual(self):
        # x1^2 has flat Laplacian 2, so the harmonic part alone must fail
        g = sp.euclidean()
        f = sp.expression_potential("x1*x1")
        res = sp.static_residual(f, g, Point3(0.3, 0.1, 0.0))
        assert res.laplacian_residual == pytest.approx(2.0, rel=1e-12)


class TestExpressionGrammar:
    def test_radius_shorthand(self):
        f = sp.expression_potential("1/r")
        assert f.value(Point3(3.0, 0.0, 4.0)) == pytest.approx(0.2)

    def test_caret_power(self):
        f = sp.expression_potential("x1^2 + x2^2")
        assert f.value(Point3(2.0, 3.0, 0.0)) == pytest.approx(13.0)

    def test_functions(self):
        f = sp.expression_potential("sqrt(x1) + ln(x2)")
        assert f.value(Point3(4.0, math.e, 0.0)) == pytest.approx(3.0)

    def test_gradient_from_expression(self):
        f = sp.expression_potential("x1*x2 + ln(x3)")
        grad = f.gradient(Point3(2.0, 5.0, 4.0))
        assert grad == pytest.approx([5.0, 2.0, 0.25])

    def test_rejects_unknown_names(self):
        with pytest.raises(sp.ConfigError):
            sp.expression_potential("x4 + 1")

    def test_rejects_calls_to_unknown_functions(self):
        with pytest.raises(sp.ConfigError):
            sp.expression_potential("exp(x1)")

    def test_rejects_variable_exponent(self):
        with pytest.raises(sp.ConfigError):
            sp.expression_potential("x1^x2")

    def test_rejects_statements(self):
        with pytest.raises(sp.ConfigError):
            sp.expression_potential("__import__('os')")


class TestLinearPartFit:
    def test_affine_coefficients_recovered(self):
        g = sp.euclidean()
        f = sp.affine(1.0, 2.0, 0.0, -1.0)
        fit = sp.fit_linear_part(f, g, radii=[40.0, 80.0, 160.0, 320.0])
        assert np.allclose(fit.coefficients, [2.0, 0.0, -1.0], atol=1e-8)

    def test_bounded_potential_fits_zero(self):
        m = 1.0
        g = sp.schwarzschild(m)
        f = sp.schwarzschild_potential(m)
        fit = sp.fit_linear_part(f, g, radii=[50.0, 100.0, 200.0, 400.0])
        assert np.linalg.norm(fit.coefficients) < 1e-6
        assert fit.remainder_exponent == pytest.approx(-2.0, abs=0.4)

    def test_mixed_potential_keeps_linear_term(self):
        g = sp.euclidean()
        f = sp.expression_potential("2*x1 + 1/r")
        fit = sp.fit_linear_part(f, g, radii=[50.0, 100.0, 200.0, 400.0])
        assert fit.coefficients[0] == pytest.approx(2.0, abs=1e-8)

    def test_non_converging_sequence_raises(self):
        g = sp.euclidean()
        # quadratic growth makes the averaged gradient diverge geometrically
        f = sp.expression_potential("x1*r")
        with pytest.raises(sp.NonConvergentError):
            sp.fit_linear_part(f, g, radii=[20.0, 40.0, 80.0, 160.0])

    def test_needs_three_radii(self):
        with pytest.raises(ValueError):
            sp.fit_linear_part(sp.affine(0, 1, 0, 0), sp.euclidean(), radii=[10.0, 20.0])


class TestBochner:
    def test_static_pair_balances(self):
        m = 1.0
        g = sp.schwarzschild(m)
        f = sp.schwarzschild_potential(m)
        p = Point3(2.0, 1.0, 0.0)
        res = sp.bochner_residual(f, g, p)
        assert abs(res) < 1e-10

    def test_zero_potential_rejected(self):
        g = sp.euclidean()
        f = sp.expression_potential("x1")
        with pytest.raises(sp.ZeroPotentialError):
            sp.bochner_residual(f, g, Point3(0.0, 1.0, 0.0))

    def test_batched_point_rejected(self):
        batch = Point3.stack([Point3(2.0, 1.0, 0.0), Point3(3.0, 0.0, 1.0)])
        with pytest.raises(ValueError, match="bochner_residual takes one point"):
            sp.bochner_residual(sp.schwarzschild_potential(1.0), sp.schwarzschild(1.0), batch)


class TestCovariantHessian:
    def test_flat_chart_reduces_to_partials(self):
        g = sp.euclidean()
        f = sp.expression_potential("x1*x2*x3")
        p = Point3(1.0, 2.0, 3.0)
        h = sp.static_residual(f, g, p).covariant_hessian
        assert np.allclose(h, f.hessian(p), atol=0.0)

    def test_radius_has_known_hessian_norm(self):
        # Hess r = (g - dr x dr)/r on flat space; trace is 2/r
        g = sp.euclidean()
        f = sp.expression_potential("r")
        p = Point3(3.0, 0.0, 4.0)
        h = sp.static_residual(f, g, p).covariant_hessian
        assert np.trace(h) == pytest.approx(2.0 / 5.0, rel=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2),
       st.floats(-2, 2))
def test_static_residual_is_linear_in_potential(a1, a2, a3, b1, c):
    g = sp.schwarzschild(1.0)
    p = Point3(2.0, -1.0, 1.0)
    f1 = sp.affine(a1, a2, a3, b1)
    f2 = sp.schwarzschild_potential(1.0)
    t1 = sp.static_residual(f1, g, p).tensor_residual
    t2 = sp.static_residual(f2, g, p).tensor_residual
    combo = sp.PotentialField(
        lambda x1, x2, x3: (a1 + a2 * x1 + a3 * x2 + b1 * x3) * (1 - c)
        + c * f2.expr(x1, x2, x3),
        label="combo")
    t3 = sp.static_residual(combo, g, p).tensor_residual
    assert np.allclose(t3, (1 - c) * t1 + c * t2, atol=1e-9)
