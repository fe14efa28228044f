import math

import numpy as np
import pytest

import staticpot as sp
from staticpot import quadrature, zeroset

LEGGAUSS = np.polynomial.legendre.leggauss
RULE_SIZES = [(2, 4), (3, 6), (6, 12), (12, 24), (32, 64)]


def _bits(arrays):
    return [(a.dtype, a.shape, a.tobytes()) for a in arrays]


def _rule_arrays(rule):
    return rule.directions, rule.weights, rule.tangent_u, rule.tangent_phi


class TestRuleCache:
    @pytest.mark.parametrize("n_polar, n_azimuth", RULE_SIZES)
    def test_cached_rule_is_the_uncached_direct_build(self, monkeypatch, n_polar, n_azimuth):
        cached = sp.sphere_rule(n_polar, n_azimuth)
        monkeypatch.setattr(quadrature, "gauss_legendre", LEGGAUSS)
        fresh = quadrature._sphere_rule.__wrapped__(n_polar, n_azimuth)
        assert _bits(_rule_arrays(cached)) == _bits(_rule_arrays(fresh))

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 8, 16, 32])
    def test_gauss_legendre_is_leggauss(self, n):
        assert _bits(quadrature.gauss_legendre(n)) == _bits(LEGGAUSS(n))

    def test_a_second_call_returns_the_same_rule(self):
        assert quadrature.gauss_legendre(6) is quadrature.gauss_legendre(6)
        assert sp.sphere_rule(6, 12) is sp.sphere_rule(6, 12)
        assert sp.sphere_rule() is sp.sphere_rule(32, 64)
        assert sp.sphere_rule(n_azimuth=64) is sp.sphere_rule(n_polar=32, n_azimuth=64)

    @pytest.mark.parametrize("n_polar, n_azimuth", RULE_SIZES)
    def test_cached_arrays_are_read_only(self, n_polar, n_azimuth):
        arrays = (*_rule_arrays(sp.sphere_rule(n_polar, n_azimuth)),
                  *quadrature.gauss_legendre(n_polar))
        for a in arrays:
            before = a.tobytes()
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0
            with pytest.raises(ValueError, match="read-only"):
                a *= 2.0
            assert a.tobytes() == before

    @pytest.mark.parametrize("n_polar, n_azimuth", [(1, 8), (8, 3)])
    def test_too_small_a_rule_raises_on_every_call(self, n_polar, n_azimuth):
        for _ in range(3):
            with pytest.raises(ValueError, match="rule too small"):
                sp.sphere_rule(n_polar, n_azimuth)

    @pytest.mark.parametrize("n_polar, n_azimuth", [(3.0, 6), (3, 6.0), (np.int64(3), 6.0)])
    def test_an_integral_float_size_is_served_the_integer_rule(self, n_polar, n_azimuth):
        assert sp.sphere_rule(n_polar, n_azimuth) is sp.sphere_rule(3, 6)
        assert quadrature.gauss_legendre(float(n_polar)) is quadrature.gauss_legendre(3)
        assert _bits(quadrature.radial_panels(2, 10, 4.0, 6.0)) == _bits(
            quadrature.radial_panels(2, 10, 4, 6))

    def test_an_integral_float_size_builds_no_second_rule(self):
        sp.sphere_rule(5, 10)
        before = quadrature._sphere_rule.cache_info().currsize
        sp.sphere_rule(5, 10.0)
        sp.sphere_rule(5.0, 10)
        assert quadrature._sphere_rule.cache_info().currsize == before

    @pytest.mark.parametrize("call", [
        lambda: sp.sphere_rule(3, 6.5),
        lambda: sp.sphere_rule(2.5, 8),
        lambda: sp.sphere_rule("3", 6),
        lambda: sp.sphere_rule(3, math.inf),
        lambda: sp.sphere_rule(math.nan, 6),
        lambda: quadrature.gauss_legendre(2.5),
        lambda: quadrature.gauss_legendre(None),
        lambda: quadrature.radial_panels(2, 10, 4.5, 6),
        lambda: quadrature.radial_panels(2, 10, 4, 6.5),
        lambda: sp.volume_integral(sp.euclidean(), lambda b: b.scalar, 1.0, 2.0,
                                   sp.sphere_rule(3, 6), n_panels=2, nodes_per_panel=2.5),
    ])
    def test_a_non_integral_size_raises_on_every_call(self, call):
        for _ in range(2):
            with pytest.raises(ValueError, match="must be an integer, got"):
                call()

    def test_a_float_count_integrates_as_the_integer_count(self):
        g, rule = sp.euclidean(), sp.sphere_rule(3, 6)
        vol = [sp.volume_integral(g, lambda b: np.ones_like(b.point.x1), 1.0, 2.0, rule,
                                  n_panels=n, nodes_per_panel=k) for n, k in ((2, 3), (2.0, 3.0))]
        assert vol[0] == vol[1]

    @pytest.mark.parametrize("args, breakpoints", [
        ((2.0, 40.0, 18, 8), ()),
        ((1.0, 10.0, 6, 10), (2.5,)),
        ((0.0625, 40.0, 16, 3), (0.25, 0.5, 2.0)),
    ])
    def test_radial_panels_match_a_direct_leggauss_build(self, monkeypatch, args, breakpoints):
        cached = quadrature.radial_panels(*args, breakpoints=breakpoints)
        monkeypatch.setattr(quadrature, "gauss_legendre", LEGGAUSS)
        assert _bits(cached) == _bits(quadrature.radial_panels(*args, breakpoints=breakpoints))

    @pytest.mark.parametrize("n_polar, n_azimuth", [(3, 4), (16, 32)])
    def test_closed_component_nodes_match_a_direct_leggauss_build(self, monkeypatch,
                                                                  n_polar, n_azimuth):
        cached = zeroset.ClosedComponent._nodes(n_polar, n_azimuth)
        monkeypatch.setattr(zeroset, "gauss_legendre", LEGGAUSS)
        assert _bits(cached) == _bits(zeroset.ClosedComponent._nodes(n_polar, n_azimuth))



class TestSphereRule:
    def test_weights_sum_to_sphere_area(self):
        rule = sp.sphere_rule(16, 32)
        assert np.sum(rule.weights) == pytest.approx(4.0 * math.pi, rel=1e-13)

    def test_constant_average(self):
        rule = sp.sphere_rule(8, 16)
        assert sp.sphere_average(lambda p: 5.0, 3.0, rule) == pytest.approx(5.0, rel=1e-13)

    def test_harmonic_average_is_center_value(self):
        # x1^2 - x2^2 averages to zero over any centered sphere
        rule = sp.sphere_rule(16, 32)
        avg = sp.sphere_average(lambda p: p.x1 ** 2 - p.x2 ** 2, 2.0, rule)
        assert abs(avg) < 1e-13

    def test_polynomial_integration_exact(self):
        rule = sp.sphere_rule(16, 32)
        # mean of x3^2 over the unit sphere is 1/3
        avg = sp.sphere_average(lambda p: p.x3 ** 2, 1.0, rule)
        assert avg == pytest.approx(1.0 / 3.0, rel=1e-13)


class TestFlux:
    def test_inverse_square_flux_is_constant(self):
        g = sp.euclidean()
        rule = sp.sphere_rule(12, 24)

        def field(b):
            x = np.stack(b.point.coords(), axis=-1)
            return x / np.linalg.norm(x, axis=-1, keepdims=True) ** 3

        for radius in (1.0, 3.0, 7.5):
            flux = sp.flux_integral(g, field, radius, rule)
            assert flux == pytest.approx(4.0 * math.pi, rel=1e-12)

    def test_flux_uses_metric_area(self):
        # conformal factor phi^4 rescales both the normal and the area form
        m = 1.0
        g = sp.schwarzschild(m)
        f = sp.schwarzschild_potential(m)
        rule = sp.sphere_rule(12, 24)

        def grad_field(b):
            return (np.linalg.inv(b.metric_matrix) @ f.gradient(b.point)[..., None])[..., 0]

        # the capacity flux of the static potential equals 4 pi m at every radius
        for radius in (2.0, 5.0, 20.0):
            flux = sp.flux_integral(g, grad_field, radius, rule)
            assert flux == pytest.approx(4.0 * math.pi * m, rel=1e-10)


class TestVolume:
    def test_ball_shell_volume_flat(self):
        g = sp.euclidean()
        rule = sp.sphere_rule(8, 16)
        vol = sp.volume_integral(g, lambda b: np.ones_like(b.point.x1), 1.0, 2.0, rule,
                                 n_panels=8, nodes_per_panel=8)
        assert vol == pytest.approx(4.0 / 3.0 * math.pi * 7.0, rel=1e-12)

    def test_radial_density(self):
        g = sp.euclidean()
        rule = sp.sphere_rule(6, 12)
        vol = sp.volume_integral(g, lambda b: 1.0 / b.point.r ** 2,
                                 1.0, 4.0, rule,
                                 n_panels=8, nodes_per_panel=8)
        assert vol == pytest.approx(4.0 * math.pi * 3.0, rel=1e-12)


class TestPanels:
    def test_breakpoints_are_panel_edges(self):
        nodes, weights = quadrature.radial_panels(1.0, 10.0, 6, 10, breakpoints=(2.5,))
        assert len(nodes) == len(weights)
        total = float(np.sum(weights / nodes))
        assert total == pytest.approx(math.log(10.0), rel=1e-12)


class TestAitken:
    def test_geometric_sequence_accelerated(self):
        # s_k = L + c q^k converges to L exactly under Aitken
        L, c, q = 2.5, 0.8, 0.35
        seq = [L + c * q ** k for k in range(6)]
        assert sp.aitken_limit(seq) == pytest.approx(L, abs=1e-12)

    def test_constant_sequence_passthrough(self):
        assert sp.aitken_limit([4.0, 4.0, 4.0]) == pytest.approx(4.0)
