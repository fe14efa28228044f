import math

import numpy as np
import pytest

import staticpot as sp
from staticpot import quadrature


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
