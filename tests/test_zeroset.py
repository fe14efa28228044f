import math

import numpy as np
import pytest

import staticpot as sp
from staticpot import zeroset
from staticpot.geometry import Point3


def log_graph_potential():
    # zero set is the rotationally symmetric graph x1 = -ln sqrt(x2^2 + x3^2)
    return sp.expression_potential("x1 + 0.5*ln(x2^2 + x3^2)", label="log graph")


def warped_chart():
    """Totally geodesic strip {x1 = 0} inside the warped product chart."""
    g = sp.generic_metric(
        lambda x1, x2, x3: [[x2 ** (4.0 / 3.0), 0.0, 0.0],
                            [0.0, 1.0 + 0.0 * x1, 0.0],
                            [0.0, 0.0, x2 ** (-2.0 / 3.0)]],
        label="warped half space",
        boundary_margin=lambda p: p.x2 - 1e-6)
    f = sp.PotentialField(lambda x1, x2, x3: x1 * x2 ** (2.0 / 3.0), label="warped f")
    chart = zeroset.SurfaceChart(
        f, g,
        embed=lambda u, v, s: (s, u, v),
        bracket=(-1.0, 1.0),
        label="strip")
    return g, f, chart


class TestGraphExtraction:
    def test_log_graph_heights(self):
        g = sp.euclidean()
        f = log_graph_potential()
        region = sp.AnnulusRegion(1.0, 9.0)
        graph = sp.extract_zero_graph(f, g, region, n_u=5, n_v=8,
                                      bracket=(-4.0, 2.0))
        for (u, v), h in zip(graph.nodes, graph.heights):
            rho = math.hypot(u, v)
            assert h == pytest.approx(-math.log(rho), abs=1e-10)

    def test_node_outside_the_metric_chart_is_refused(self):
        # the plane x1 = 0 over an annulus reaching inside the chart r > m/2:
        # extraction reads the metric at every surface point, once
        f = sp.expression_potential("x1", label="plane")
        with pytest.raises(sp.DomainError) as outside:
            sp.extract_zero_graph(f, sp.schwarzschild(2.0), sp.AnnulusRegion(0.2, 3.0),
                                  n_u=3, n_v=4, bracket=(-1.0, 1.0))
        assert type(outside.value) is sp.DomainError
        assert str(outside.value) == ("schwarzschild(m=2): point (0.0, 0.21000000000000002, "
                                      "0.0) outside chart domain")

    def test_gaussian_curvature_closed_form(self):
        g = sp.euclidean()
        f = log_graph_potential()
        region = sp.AnnulusRegion(1.0, 9.0)
        graph = sp.extract_zero_graph(f, g, region, n_u=4, n_v=8,
                                      bracket=(-4.0, 2.0))
        for rho in (1.5, 2.0, 4.0):
            K = zeroset.gaussian_curvature(graph.chart, 0.0, rho)
            assert K == pytest.approx(-1.0 / (rho * rho + 1.0) ** 2, rel=1e-12)

    def test_turning_integral_closed_form(self):
        g = sp.euclidean()
        f = log_graph_potential()
        region = sp.AnnulusRegion(1.0, 9.0)
        graph = sp.extract_zero_graph(f, g, region, n_u=4, n_v=8,
                                      bracket=(-4.0, 2.0))
        for R in (2.0, 5.0):
            turn = sp.circle_turning(graph, R, n_angles=96)
            expected = 2.0 * math.pi * R / math.sqrt(R * R + 1.0)
            assert turn.turning_integral == pytest.approx(expected, rel=1e-6)

    def test_gauss_bonnet_defect_matches_total_curvature(self):
        # turning integral = 2 pi + integral of K over the enclosed disk here
        g = sp.euclidean()
        f = log_graph_potential()
        region = sp.AnnulusRegion(0.5, 20.0)
        graph = sp.extract_zero_graph(f, g, region, n_u=4, n_v=8,
                                      bracket=(-4.0, 3.0))
        R = 6.0
        turn = sp.circle_turning(graph, R, n_angles=96)
        # integral of K over the full graph disk of coordinate radius R:
        # 2 pi [ -1/2 + ... ] has the closed form below for this surface
        total_K = 2.0 * math.pi * (R / math.sqrt(R * R + 1.0) - 1.0)
        assert turn.turning_integral - 2.0 * math.pi == pytest.approx(total_K, rel=1e-6)


class TestRootFinding:
    def test_no_root_raises(self):
        g = sp.euclidean()
        f = sp.expression_potential("x1*x1 + 1")  # never zero on any line
        chart = zeroset.SurfaceChart(f, g, embed=lambda u, v, s: (s, u, v),
                                     bracket=(-1.0, 1.0),
                                     label="missing")
        with pytest.raises(sp.NoRootError):
            chart.root(0.5, 0.5)

    def test_multi_root_raises(self):
        g = sp.euclidean()
        f = sp.expression_potential("x1*x1 - 0.25")  # two crossings
        chart = zeroset.SurfaceChart(f, g, embed=lambda u, v, s: (s, u, v),
                                     bracket=(-1.0, 1.0),
                                     label="double")
        with pytest.raises(sp.MultiRootError):
            chart.root(0.0, 0.0)

    def test_shallow_slope_raises(self):
        g = sp.euclidean()
        f = sp.expression_potential("0.001*x1")
        chart = zeroset.SurfaceChart(f, g, embed=lambda u, v, s: (s, u, v),
                                     bracket=(-1.0, 1.0),
                                     slope_floor=0.5, label="shallow")
        with pytest.raises(sp.MonotonicityError):
            chart.root(0.0, 0.0)

    def test_root_jet_matches_fd(self):
        g = sp.euclidean()
        f = log_graph_potential()
        chart = zeroset.SurfaceChart(f, g, embed=lambda u, v, s: (s, u, v),
                                     bracket=(-4.0, 2.0),
                                     label="log")
        u, v = 1.3, 2.1
        du, dv = chart.lift(u, v).slopes
        h = 1e-6
        fd_u = (chart.root(u + h, v) - chart.root(u - h, v)) / (2 * h)
        fd_v = (chart.root(u, v + h) - chart.root(u, v - h)) / (2 * h)
        assert du == pytest.approx(fd_u, abs=1e-7)
        assert dv == pytest.approx(fd_v, abs=1e-7)


class TestClosedComponent:
    def test_horizon_sphere_geometry(self):
        m = 2.0
        g = sp.schwarzschild(m, exterior_only=False)
        f = sp.schwarzschild_potential(m)
        comp = sp.extract_closed_component(f, g, (0.0, 0.0, 0.0),
                                           s_bracket=(0.25 * m, 0.8 * m),
                                           n_theta=10, n_phi=20)
        # |grad N| is the constant surface gravity 1 / (4m)
        assert np.allclose(comp.grad_norms, 1.0 / (4.0 * m), rtol=1e-10)
        # area of the minimal sphere is 16 pi m^2
        assert comp.area() == pytest.approx(16.0 * math.pi * m * m, rel=1e-10)
        # total curvature 4 pi, i.e. K = 1 / (2m)^2 pointwise
        assert comp.curvature_integral() == pytest.approx(4.0 * math.pi, rel=1e-12)
        th, ph = np.meshgrid(np.linspace(0.3, 2.8, 5), np.linspace(0.0, 6.0, 4))
        K = zeroset.gaussian_curvature(comp.chart, th, ph)
        assert K.shape == th.shape
        assert np.allclose(K, 1.0 / (2.0 * m) ** 2, rtol=1e-12, atol=0.0)

    def test_critical_zero_set_rejected(self):
        g = sp.euclidean()
        # gradient vanishes on the whole zero set of (r^2 - 1)^2 - small
        f = sp.PotentialField(
            lambda x1, x2, x3: (x1 * x1 + x2 * x2 + x3 * x3 - 1.0) ** 3,
            label="cubic degenerate")
        with pytest.raises((sp.CriticalOnZeroSetError, sp.MonotonicityError)):
            sp.extract_closed_component(f, g, (0.0, 0.0, 0.0),
                                        s_bracket=(0.5, 1.5),
                                        n_theta=6, n_phi=8)


class TestAdaptedLaws:
    def test_zero_set_laws_on_warped_strip(self):
        g, f, chart = warped_chart()
        samples = [(1.0, 0.0), (2.0, 1.0), (3.0, -2.0), (1.5, 3.0)]
        report = sp.zero_set_laws(f, g, chart, samples)
        # |grad f| = 1 along the strip in this chart
        assert np.allclose(report.grad_norms, 1.0, atol=1e-10)
        assert report.grad_norm_spread < 1e-10
        assert np.max(report.tangential_ricci_max) < 1e-9
        assert np.max(report.eigen_residuals) < 1e-9
        assert np.max(report.r11_r22_gaps) < 1e-9
        k_scale = float(np.max(np.abs(report.k_values)))
        for (u, v), K in zip(samples, report.k_values):
            assert K == pytest.approx(-4.0 / (9.0 * u * u), rel=1e-12)
        assert np.max(report.k_minus_2r11) < 1e-12 * k_scale
        assert np.max(report.k_plus_r33) < 1e-12 * k_scale

    def test_zero_set_laws_on_horizon(self):
        m = 1.0
        g = sp.schwarzschild(m, exterior_only=False)
        f = sp.schwarzschild_potential(m)
        comp = sp.extract_closed_component(f, g, (0.0, 0.0, 0.0),
                                           s_bracket=(0.25 * m, 0.8 * m),
                                           n_theta=6, n_phi=8)
        samples = [(0.8, 1.0), (1.5, 2.0), (2.0, 4.0)]
        report = sp.zero_set_laws(f, g, comp.chart, samples)
        assert np.allclose(report.grad_norms, 0.25, atol=1e-10)
        assert np.max(report.eigen_residuals) < 1e-9
        K_expected = 1.0 / (2.0 * m) ** 2
        for K in report.k_values:
            assert K == pytest.approx(K_expected, rel=1e-12)
        assert np.max(report.k_minus_2r11) < 1e-12 * K_expected
        assert np.max(report.k_plus_r33) < 1e-12 * K_expected

    def test_static_tol_is_keyword_only(self):
        # a stale positional list (the old stencil steps) must not become static_tol
        g, f, chart = warped_chart()
        with pytest.raises(TypeError):
            sp.zero_set_laws(f, g, chart, [(1.0, 0.0)], [0.02])
        report = sp.zero_set_laws(f, g, chart, [(1.0, 0.0)], static_tol=1e-8)
        assert report.k_values.shape == (1,)


class TestRegions:
    def test_annulus_rejects_outside_points(self):
        # a circle must lie inside the open annulus, edges excluded
        graph = sp.extract_zero_graph(log_graph_potential(), sp.euclidean(),
                                      sp.AnnulusRegion(2.0, 10.0), n_u=2, n_v=4,
                                      bracket=(-4.0, 2.0))
        for radius in (0.5, 2.0, 10.0, 12.0):
            with pytest.raises(sp.ResolutionError, match="outside the annulus"):
                sp.circle_turning(graph, radius, n_angles=8)
        assert sp.circle_turning(graph, 2.0 + 1e-9, n_angles=8).length > 0.0
