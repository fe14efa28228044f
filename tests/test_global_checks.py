import math

import numpy as np
import pytest

import staticpot as sp
from staticpot import global_checks, quadrature
from staticpot.geometry import Point3


SMALL_RULE = quadrature.sphere_rule(6, 12)


class TestMassFit:
    def test_synthetic_expansion_recovered(self):
        g = sp.euclidean()
        f = sp.expression_potential("1 - 3/r + 7/(r*r)", label="synthetic end")
        fit = sp.fit_mass_expansion(f, g, window=(50.0, 400.0), rule=SMALL_RULE)
        assert fit.mass == pytest.approx(3.0, rel=1e-10)
        assert fit.limit == pytest.approx(1.0, rel=1e-10)
        assert fit.quadratic_coefficient == pytest.approx(7.0, rel=1e-8)
        assert fit.residual_rms < 1e-10

    def test_conformal_slice_mass(self):
        m = 2.0
        g = sp.schwarzschild(m)
        f = sp.schwarzschild_potential(m)
        fit = sp.fit_mass_expansion(f, g, window=(50.0, 400.0), rule=SMALL_RULE)
        # averages pick up the exact 1/r coefficient -m up to the 1/r^2 tail
        assert fit.mass == pytest.approx(m, rel=1e-2)
        assert fit.limit == pytest.approx(1.0, rel=1e-3)

    def test_model_evaluates_the_fit(self):
        g = sp.euclidean()
        f = sp.expression_potential("2 + 5/r", label="shifted end")
        fit = sp.fit_mass_expansion(f, g, window=(60.0, 300.0), rule=SMALL_RULE)
        for r in fit.radii:
            assert fit.model(float(r)) == pytest.approx(
                2.0 + 5.0 / r, rel=1e-9)
        # normalization divides out the limit
        assert fit.mass == pytest.approx(-5.0 / 2.0, rel=1e-9)

    def test_linear_part_trips_gate(self):
        g = sp.euclidean()
        f = sp.affine(0.0, 0.3, 0.0, 0.0)
        with pytest.raises(sp.UnboundedPotentialError):
            sp.fit_mass_expansion(f, g, window=(50.0, 200.0), rule=SMALL_RULE)

    def test_vanishing_limit_is_degenerate(self):
        g = sp.euclidean()
        f = sp.expression_potential("1/r", label="pure decay")
        with pytest.raises(sp.IllConditionedFitError):
            sp.fit_mass_expansion(f, g, window=(50.0, 200.0), rule=SMALL_RULE)


class TestCurvatureDecayModel:
    def test_exact_on_conformal_slice(self):
        g = sp.schwarzschild(1.0)
        for p in [Point3(20.0, 0.0, 0.0), Point3(5.0, -7.0, 11.0),
                  Point3(0.0, 30.0, -4.0)]:
            res = sp.curvature_decay_residual(g, 1.0, p)
            assert res.residual < 1e-12
            assert np.allclose(res.computed, res.model, atol=1e-12)

    def test_model_mass_comes_from_the_caller(self):
        # one geometry, one residual: wrapping the components keeps every bit
        s = sp.schwarzschild(2.0)
        wrapped = sp.generic_metric(s.components, boundary_margin=s.boundary_margin)
        nodes = [Point3(10.0, 3.0, -4.0)] + sp.sample_shell(np.random.default_rng(4), 8, 1.5, 40.0)
        for p in nodes + [Point3.stack(nodes)]:
            a = sp.curvature_decay_residual(wrapped, 2.0, p)
            b = sp.curvature_decay_residual(s, 2.0, p)
            assert np.asarray(a.residual).tobytes() == np.asarray(b.residual).tobytes()
            assert a.model.tobytes() == b.model.tobytes()
        assert sp.curvature_decay_residual(wrapped, 2.0, nodes[0]).residual < 1e-15

    def test_perturbation_scales_out_at_fourth_order(self):
        terms = [sp.PerturbationTerm(0, 0, 0.5, (0, 0, 0)),
                 sp.PerturbationTerm(2, 2, -0.4, (0, 0, 0))]
        g = sp.perturbed_as(1.0, terms)
        dirs = quadrature.sphere_rule(4, 8).directions

        def worst(r):
            return max(sp.curvature_decay_residual(g, 1.0, Point3.of(r * d)).residual
                       for d in dirs)

        lo, hi = worst(20.0), worst(40.0)
        ratio = hi / lo
        # perturbation decays two orders faster than the model terms
        assert 2.0 ** -4 / 1.5 <= ratio <= 2.0 ** -4 * 1.5

    def test_residual_is_rotation_covariant(self):
        terms = [sp.PerturbationTerm(0, 1, 0.3, (0, 0, 0))]
        g = sp.perturbed_as(1.0, terms)
        theta = 0.37
        q = np.array([[math.cos(theta), -math.sin(theta), 0.0],
                      [math.sin(theta), math.cos(theta), 0.0],
                      [0.0, 0.0, 1.0]])
        rotated = sp.rotate_chart(g, q)
        p = Point3(12.0, 3.0, -5.0)
        a = sp.curvature_decay_residual(g, 1.0, p).residual
        b = sp.curvature_decay_residual(rotated, 1.0, Point3.of(q.T @ p.as_array())).residual
        assert b == pytest.approx(a, rel=1e-7)


class TestAnisotropyLimit:
    @pytest.mark.parametrize("mass", [2.0, -1.0])
    def test_extrapolates_to_three_masses(self, mass):
        f = sp.expression_potential("x1 + 0.5*ln(x2^2 + x3^2)", label="log graph")
        g = sp.schwarzschild(mass)
        region = sp.AnnulusRegion(50.0, 1000.0)
        graph = sp.extract_zero_graph(f, g, region, n_u=4, n_v=8,
                                      bracket=(-10.0, 2.0))
        heights = [100.0, 140.0, 200.0, 280.0, 400.0, 560.0, 800.0]
        report = sp.anisotropy_limit(g, graph, heights)
        assert report.extrapolated == pytest.approx(3.0 * mass, rel=0.05)
        # the raw scaled differences already hover near the limit
        assert np.all(np.abs(report.scaled_differences / (3.0 * mass) - 1.0) < 0.2)

    def test_heights_must_stay_in_region(self):
        f = sp.expression_potential("x1 + 0.5*ln(x2^2 + x3^2)", label="log graph")
        g = sp.schwarzschild(1.0)
        region = sp.AnnulusRegion(50.0, 300.0)
        graph = sp.extract_zero_graph(f, g, region, n_u=3, n_v=6,
                                      bracket=(-10.0, 2.0))
        with pytest.raises(sp.ResolutionError):
            sp.anisotropy_limit(g, graph, [100.0, 400.0])


class TestIntegralIdentity:
    def test_shell_balance_on_conformal_slice(self):
        m = 1.0
        g = sp.schwarzschild(m)
        f = sp.schwarzschild_potential(m)
        report = sp.integral_identity_check(f, g, 2.0, 20.0, rule=SMALL_RULE,
                                            n_panels=12, nodes_per_panel=8)
        assert report.relative_defect < 1e-8
        assert report.bulk > 0.0
        assert report.flux_outer > report.flux_inner

    def test_defect_arithmetic(self):
        report = global_checks.IntegralReport(bulk=5.0, flux_inner=2.0,
                                              flux_outer=7.0)
        assert report.defect == 0.0
        assert report.relative_defect == 0.0

    def test_non_static_pair_is_rejected(self):
        g = sp.schwarzschild(1.0)
        f = sp.expression_potential("x1", label="wrong potential")
        with pytest.raises(sp.NotStaticError):
            sp.integral_identity_check(f, g, 2.0, 20.0, rule=SMALL_RULE)


class TestCapacityBalance:
    def test_balance_on_conformal_slice(self):
        m = 1.0
        g = sp.schwarzschild(m, exterior_only=False)
        f = sp.schwarzschild_potential(m)
        balance = sp.capacity_balance_instance(m, f, g, r_outer=40.0,
                                               rule=SMALL_RULE, n_panels=18,
                                               nodes_per_panel=8,
                                               n_theta=6, n_phi=12)
        assert balance.euler_characteristic == 2
        assert balance.boundary_gradient == pytest.approx(1.0 / (4.0 * m),
                                                          abs=1e-10)
        assert balance.boundary_gradient_spread < 1e-10
        assert balance.relative_gap < 0.02
        # both sides equal 2 pi / m for this instance
        assert balance.predicted == pytest.approx(2.0 * math.pi / m, rel=1e-9)

    def test_positive_mass_required(self):
        g = sp.schwarzschild(1.0, exterior_only=False)
        f = sp.schwarzschild_potential(1.0)
        with pytest.raises(ValueError):
            sp.capacity_balance_instance(-1.0, f, g)


class TestConformalDouble:
    def test_both_signs_scalar_flat(self):
        m = 1.0
        g = sp.schwarzschild(m)
        f = sp.schwarzschild_potential(m)
        for p in [Point3(2.0, 0.0, 0.0), Point3(1.0, -3.0, 2.0),
                  Point3(0.7, 0.7, 0.7)]:
            plus = sp.conformal_double_scalar(f, g, 1, p)
            minus = sp.conformal_double_scalar(f, g, -1, p)
            assert abs(plus) < 1e-10
            assert abs(minus) < 1e-10

    def test_control_pair_is_not_flat(self):
        g = sp.euclidean()
        f = sp.expression_potential("x1*x1", label="quadratic control")
        val = sp.conformal_double_scalar(f, g, 1, Point3(1.0, 0.0, 0.0))
        assert val == pytest.approx(-0.5, abs=1e-10)

    def test_degenerate_factor_raises(self):
        g = sp.euclidean()
        f = sp.PotentialField(lambda x1, x2, x3: 2.0 + 0.0 * x1, label="big")
        with pytest.raises(sp.DegenerateConformalError):
            sp.conformal_double_scalar(f, g, -1, Point3(1.0, 0.0, 0.0))

    def test_sign_validation(self):
        g = sp.euclidean()
        f = sp.expression_potential("x1", label="plane")
        with pytest.raises(ValueError):
            sp.conformal_double_scalar(f, g, 0, Point3(1.0, 0.0, 0.0))


class TestFlowClassification:
    def test_escape_with_unit_limit(self):
        m = 1.0
        g = sp.schwarzschild(m)
        f = sp.schwarzschild_potential(m)
        budget = global_checks.FlowBudget(r_escape=700.0)
        trace = sp.flow_classify(f, g, Point3(0.6, 0.0, 0.0), budget)
        assert trace.classification == global_checks.ESCAPE_TO_END
        assert trace.limit_estimate == pytest.approx(1.0, abs=1e-3)
        assert trace.monotone_violations == 0
        radii = [float(np.linalg.norm(s.position)) for s in trace.samples]
        assert radii[-1] >= 700.0

    def test_converges_to_critical_point(self):
        g = sp.euclidean()
        f = sp.expression_potential("-(x1*x1 + x2*x2 + x3*x3)", label="sink")
        trace = sp.flow_classify(f, g, Point3(1.0, 0.0, 0.0),
                                 global_checks.FlowBudget(r_escape=50.0,
                                                          t_max=50.0))
        assert trace.classification == global_checks.CONVERGE_CRITICAL
        assert trace.limit_estimate is None

    def test_unbounded_escape_reports_infinite_limit(self):
        g = sp.euclidean()
        f = sp.affine(0.0, 1.0, 0.0, 0.0)
        trace = sp.flow_classify(f, g, Point3(0.1, 0.0, 0.0),
                                 global_checks.FlowBudget(r_escape=25.0,
                                                          t_max=1e4))
        assert trace.classification == global_checks.ESCAPE_TO_END
        assert math.isinf(trace.limit_estimate)

    def test_descending_flow_exits_chart(self):
        g = sp.schwarzschild(1.0)
        f = sp.expression_potential("-(1 - 0.5/r)/(1 + 0.5/r)",
                                    label="reversed potential")
        trace = sp.flow_classify(f, g, Point3(2.0, 0.0, 0.0),
                                 global_checks.FlowBudget(t_max=1e4))
        assert trace.classification == global_checks.EXIT_BOUNDARY

    @pytest.mark.parametrize("r_escape", [0.6, math.nan])
    def test_escape_radius_inside_the_start_is_refused(self, r_escape):
        # the flow could never cross it, so no time budget would resolve it
        g = sp.schwarzschild(1.0)
        f = sp.schwarzschild_potential(1.0)
        with pytest.raises(ValueError, match="r_escape .* must exceed the start point's"):
            sp.flow_classify(f, g, Point3(0.6, 0.0, 0.0),
                             global_checks.FlowBudget(r_escape=r_escape))

    def test_time_budget_leaves_unresolved(self):
        g = sp.schwarzschild(1.0)
        f = sp.schwarzschild_potential(1.0)
        trace = sp.flow_classify(f, g, Point3(0.6, 0.0, 0.0),
                                 global_checks.FlowBudget(t_max=1e-3))
        assert trace.classification == global_checks.UNRESOLVED
        assert trace.limit_estimate is None
