import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import staticpot as sp
from staticpot.geometry import Point3


class TestIntegration:
    def test_flat_geodesics_are_lines(self):
        g = sp.euclidean()
        start = sp.launch_state(g, Point3(1.0, -2.0, 0.5), (0.0, 0.6, 0.8))
        traj = sp.integrate_geodesic(g, start, 4.0, n_samples=40)
        end = traj.positions[-1]
        assert np.allclose(end, [1.0, -2.0 + 0.6 * 4.0, 0.5 + 0.8 * 4.0], atol=1e-10)
        assert traj.max_speed_drift < 1e-10

    def test_unit_speed_preserved_on_curved_chart(self):
        g = sp.schwarzschild(1.0)
        start = sp.launch_state(g, Point3(2.0, 0.0, 0.0), (0.3, 1.0, 0.0))
        traj = sp.integrate_geodesic(g, start, 8.0, n_samples=60)
        assert traj.max_speed_drift < 1e-8

    def test_launch_normalizes_velocity(self):
        g = sp.schwarzschild(2.0)
        p = Point3(3.0, 1.0, 0.0)
        st_ = sp.launch_state(g, p, (5.0, 0.0, 0.0))
        gmat = g.matrix(p)
        speed = math.sqrt(float(st_.velocity @ gmat @ st_.velocity))
        assert speed == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("point, direction", [
        ((4.0, 0.0, 0.0), (math.nan, 0.0, 1.0)),
        ((4.0, 0.0, 0.0), (0.0, math.inf, 1.0)),
        ((math.nan, 0.0, 4.0), (0.0, 0.0, 1.0)),
        ((4.0, -math.inf, 0.0), (0.0, 0.0, 1.0)),
    ])
    def test_launch_rejects_non_finite_input(self, point, direction):
        with pytest.raises(ValueError, match="finite"):
            sp.launch_state(sp.schwarzschild(1.0), point, direction)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("direction", [(1e200, 0.0, 0.0), (1e-170, 0.0, 0.0)])
    def test_launch_at_extreme_scales_is_the_unit_launch(self, direction):
        # v g v overflowed to a zero velocity at 1e200 and underflowed to a refusal at 1e-170
        g = sp.schwarzschild(1.0)
        want = sp.launch_state(g, (3.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        got = sp.launch_state(g, (3.0, 0.0, 0.0), direction)
        assert got.velocity.tobytes() == want.velocity.tobytes()

    def test_launch_rejects_a_zero_direction(self):
        with pytest.raises(ValueError, match="nonzero"):
            sp.launch_state(sp.schwarzschild(1.0), (3.0, 0.0, 0.0), (0.0, 0.0, 0.0))

    def test_launch_keeps_the_bits_of_ordinary_directions(self):
        rng = np.random.default_rng(12)
        g = sp.perturbed_as(1.0, [sp.PerturbationTerm(2, 1, 0.3, (0.0, 0.0, 0.0))])
        for _ in range(300):
            x = rng.normal(size=3)
            x *= rng.uniform(3.0, 9.0) / np.linalg.norm(x)
            v = rng.normal(size=3) * 10.0 ** rng.uniform(-6.0, 6.0)
            gm = g.matrix(Point3.of(x))
            want = v / math.sqrt(v @ gm @ v)
            assert sp.launch_state(g, x, v).velocity.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n_samples", [0, -3])
    def test_integrate_rejects_fewer_than_one_sample(self, n_samples):
        g = sp.schwarzschild(1.0)
        start = sp.launch_state(g, Point3(4.0, 0.0, 0.0), (0.0, 1.0, 0.0))
        with pytest.raises(ValueError, match="n_samples"):
            sp.integrate_geodesic(g, start, 2.0, n_samples=n_samples)

    def test_domain_exit_detected(self):
        g = sp.schwarzschild(2.0)  # exterior chart ends at r = 1
        start = sp.launch_state(g, Point3(1.5, 0.0, 0.0), (-1.0, 0.0, 0.0))
        with pytest.raises(sp.DomainExitError):
            sp.integrate_geodesic(g, start, 5.0)

    @pytest.mark.parametrize("transport", [False, True])
    def test_batched_samples_match_the_per_point_loop(self, transport):
        # the samples are evaluated in one batched pass; the per-point loop is the reference
        g = sp.perturbed_as(1.0, [sp.PerturbationTerm(0, 1, 0.3, (1, 0, 0)),
                                  sp.PerturbationTerm(2, 2, -0.2, (0, 1, 1))])
        start = sp.launch_state(g, Point3(4.0, 1.0, 0.5), (0.3, 1.0, 0.2))
        traj = sp.integrate_geodesic(g, start, 10.0, n_samples=80, transport=transport)
        h_ref, drift_ref = [], 0.0
        for s in traj.states:
            p = Point3(*s.position)
            gm = sp.curvature_at(g, p).metric_matrix if transport else g.matrix(p)
            h_ref.append(float(s.velocity @ sp.curvature_at(g, p).ricci @ s.velocity)
                         if transport else 0.0)
            drift_ref = max(drift_ref, abs(float(s.velocity @ gm @ s.velocity) - 1.0))
        h_ref = np.array(h_ref)
        assert np.max(np.abs(traj.h_values - h_ref)) <= 1e-14 * np.max(np.abs(h_ref))
        assert abs(traj.max_speed_drift - drift_ref) <= 1e-14

    def test_radial_geodesic_stays_radial(self):
        g = sp.schwarzschild(1.0)
        start = sp.launch_state(g, Point3(2.0, 0.0, 0.0), (1.0, 0.0, 0.0))
        traj = sp.integrate_geodesic(g, start, 10.0, n_samples=30)
        pos = np.array(traj.positions)
        assert np.max(np.abs(pos[:, 1])) < 1e-12
        assert np.max(np.abs(pos[:, 2])) < 1e-12


class TestTransport:
    def test_static_potential_transported_exactly(self):
        m = 1.0
        g = sp.schwarzschild(m)
        f = sp.schwarzschild_potential(m)
        p0 = Point3(2.0, 1.0, 0.0)
        start = sp.launch_state(g, p0, (1.0, 0.5, -0.2), f)
        assert start.f_value == f.value(p0)
        assert start.f_slope == float(f.gradient(p0) @ start.velocity)
        carried = sp.integrate_geodesic(g, start, 12.0, n_samples=60, transport=True)
        exact = np.array([f.value(Point3.of(q)) for q in carried.positions])
        assert np.max(np.abs(np.array(carried.f_values) - exact)) < 1e-6

    def test_curve_ode_zero_coefficient_is_linear(self):
        [(ts, us, slopes)] = sp.solve_curve_ode(lambda t, lanes: 0.0, 1.0, 2.0, 0.0, 5.0,
                                                t_eval=np.linspace(0, 5, 11))
        assert np.allclose(us, 1.0 + 2.0 * ts, atol=1e-10)
        assert np.allclose(slopes, 2.0, atol=1e-10)


    def test_curve_ode_rejects_empty_span(self):
        with pytest.raises(ValueError, match="empty integration span"):
            sp.solve_curve_ode(lambda t, lanes: 0.0, 1.0, 2.0, 1.0, 1.0)


class TestGrowthBound:
    def test_exponent_solves_indicial_equation(self):
        b = sp.GrowthBound.from_initial_data(0.75, 1.3, 2.0)
        a = b.alpha
        assert a * (a - 1.0) == pytest.approx(0.75, abs=1e-13)
        assert a > 1.0

    def test_envelope_dominates_initial_data(self):
        b = sp.GrowthBound.from_initial_data(0.5, 1.2, 1.5)
        assert b.w(1.5) >= 1.2
        assert b.w_slope(1.5) >= 1.2

    def test_extremal_solution_reproduced(self):
        eps, r0 = 0.5, 1.0
        b = sp.GrowthBound.from_initial_data(eps, 1.0, r0)
        ts = np.geomspace(r0, 1e4, 300)
        [(sol_t, sol_u, _)] = sp.solve_curve_ode(lambda t, lanes: eps / (t * t),
                                                 0.99 * b.w(r0), 0.99 * b.w_slope(r0),
                                                 r0, 1e4, t_eval=ts)
        exact = 0.99 * b.w(sol_t)
        assert np.max(np.abs(sol_u - exact) / np.abs(exact)) < 1e-8

    def test_comparison_holds_for_admissible_coefficients(self):
        eps, r0, t1 = 0.5, 1.0, 1e4
        b = sp.GrowthBound.from_initial_data(eps, 1.0, r0)
        ts = np.geomspace(r0, t1, 250)
        rng = np.random.default_rng(12)
        scales = np.array([rng.uniform(-1.0, 1.0) for _ in range(10)])
        h = lambda t, lanes: scales[lanes] * eps / (t * t)
        total = 0
        for k, (sol_t, sol_u, _) in enumerate(sp.solve_curve_ode(h, np.ones(10), np.ones(10),
                                                                 r0, t1, t_eval=ts)):
            verdict = sp.growth_bound_check(sol_t, sol_u, b, slope_at_start=1.0,
                                            h_values=h(sol_t, k))
            assert verdict.ok
            total += verdict.violations
        assert total == 0

    def test_rejects_oversized_initial_value(self):
        b = sp.GrowthBound.from_initial_data(0.5, 1.0, 1.0)
        ts = np.linspace(1.0, 10.0, 50)
        fs = np.full_like(ts, 10.0 * b.w(1.0))
        with pytest.raises(sp.PreconditionError):
            sp.growth_bound_check(ts, fs, b)

    def test_rejects_inadmissible_coefficient(self):
        b = sp.GrowthBound.from_initial_data(0.5, 1.0, 1.0)
        ts = np.linspace(1.0, 10.0, 50)
        fs = np.zeros_like(ts)
        h_vals = 5.0 / ts ** 2  # exceeds eps / t^2
        with pytest.raises(sp.PreconditionError):
            sp.growth_bound_check(ts, fs, b, h_values=h_vals)

    def test_rejects_samples_not_anchored_at_r0(self):
        b = sp.GrowthBound.from_initial_data(0.5, 1.0, 1.0)
        ts = np.linspace(2.0, 10.0, 20)
        with pytest.raises(sp.PreconditionError):
            sp.growth_bound_check(ts, np.zeros_like(ts), b)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.05, 2.0), st.floats(-1.0, 1.0))
def test_envelope_property(eps, scale):
    r0, t1 = 1.0, 1e3
    b = sp.GrowthBound.from_initial_data(eps, 0.7, r0)
    h = lambda t, lanes: scale * eps / (t * t)
    ts = np.geomspace(r0, t1, 120)
    [(sol_t, sol_u, _)] = sp.solve_curve_ode(h, 0.7, 0.7, r0, t1, t_eval=ts)
    verdict = sp.growth_bound_check(sol_t, sol_u, b, slope_at_start=0.7,
                                    h_values=h(sol_t, 0))
    assert verdict.ok
