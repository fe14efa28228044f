import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import staticpot as sp
from staticpot.geometry import PerturbationTerm, Point3

from .reference_pointwise import reconstruct_riemann_from_ricci


def conformal_phi(m, r):
    return 1.0 + m / (2.0 * r)


class TestFlat:
    def test_riemann_vanishes(self):
        g = sp.euclidean()
        rng = np.random.default_rng(7)
        for _ in range(10):
            p = Point3.of(rng.uniform(-5, 5, 3))
            b = sp.curvature_at(g, p)
            assert np.max(np.abs(b.riemann)) < 1e-12
            assert abs(b.scalar) < 1e-12

    def test_christoffel_vanishes(self):
        g = sp.euclidean()
        gam = sp.christoffel_at(g, Point3(1.0, 2.0, 3.0))
        assert np.max(np.abs(gam)) == 0.0


class TestSchwarzschild:
    """The conformally flat chart has closed-form curvature to pin against."""

    def exact_eigenvalues(self, m, r):
        phi6 = conformal_phi(m, r) ** 6
        return -2.0 * m / (r ** 3 * phi6), m / (r ** 3 * phi6)

    def test_ricci_eigenvalues_exact(self):
        m = 2.0
        g = sp.schwarzschild(m)
        for p in [Point3(3.0, 1.0, -2.0), Point3(0.0, 0.0, 4.0), Point3(-5.0, 2.0, 1.0)]:
            lam_rad, lam_tan = self.exact_eigenvalues(m, p.r)
            b = sp.curvature_at(g, p)
            gmat = b.metric_matrix
            from scipy.linalg import eigh
            vals = eigh(b.ricci, gmat, eigvals_only=True)
            assert vals[0] == pytest.approx(lam_rad, rel=1e-12)
            assert vals[1] == pytest.approx(lam_tan, rel=1e-12)
            assert vals[2] == pytest.approx(lam_tan, rel=1e-12)

    def test_scalar_curvature_vanishes(self):
        g = sp.schwarzschild(1.0)
        rng = np.random.default_rng(3)
        for p in sp.sample_shell(rng, 20, 0.8, 30.0):
            assert abs(sp.curvature_at(g, p).scalar) < 1e-13

    def test_ricci_closed_form_matrix(self):
        # Ric = (m / r^3) phi^-2 (I - 3 rhat rhat^T) in this chart
        m = 1.5
        g = sp.schwarzschild(m)
        p = Point3(2.0, -1.0, 0.5)
        r = p.r
        rhat = p.as_array() / r
        expected = (m / r ** 3) * conformal_phi(m, r) ** -2 * (np.eye(3) - 3.0 * np.outer(rhat, rhat))
        b = sp.curvature_at(g, p)
        assert np.allclose(b.ricci, expected, atol=1e-14)

    def test_ricci_norm_closed_form(self):
        m = 2.0
        g = sp.schwarzschild(m)
        p = Point3(4.0, 4.0, 2.0)
        r = p.r
        b = sp.curvature_at(g, p)
        ginv = np.linalg.inv(b.metric_matrix)
        norm2 = float(np.einsum("ij,kl,ik,jl->", b.ricci, b.ricci, ginv, ginv))
        expected = 6.0 * m * m / (r ** 6 * conformal_phi(m, r) ** 12)
        assert norm2 == pytest.approx(expected, rel=1e-12)

    def test_negative_mass_chart(self):
        g = sp.schwarzschild(-1.0)
        p = Point3(2.0, 0.0, 0.0)
        assert abs(sp.curvature_at(g, p).scalar) < 1e-13

    def test_domain_enforced(self):
        g = sp.schwarzschild(2.0)
        with pytest.raises(sp.DomainError):
            sp.curvature_at(g, Point3(0.5, 0.0, 0.0))

    def test_zero_mass_rejected(self):
        with pytest.raises(ValueError):
            sp.schwarzschild(0.0)


class TestBackends:
    def test_fd_matches_dual_on_curved_metric(self):
        g = sp.schwarzschild(2.0)
        rng = np.random.default_rng(11)
        for p in sp.sample_shell(rng, 10, 1.6, 9.0):
            a = sp.curvature_at(g, p, backend="dual")
            b = sp.curvature_at(g, p, backend="fd")
            scale = max(1.0e-30, float(np.max(np.abs(a.ricci))))
            assert np.max(np.abs(a.ricci - b.ricci)) / scale < 1e-6

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError):
            sp.curvature_at(sp.euclidean(), Point3(1, 0, 0), backend="symbolic")


class TestReconstruction:
    def test_riemann_rebuilt_from_ricci_in_3d(self):
        g = sp.schwarzschild(1.0)
        p = Point3(1.5, -0.5, 1.0)
        b = sp.curvature_at(g, p)
        rebuilt = reconstruct_riemann_from_ricci(b.ricci, b.scalar, b.metric_matrix)
        assert np.allclose(rebuilt, b.riemann, atol=1e-12)

    def test_first_bianchi(self):
        terms = [PerturbationTerm(0, 1, 0.2, (1, 0, 0))]
        g = sp.perturbed_as(1.0, terms)
        p = Point3(3.0, 2.0, -1.0)
        riem = sp.curvature_at(g, p).riemann
        # R^d_{abc} + R^d_{bca} + R^d_{cab} = 0
        cyc = riem + np.transpose(riem, (0, 2, 3, 1)) + np.transpose(riem, (0, 3, 1, 2))
        assert np.max(np.abs(cyc)) < 1e-10


class TestRotation:
    def test_pullback_scalar_invariant(self):
        terms = [PerturbationTerm(0, 0, 0.4, (0, 0, 0)),
                 PerturbationTerm(1, 2, 0.25, (0, 1, 0))]
        g = sp.perturbed_as(1.0, terms)
        theta = 0.7
        q = np.array([[math.cos(theta), -math.sin(theta), 0.0],
                      [math.sin(theta), math.cos(theta), 0.0],
                      [0.0, 0.0, 1.0]])
        rotated = sp.rotate_chart(g, q)
        p = Point3(4.0, 1.0, 2.0)
        a = sp.curvature_at(g, p).scalar
        b = sp.curvature_at(rotated, Point3.of(q.T @ p.as_array())).scalar
        assert a == pytest.approx(b, rel=1e-10, abs=1e-12)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(sp.NotOrthogonalError):
            sp.rotate_chart(sp.euclidean(), np.array([[1.0, 0.1, 0.0],
                                                      [0.0, 1.0, 0.0],
                                                      [0.0, 0.0, 1.0]]))


class TestPerturbedDecay:
    def test_curvature_decay_rate(self):
        terms = [PerturbationTerm(0, 0, 0.5, (0, 0, 0)),
                 PerturbationTerm(1, 2, 0.3, (0, 0, 0))]
        g = sp.perturbed_as(1.0, terms)
        radii = np.geomspace(20.0, 200.0, 6)
        d = np.array([0.6, -0.64, 0.48])
        d /= np.linalg.norm(d)
        norms = []
        for r in radii:
            b = sp.curvature_at(g, Point3.of(r * d))
            norms.append(np.max(np.abs(b.ricci)))
        slope = np.polyfit(np.log(radii), np.log(norms), 1)[0]
        assert slope <= -2.0 - 1.0 + 0.3   # Ricci decays like r^-3 on a 1/r end

    def test_perturbation_term_validation(self):
        with pytest.raises(ValueError):
            PerturbationTerm(0, 3, 0.1, (0, 0, 0))
        with pytest.raises(ValueError):
            PerturbationTerm(0, 0, 0.1, (2, 1, 0))

    def test_term_indices_are_integers(self):
        # a fractional index is refused; an integral float one indexes as its int
        for i, j in [(0.5, 0), (1, 1.5)]:
            with pytest.raises(ValueError, match="integers in 0..2"):
                PerturbationTerm(i, j, 0.1)
        floats = [PerturbationTerm(1.0, 0, 0.1), PerturbationTerm(2.0, 1.0, 0.2, (1, 0, 0))]
        ints = [PerturbationTerm(1, 0, 0.1), PerturbationTerm(2, 1, 0.2, (1, 0, 0))]
        assert [type(k) for t in floats for k in (t.i, t.j)] == [int] * 4
        points = Point3.stack([(3.0, 1.0, 0.0), (-4.0, 0.5, 5.0)])
        a = sp.curvature_at(sp.perturbed_as(1.0, floats), points)
        b = sp.curvature_at(sp.perturbed_as(1.0, ints), points)
        for field in dataclasses.fields(a):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(x, np.ndarray):
                assert x.tobytes() == y.tobytes(), field.name

    def test_integral_float_powers_act_as_ints(self):
        floats = [PerturbationTerm(0, 2, 0.3, (1.0, 0.0, 1.0)),
                  PerturbationTerm(1, 1, -0.2, (0.0, 2.0, 0.0))]
        ints = [PerturbationTerm(0, 2, 0.3, (1, 0, 1)), PerturbationTerm(1, 1, -0.2, (0, 2, 0))]
        assert [type(p) for t in floats for p in t.powers] == [int] * 6
        points = Point3.stack([(3.0, -1.0, 2.0), (-4.0, 0.5, 5.0)])
        a = sp.curvature_at(sp.perturbed_as(1.0, floats), points)
        b = sp.curvature_at(sp.perturbed_as(1.0, ints), points)
        for field in dataclasses.fields(a):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(x, np.ndarray):
                assert x.tobytes() == y.tobytes(), field.name

    def test_singular_metric_detected(self):
        # amplitude large enough to break positivity near the inner edge
        bad = sp.generic_metric(
            lambda x1, x2, x3: [[x1 * 0.0 + 1.0, 0.0, 0.0],
                                [0.0, -1.0 + 0.0 * x2, 0.0],
                                [0.0, 0.0, 1.0]],
            label="indefinite")
        with pytest.raises(sp.SingularMetricError):
            sp.curvature_at(bad, Point3(1.0, 1.0, 1.0))


class TestRicciDerivative:
    def test_matches_fd_of_ricci(self):
        g = sp.schwarzschild(1.0)
        p = Point3(2.0, 1.0, -1.0)
        dric = sp.ricci_with_derivative(g, p).dricci
        h = 1e-5
        for c in range(3):
            dp = np.zeros(3)
            dp[c] = h
            rp = sp.curvature_at(g, Point3.of(p.as_array() + dp)).ricci
            rm = sp.curvature_at(g, Point3.of(p.as_array() - dp)).ricci
            fd = (rp - rm) / (2 * h)
            assert np.allclose(dric[c], fd, atol=1e-7)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.5, 4.0), st.floats(-1, 1), st.floats(-1, 1), st.floats(-1, 1))
def test_scalar_flatness_property(m, a, b, c):
    v = np.array([a, b, c])
    n = np.linalg.norm(v)
    if n < 0.1:
        v = np.array([1.0, 0.0, 0.0])
        n = 1.0
    p = Point3.of((m + 2.0) * v / n)
    g = sp.schwarzschild(m)
    assert abs(sp.curvature_at(g, p).scalar) < 1e-11
