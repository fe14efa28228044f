import math

import numpy as np
import pytest

import staticpot as sp
from staticpot.geometry import PerturbationTerm, Point3


def warped_pair():
    """A product-like chart carrying two independent static potentials.

    g = diag(x2^(4/3), 1, x2^(-2/3)) on the half space x2 > 0 admits
    N = x2^(2/3) and f = x1 * x2^(2/3); both are checked static below.
    """
    g = sp.generic_metric(
        lambda x1, x2, x3: [[x2 ** (4.0 / 3.0), 0.0, 0.0],
                            [0.0, 1.0 + 0.0 * x1, 0.0],
                            [0.0, 0.0, x2 ** (-2.0 / 3.0)]],
        label="warped half space",
        boundary_margin=lambda p: p.x2 - 1e-6)
    N = sp.PotentialField(lambda x1, x2, x3: x2 ** (2.0 / 3.0), label="warped N")
    f = sp.PotentialField(lambda x1, x2, x3: x1 * x2 ** (2.0 / 3.0), label="warped f")
    return g, N, f


class TestTod:
    def test_residuals_vanish_on_schwarzschild(self):
        m = 1.5
        g = sp.schwarzschild(m)
        f = sp.schwarzschild_potential(m)
        rng = np.random.default_rng(9)
        worst = 0.0
        for p in sp.sample_shell(rng, 25, 1.2, 15.0):
            res = sp.tod_identity_residuals(f, g, p)
            worst = max(worst, float(np.max(np.abs(res))))
        assert worst < 1e-5

    def test_residuals_vanish_on_flat(self):
        g = sp.euclidean()
        f = sp.affine(1.0, 0.5, -0.25, 2.0)
        res = sp.tod_identity_residuals(f, g, Point3(1.0, -2.0, 0.5))
        assert np.max(np.abs(res)) < 1e-14

    def test_static_gate(self):
        g = sp.schwarzschild(1.0)
        with pytest.raises(sp.NotStaticError):
            sp.tod_identity_residuals(sp.affine(0, 1, 0, 0), g, Point3(2.0, 0.0, 0.0))


class TestEigenframe:
    def test_flat_fully_degenerate(self):
        frame = sp.ricci_eigenframe(sp.euclidean(), Point3(1.0, 2.0, 3.0))
        assert frame.kind == sp.ALL_EQUAL
        assert frame.simple_index is None

    def test_schwarzschild_two_equal_radial(self):
        m = 2.0
        g = sp.schwarzschild(m)
        p = Point3(3.0, -1.0, 2.0)
        frame = sp.ricci_eigenframe(g, p)
        assert frame.kind == sp.TWO_EQUAL
        d = frame.frame[:, frame.simple_index]
        radial = p.as_array() / p.r
        alignment = abs(float(d @ radial) / np.linalg.norm(d))
        assert alignment == pytest.approx(1.0, abs=1e-10)

    def test_frame_is_metric_orthonormal(self):
        g = sp.schwarzschild(1.0)
        p = Point3(2.0, 2.0, -1.0)
        frame = sp.ricci_eigenframe(g, p)
        gram = frame.frame.T @ g.matrix(p) @ frame.frame
        assert np.allclose(gram, np.eye(3), atol=1e-12)

    def test_eigenvalues_ascending(self):
        g = sp.schwarzschild(1.0)
        frame = sp.ricci_eigenframe(g, Point3(2.0, 0.0, 0.0))
        assert frame.eigenvalues[0] <= frame.eigenvalues[1] <= frame.eigenvalues[2]

    def test_generic_metric_all_distinct(self):
        g = sp.generic_metric(
            lambda x1, x2, x3: [[1.0 + 0.3 * x2 * x2, 0.0, 0.0],
                                [0.0, 1.0 + 0.2 * x1 * x1, 0.0],
                                [0.0, 0.0, 1.0 + 0.1 * x1 * x2]],
            label="anisotropic")
        frame = sp.ricci_eigenframe(g, Point3(0.7, 1.3, 0.2))
        assert frame.kind == sp.ALL_DISTINCT
        assert frame.pair is None

    def test_degenerate_metric_rejected(self):
        bad = sp.generic_metric(
            lambda x1, x2, x3: [[1.0 + 0.0 * x1, 0.0, 0.0],
                                [0.0, 1.0, 0.0],
                                [0.0, 0.0, 1e-14]],
            label="collapsing")
        with pytest.raises((sp.SingularMetricError, sp.DegenerateMetricError)):
            sp.ricci_eigenframe(bad, Point3(1.0, 0.0, 0.0))


class TestQuotient:
    def test_warped_pair_is_static(self):
        g, N, f = warped_pair()
        for p in [Point3(0.5, 1.0, 0.0), Point3(-1.0, 2.0, 3.0), Point3(2.0, 0.5, -1.0)]:
            assert sp.static_residual(N, g, p).combined_norm < 1e-10
            assert sp.static_residual(f, g, p).combined_norm < 1e-10


class TestEigenvalueClasses:
    def test_schwarzschild_shell_is_two_equal(self):
        g = sp.schwarzschild(1.0)
        rng = np.random.default_rng(2)
        pts = sp.sample_shell(rng, 8, 1.0, 10.0)
        frames = sp.ricci_eigenframe(g, Point3.stack(pts))
        assert [frame.kind for frame in frames] == [sp.TWO_EQUAL] * 8
