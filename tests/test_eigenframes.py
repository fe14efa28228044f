"""Differential tests: the batched Ricci eigenframes against scipy.linalg.eigh.

``ricci_eigenframe`` solves Ric v = lambda g v for a whole batch by one numpy
Cholesky reduction. The oracle here is the per-node generalised solver
``scipy.linalg.eigh(ric, g)``, followed by the sign rule and the gap
classification written out node by node; scipy is used by this test only.
Eigenvalues must agree to roundoff of the largest one. Eigenvectors of simple
eigenvalues must agree to roundoff over the relative gap; inside a repeated
eigenvalue the basis is arbitrary, so the g-orthogonal projector onto each
eigenspace is compared instead.
"""

import numpy as np
import pytest
import scipy.linalg

import staticpot as sp
from staticpot import identities
from staticpot.geometry import PerturbationTerm, Point3

ROUNDOFF = 1e-14
_Q = np.array([[0.36, 0.48, -0.8], [-0.8, 0.6, 0.0], [0.48, 0.64, 0.6]])


def _metrics():
    bumpy = sp.perturbed_as(1.0, [PerturbationTerm(0, 0, 0.4, (1, 0, 0)),
                                  PerturbationTerm(0, 1, 0.3, (0, 0, 1)),
                                  PerturbationTerm(2, 2, -0.5, (1, 1, 0))])
    return {"schwarzschild": sp.schwarzschild(1.5),
            "perturbed_as": bumpy,
            "rotate_chart": sp.rotate_chart(bumpy, _Q),
            "euclidean": sp.euclidean()}


METRICS = _metrics()


def _points(seed, n=40):
    return sp.sample_shell(np.random.default_rng(seed), n, 2.5, 12.0)


def _oracle(ric, g, tau_eig=1e-6):
    """(eigenvalues, sign-fixed frame, kind, pair, simple index) at one node."""
    lam, vecs = scipy.linalg.eigh(ric, g)
    for k in range(3):
        lead = next((c for c in vecs[:, k] if abs(c) > 1e-12), 1.0)
        if lead < 0:
            vecs[:, k] = -vecs[:, k]
    thr = tau_eig * (1.0 + np.abs(lam).max())
    low, high = lam[1] - lam[0] < thr, lam[2] - lam[1] < thr
    if low and high:
        return lam, vecs, sp.ALL_EQUAL, None, None
    if low:
        return lam, vecs, sp.TWO_EQUAL, (0, 1), 2
    if high:
        return lam, vecs, sp.TWO_EQUAL, (1, 2), 0
    return lam, vecs, sp.ALL_DISTINCT, None, None


def _eigenspaces(kind, pair):
    if kind == sp.ALL_EQUAL:
        return [[0, 1, 2]]
    if kind == sp.TWO_EQUAL:
        return [list(pair), [i for i in range(3) if i not in pair]]
    return [[0], [1], [2]]


def _projector(frame, g, cols):
    """g-orthogonal projector onto the span of the g-orthonormal ``frame[:, cols]``."""
    v = frame[:, cols]
    return v @ v.T @ g


def _cases(name, seed):
    metric = METRICS[name]
    points = _points(seed)
    bundle = sp.curvature_at(metric, Point3.stack(points))
    frames = sp.ricci_eigenframe(metric, Point3.stack(points))
    return [(frame, bundle.ricci[k], bundle.metric_matrix[k]) for k, frame in enumerate(frames)]


@pytest.mark.parametrize("seed", [3, 17])
@pytest.mark.parametrize("name", ["perturbed_as", "rotate_chart", "schwarzschild", "euclidean"])
def test_eigenframes_match_scipy(name, seed):
    kinds = set()
    for frame, ric, g in _cases(name, seed):
        lam, vecs, kind, pair, simple = _oracle(ric, g)
        scale = max(float(np.abs(lam).max()), 1e-300)
        assert np.abs(frame.eigenvalues - lam).max() <= ROUNDOFF * scale
        assert (frame.kind, frame.pair, frame.simple_index) == (kind, pair, simple)
        kinds.add(kind)
        if kind == sp.ALL_DISTINCT:
            for i in range(3):
                gap = min(abs(lam[i] - lam[j]) for j in range(3) if j != i) / scale
                assert np.abs(frame.frame[:, i] - vecs[:, i]).max() <= ROUNDOFF / gap
        else:
            spaces = _eigenspaces(kind, pair)
            gap = 1.0 if len(spaces) == 1 else abs(lam[simple] - lam[pair[0]]) / scale
            for cols in spaces:
                diff = _projector(frame.frame, g, cols) - _projector(vecs, g, cols)
                assert np.abs(diff).max() <= ROUNDOFF / gap
        assert np.allclose(frame.frame.T @ g @ frame.frame, np.eye(3), atol=1e-12)
    expected = {"euclidean": sp.ALL_EQUAL, "schwarzschild": sp.TWO_EQUAL}
    assert kinds == {expected.get(name, sp.ALL_DISTINCT)}


@pytest.mark.parametrize("name", sorted(METRICS))
def test_batch_is_bit_identical_to_single_nodes(name):
    """One eigensolve over the batch gives each node the bits of its own solve.

    The comparison starts from the batch's curvature: ``curvature_at`` itself
    only promises roundoff agreement between a batch and its single points.
    """
    metric = METRICS[name]
    points = _points(5, n=12)
    nodes = Point3.stack(points)
    bundle = sp.curvature_at(metric, nodes)
    frames = sp.ricci_eigenframe(metric, nodes)
    assert [frame.point for frame in frames] == points
    for k, (frame, p) in enumerate(zip(frames, points)):
        lam, vecs = identities._eigenframes(bundle.ricci[k], bundle.metric_matrix[k], p,
                                            metric.label)
        assert frame.eigenvalues.tobytes() == lam.tobytes()
        assert frame.frame.tobytes() == vecs.tobytes()
        one = sp.ricci_eigenframe(metric, p)
        assert isinstance(one, sp.RicciEigenframe) and one.point == p
        assert (frame.kind, frame.pair, frame.simple_index) == (one.kind, one.pair,
                                                                 one.simple_index)
