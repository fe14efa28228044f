"""Differential tests of the metric's positive-definiteness certificate.

``geometry._check_positive`` first tries a Gershgorin bound
(``geometry._dominant``) and runs the isfinite and eigvalsh test only when the
bound leaves a node uncertified. The oracle is the plain eigvalsh test of
``reference_pointwise._check_positive``. Over symmetric and non-symmetric 3x3
matrices at scales 1e-300 to 1e300, with the smallest eigenvalue near the
floor, indefinite, or carrying a NaN or an infinity in any slot, the bound
must never certify a matrix the oracle rejects, and ``_check_positive`` must
raise the oracle's class and message, for one matrix (as an array, or as the
rows of floats the geodesic stage passes) and for a batch whose bad node is
not the first.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staticpot import geometry
from staticpot.errors import SingularMetricError
from staticpot.geometry import Point3

from .reference_pointwise import _EIG_FLOOR
from .reference_pointwise import _check_positive as reference_check_positive

LABEL = "probe"
AT = Point3(1.5, -2.0, 0.25)
AT_COORDS = (1.5, -2.0, 0.25)
# positive definite but not diagonally dominant: eigenvalues 2.8, 0.1, 0.1
NOT_DOMINANT = np.full((3, 3), 0.9) + 0.1 * np.eye(3)


def _outcome(fn, *args):
    try:
        fn(*args)
    except SingularMetricError as exc:
        return (type(exc), str(exc))
    return None


def _certified(g):
    return geometry._dominant(*np.asarray(g, dtype=float).ravel().tolist())


def _rotation(a, b, c):
    """The rotation by angles a, b and c about the three coordinate axes."""
    def axis(k, t):
        r = np.eye(3)
        i, j = [m for m in range(3) if m != k]
        r[i, i] = r[j, j] = np.cos(t)
        r[i, j], r[j, i] = -np.sin(t), np.sin(t)
        return r

    return axis(0, a) @ axis(1, b) @ axis(2, c)


_angle = st.floats(-np.pi, np.pi) | st.just(0.0)
# every decade from 1e-300 to 1e300, with more weight where the floor is small
_scale = (st.integers(-300, 300) | st.integers(-2, 6)).map(lambda k: 10.0 ** k)
# eigenvalues of the symmetric part, relative to the scale: comfortably
# positive, or spread over decades
_eig = st.floats(0.05, 20.0) | st.floats(1e-16, 1.0)


@st.composite
def matrices(draw):
    """A 3x3 matrix: symmetric part scale * Q diag(eigs) Q^T, plus an
    antisymmetric part of random size, or a matrix of raw entries."""
    kind = draw(st.sampled_from(["spectral", "near_floor", "indefinite", "raw"]))
    if kind == "raw":
        scale = draw(_scale)
        entries = draw(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9))
        return scale * np.array(entries).reshape(3, 3)
    q = _rotation(draw(_angle), draw(_angle), draw(_angle))
    if kind == "near_floor":
        # the smallest eigenvalue within a factor of 2 of the floor, in
        # absolute terms, the others up to ten decades above it
        low = draw(st.floats(0.5, 2.0)) * _EIG_FLOOR
        eigs = [low] + [low * 10.0 ** draw(st.floats(0.0, 10.0)) for _ in range(2)]
        scale = 1.0
    else:
        eigs, scale = [draw(_eig) for _ in range(3)], draw(_scale)
        if kind == "indefinite":
            eigs[draw(st.integers(0, 2))] = draw(st.floats(-2.0, 0.0))
    sym = scale * (q * np.array(eigs)) @ q.T
    skew = np.triu(np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9)))
                   .reshape(3, 3), 1)
    return sym + draw(st.sampled_from([0.0, 1e-3, 1.0])) * scale * (skew - skew.T)


def _batch(matrices_, coords):
    g = np.stack(matrices_)
    x = np.array(coords, dtype=float)
    return g, Point3(x[:, 0], x[:, 1], x[:, 2])


def _check_in_batch(g, bad_at):
    """``_check_positive`` on a batch holding g at node ``bad_at``, after
    and before certified and uncertified positive definite nodes."""
    good = [np.diag([2.0, 1.0, 3.0]), NOT_DOMINANT, 1e3 * NOT_DOMINANT, np.eye(3)]
    mats = good[:bad_at] + [g] + good[bad_at:]
    coords = [(float(k), 2.0 - k, 0.5 * k) for k in range(len(mats))]
    batch, p = _batch(mats, coords)
    got = _outcome(geometry._check_positive, batch, LABEL, p)
    expected = _outcome(reference_check_positive, g, LABEL, Point3(*coords[bad_at]))
    return got, expected


@settings(max_examples=400, deadline=None)
@given(matrices(), st.integers(1, 4))
def test_certificate_agrees_with_eigvalsh(g, bad_at):
    expected = _outcome(reference_check_positive, g, LABEL, AT)
    if _certified(g):
        assert expected is None, g
    assert _outcome(geometry._check_positive, g, LABEL, AT) == expected
    assert _outcome(geometry._check_positive, g.tolist(), LABEL, AT_COORDS) == expected
    got, expected_in_batch = _check_in_batch(g, bad_at)
    assert got == expected_in_batch


@settings(max_examples=100, deadline=None)
@given(st.lists(matrices(), min_size=1, max_size=6))
def test_array_certificate_is_the_float_one_per_node(mats):
    g = np.stack(mats)
    on_arrays = geometry._dominant(*(g[:, i, j] for i in range(3) for j in range(3)))
    assert on_arrays.tolist() == [_certified(m) for m in mats]


@pytest.mark.parametrize("base", ["identity", "not_dominant", "large"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("slot", list(itertools.product(range(3), range(3))))
def test_non_finite_slot_is_never_certified(base, value, slot):
    g = {"identity": np.eye(3), "not_dominant": NOT_DOMINANT,
         "large": 1e300 * np.eye(3)}[base].copy()
    g[slot] = value
    assert not _certified(g)
    with np.errstate(all="ignore"):
        assert not geometry._dominant(*(np.full(2, v) for v in g.ravel())).any()
    expected = _outcome(reference_check_positive, g, LABEL, AT)
    assert expected is not None and "non-finite" in expected[1]
    assert _outcome(geometry._check_positive, g, LABEL, AT) == expected
    assert _outcome(geometry._check_positive, g.tolist(), LABEL, AT_COORDS) == expected
    for bad_at in (1, 3):
        got, expected_in_batch = _check_in_batch(g, bad_at)
        assert got == expected_in_batch


def test_positive_definite_matrix_the_bound_cannot_certify():
    # all off-diagonals 0.9 on a unit diagonal: the smallest eigenvalue is 0.1,
    # but no row is dominant, so the eigvalsh test decides, and passes
    assert np.linalg.eigvalsh(NOT_DOMINANT)[0] == pytest.approx(0.1)
    assert not _certified(NOT_DOMINANT)
    geometry._check_positive(NOT_DOMINANT, LABEL, AT)
    batch, p = _batch([np.eye(3), NOT_DOMINANT], [(0.0, 0.0, 1.0), (1.0, 0.0, 0.0)])
    geometry._check_positive(batch, LABEL, p)
    # the same matrix past the floor's other side is rejected as by the oracle
    bad = NOT_DOMINANT - 0.1 * np.eye(3)
    expected = _outcome(reference_check_positive, bad, LABEL, AT)
    assert expected is not None and "not positive definite" in expected[1]
    assert _outcome(geometry._check_positive, bad, LABEL, AT) == expected


def test_dominant_matrices_are_certified():
    # the metrics the library ships sit far inside the bound
    for g in (np.eye(3), np.diag([1e-2, 1.0, 1e9]), np.diag([3.0, 2.0, 1.0]) + 0.4):
        assert _certified(g)
    # the margin is relative: 1e-9 is below 1e-12 of the scale 1e9, so the
    # eigvalsh test decides, and passes
    wide = np.diag([1e-9, 1.0, 1e9])
    assert not _certified(wide)
    geometry._check_positive(wide, LABEL, AT)
    assert not _certified(np.diag([1.0, 1.0, _EIG_FLOOR]))
    assert not _certified(np.zeros((3, 3)))
    assert geometry._check_positive(np.zeros((0, 3, 3)), LABEL,
                                    Point3(*np.zeros((3, 0)))) is None
