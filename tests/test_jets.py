import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from staticpot import geometry, jets, potentials


def fd_gradient(fn, x, h=1e-6):
    out = []
    for i in range(3):
        xp = list(x)
        xm = list(x)
        xp[i] += h
        xm[i] -= h
        out.append((fn(*xp) - fn(*xm)) / (2 * h))
    return out


def fd_hessian(fn, x, h=1e-4):
    out = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            xs = [list(x) for _ in range(4)]
            xs[0][i] += h; xs[0][j] += h
            xs[1][i] += h; xs[1][j] -= h
            xs[2][i] -= h; xs[2][j] += h
            xs[3][i] -= h; xs[3][j] -= h
            vals = [fn(*p) for p in xs]
            out[i, j] = (vals[0] - vals[1] - vals[2] + vals[3]) / (4 * h * h)
    return out


def poly(x, y, z):
    return x * x * y - 3.0 * z + x / (1.0 + y * y) + 2.0


def transcendental(x, y, z):
    return jets.sqrt(x * x + y * y + z * z) + jets.log(x + 3.0) * z - jets.sin(y) * jets.cos(x)


class TestFirstOrder:
    def test_polynomial_gradient_exact(self):
        x = (1.3, -0.7, 2.1)
        Xs = jets.seed(x, 1)
        val, grad = (t[..., 0] for t in jets.taylor([poly(*Xs)], 1))
        assert val == pytest.approx(poly(*x), abs=0.0)
        expected = fd_gradient(poly, x)
        for a, b in zip(grad, expected):
            assert a == pytest.approx(b, rel=1e-8)

    def test_transcendental_gradient(self):
        x = (0.4, 1.1, -0.9)

        def plain(a, b, c):
            return (math.sqrt(a * a + b * b + c * c)
                    + math.log(a + 3.0) * c - math.sin(b) * math.cos(a))

        Xs = jets.seed(x, 1)
        _, grad = (t[..., 0] for t in jets.taylor([transcendental(*Xs)], 1))
        expected = fd_gradient(plain, x)
        for a, b in zip(grad, expected):
            assert a == pytest.approx(b, rel=1e-8)

    def test_division_and_rdiv(self):
        Xs = jets.seed((2.0, 0.0, 0.0), 1)
        e = 3.0 / Xs[0]
        assert jets.peel_value(e) == pytest.approx(1.5)
        assert jets.peel_grad(e, 0) == pytest.approx(-0.75)

    def test_integer_power_matches_repeated_product(self):
        Xs = jets.seed((1.7, 0.0, 0.0), 1)
        a = Xs[0] ** 3
        b = Xs[0] * Xs[0] * Xs[0]
        assert jets.peel_value(a) == jets.peel_value(b)
        assert jets.peel_grad(a, 0) == pytest.approx(jets.peel_grad(b, 0), rel=1e-15)


class TestSecondOrder:
    def test_polynomial_hessian(self):
        x = (1.3, -0.7, 2.1)
        Xs = jets.seed(x, 2)
        _, grad, hess = (t[..., 0] for t in jets.taylor([poly(*Xs)], 2))
        expected = fd_hessian(poly, x)
        assert np.allclose(hess, expected, atol=1e-5)
        assert np.allclose(hess, hess.T, atol=0.0)

    def test_transcendental_hessian_symmetry(self):
        Xs = jets.seed((0.4, 1.1, -0.9), 2)
        _, _, h = (t[..., 0] for t in jets.taylor([transcendental(*Xs)], 2))
        assert np.allclose(h, h.T, atol=1e-14)

    def test_nested_tower_mixed_order(self):
        # a product and a square of seeds, read off the Jet2 itself and by taylor
        x = (1.5, 2.5, -0.5)
        Xs = jets.seed(x, 2)
        e = Xs[0] * Xs[1] + Xs[2] ** 2
        assert isinstance(e, jets.Jet2) and e.vgrad is e.grad
        for val, grad, hess in [(e.val, e.grad, np.reshape(e.hess, (3, 3))),
                                (t[..., 0] for t in jets.taylor([e], 2))]:
            assert val == pytest.approx(1.5 * 2.5 + 0.25)
            assert grad == pytest.approx([2.5, 1.5, -1.0])
            assert hess[0, 1] == pytest.approx(1.0)
            assert hess[2, 2] == pytest.approx(2.0)


def _bits(x, batch) -> bytes:
    return np.broadcast_to(np.asarray(x, dtype=float), batch).tobytes()


def _slot(x, i, j=None):
    """First partial i, or second partial (i, j), of a Jet2; constants give 0."""
    if not isinstance(x, jets.Jet2):
        return 0.0
    if j is None:
        return x.grad[i]
    return 0.0 if x.hess is None else x.hess[3 * i + j]


@pytest.mark.parametrize("batch", [(), (4,), (2, 3)])
def test_taylor_layout(batch):
    # order n is batch + (3,) * n + (entries,): entry e's slot (i, j) holds
    # hess[3 i + j] of its Jet2 bit for bit, constants broadcast over batch
    rng = np.random.default_rng(5)
    coords = [0.5 + (rng.random(batch) if batch else rng.random()) for _ in range(3)]
    Xs = jets.seed(coords, 2)
    # a hand-built Jet2 holding 10 i + j in slot (i, j), so the slot order shows
    hand = jets.Jet2(coords[0], (1.0, 2.0, 3.0), tuple(0.5 * i for i in range(3)),
                     tuple(10.0 * i + j for i in range(3) for j in range(3)))
    entries = [poly(*Xs), 2.5, transcendental(*Xs), Xs[1], hand]
    val, grad, hess = jets.taylor(entries, 2, batch)
    for n, a in enumerate((val, grad, hess)):
        assert a.shape == batch + (3,) * n + (len(entries),) and a.dtype == float
    for e, x in enumerate(entries):
        assert _bits(val[..., e], batch) == _bits(jets.value(x), batch)
        for i in range(3):
            assert _bits(grad[..., i, e], batch) == _bits(_slot(x, i), batch)
            for j in range(3):
                assert _bits(hess[..., i, j, e], batch) == _bits(_slot(x, i, j), batch)
    assert not hess[..., 1].any() and np.all(val[..., 1] == 2.5)


class TestPeeling:
    def test_plain_float_peels_as_constant(self):
        assert jets.peel_value(4.0) == 4.0
        assert jets.peel_grad(4.0, 2) == 0.0

    def test_value_descends_full_tower(self):
        Xs = jets.seed((2.0, 3.0, 4.0), 3)
        e = Xs[0] * Xs[1] * Xs[2]
        assert jets.value(e) == pytest.approx(24.0)

    def test_comparisons_use_numeric_value(self):
        Xs = jets.seed((2.0, 0.0, 0.0), 1)
        assert Xs[0] > 1.0
        assert not (Xs[0] < 1.0)


# transcendental() takes log(x1 + 3), so x1 = -3 is outside its domain
@settings(max_examples=25, deadline=None)
@given(st.floats(-3, 3, exclude_min=True), st.floats(-3, 3), st.floats(0.1, 3))
def test_product_rule_property(a, b, c):
    Xs = jets.seed((a, b, c), 1)
    left = poly(*Xs) * transcendental(*Xs)
    gl = [jets.peel_grad(left, i) for i in range(3)]
    p = poly(*Xs)
    t = transcendental(*Xs)
    manual = [jets.peel_value(p) * jets.peel_grad(t, i)
              + jets.peel_grad(p, i) * jets.peel_value(t) for i in range(3)]
    for u, v in zip(gl, manual):
        assert u == pytest.approx(v, rel=1e-12, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.5, 4), st.floats(-2, 2), st.floats(-2, 2))
def test_chain_rule_against_fd(a, b, c):
    def fn(x, y, z):
        return jets.sqrt(x + y * y + z * z + 0.5) * jets.log(x + 1.0)

    def plain(x, y, z):
        return math.sqrt(x + y * y + z * z + 0.5) * math.log(x + 1.0)

    Xs = jets.seed((a, b, c), 1)
    _, grad = (t[..., 0] for t in jets.taylor([fn(*Xs)], 1))
    expected = fd_gradient(plain, (a, b, c))
    for u, v in zip(grad, expected):
        assert u == pytest.approx(v, rel=1e-5, abs=1e-7)


@pytest.mark.parametrize("op", ["+", "-", "*", "/"])
def test_array_op_jet_defers_to_the_jet(op):
    # without __array_ufunc__ = None numpy would build an object array of
    # jets instead of calling the jet's reflected operator
    a = np.array([1.5, -2.0, 4.0])
    J = jets.Jet(np.array([2.0, 3.0, -1.0]), (np.array([1.0, 0.5, 2.0]), 0.0, 1.0))
    out = eval(f"a {op} J")
    assert isinstance(out, jets.Jet)
    assert isinstance(out.val, np.ndarray) and out.val.dtype == float
    want = {"+": lambda x: x + a, "-": lambda x: a - x,
            "*": lambda x: a * x, "/": lambda x: a / x}[op]
    assert np.array_equal(out.val, want(J.val))
    for slot in out.grad:
        assert not (isinstance(slot, np.ndarray) and slot.dtype == object)
    h = 1e-7
    fd = (want(J.val + h * J.grad[0]) - want(J.val - h * J.grad[0])) / (2 * h)
    assert np.allclose(out.grad[0], fd, rtol=1e-6)


### Numpy-scalar seeds


def _numpy_leaf_seed(coords, depth):
    """``jets.seed`` without the float conversion: numpy scalars stay leaves."""
    slots = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
    xs = list(coords)
    if depth == 1:
        return [jets.Jet(x, e) for x, e in zip(xs, slots)]
    if depth >= 2:
        xs = [jets.Jet2(x, e, e, None) for x, e in zip(xs, slots)]
        for _ in range(depth - 2):
            xs = [jets.Jet(x, e) for x, e in zip(xs, slots)]
    return xs


def _leaves(x):
    if isinstance(x, jets.Jet):
        yield from _leaves(x.val)
        for slot in x.grad:
            yield from _leaves(slot)
    elif isinstance(x, jets.Jet2):
        yield x.val
        yield from x.vgrad
        yield from x.grad
        yield from x.hess or ()
    else:
        yield x


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_numpy_scalar_seed_gives_float_leaves(depth):
    coords = np.array([1.3, -0.7, 2.1])
    for x in jets.seed(list(coords), depth):
        assert all(type(leaf) is float for leaf in _leaves(x))
    # arrays are a batch and stay arrays
    batch = [np.array([1.0, 2.0]), np.array([0.5, 0.1]), np.array([0.2, 0.3])]
    for x, c in zip(jets.seed(batch, depth), batch):
        assert jets.value(x) is c


def _fields():
    bumpy = geometry.perturbed_as(1.0, [geometry.PerturbationTerm(0, 1, 0.3, (1, 0, 0)),
                                        geometry.PerturbationTerm(2, 2, -0.2, (0, 2, 0))])
    c, s = math.cos(0.4), math.sin(0.4)
    metrics = [geometry.euclidean(), geometry.schwarzschild(1.0), bumpy,
               geometry.rotate_chart(bumpy, [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])]
    f = potentials.expression_potential("x1^2.5 - sqrt(x2^2 + r) * ln(r + x3^2) + x2^-1.5")
    return metrics, f


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
def test_float_leaves_read_out_bit_for_bit(monkeypatch, depth):
    # a numpy-scalar point (an ODE state row) read off float leaves gives the
    # arrays numpy-scalar leaves give: the same bits and the same strides
    metrics, f = _fields()
    coords = tuple(np.array([2.3, 1.1, 0.7]))
    p = geometry.Point3(*coords)

    def read():
        return ([geometry._metric_taylor(g, coords, depth) for g in metrics]
                + [potentials._taylor(f.expr, p, depth)])

    floats = read()
    monkeypatch.setattr(jets, "seed", _numpy_leaf_seed)
    scalars = read()
    for got, want in zip(floats, scalars):
        for a, b in zip(got, want):
            a, b = np.asarray(a), np.asarray(b)
            assert a.strides == b.strides and a.tobytes() == b.tobytes()


def test_power_of_negative_float_is_a_domain_error():
    with pytest.raises(ValueError, match="math domain error"):
        jets.power(-1.0, 0.5)
    with pytest.raises(ValueError, match="math domain error"):
        potentials.expression_potential("x1^0.5").value((-1.0, 0.5, 0.2))
    # integer exponents of negative bases, and every valid base, keep the bits
    # of the float and numpy-scalar powers
    for x, p in [(-1.5, 3.0), (-2.0, -2.0), (0.7, 0.5), (3.1, -1.5), (2.9, 2.5),
                 (1e-3, 7.25), (0.0, 0.5), (5.0, 2.0)]:
        got = jets.power(x, p)
        assert type(got) is float
        assert got == x ** p and np.float64(got).tobytes() == (np.float64(x) ** p).tobytes()


def _reference_seed(coords, depth):
    """``jets.seed`` as a loop over the slots: numpy scalars become floats."""
    xs = [float(x) if isinstance(x, np.generic) else x for x in coords]
    return _numpy_leaf_seed(xs, depth)


def _structure(x):
    """A jet's classes and slots, level by level; arrays by dtype, shape and bytes."""
    if isinstance(x, jets.Jet):
        return ("Jet", _structure(x.val), x.grad)
    if isinstance(x, jets.Jet2):
        return ("Jet2", _structure(x.val), x.vgrad, x.grad, x.hess)
    if isinstance(x, np.ndarray):
        return (np.ndarray, x.dtype, x.shape, x.tobytes())
    return (type(x), x)


@pytest.mark.parametrize("depth", [0, 1, 2, 3])
@pytest.mark.parametrize("coords", [
    (2.3, -1.1, 0.7),
    tuple(np.array([2.3, -1.1, 0.7])),
    (np.float64(2.3), 1, np.float32(0.5)),
    (np.array([2.3, 4.0]), np.array([-1.1, 0.2]), np.array([0.7, 0.0])),
], ids=["floats", "numpy-scalars", "mixed", "arrays"])
def test_seed_builds_the_reference_jets(coords, depth):
    got, want = jets.seed(coords, depth), _reference_seed(coords, depth)
    assert type(got) is list and len(got) == 3
    assert [_structure(x) for x in got] == [_structure(x) for x in want]
    # numpy scalars arrive as floats, arrays as the same objects
    for x, c in zip(got, coords):
        while isinstance(x, (jets.Jet, jets.Jet2)):
            x = x.val
        assert x is c if isinstance(c, np.ndarray) else type(x) is type(
            float(c) if isinstance(c, np.generic) else c)
