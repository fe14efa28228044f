import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from staticpot import jets


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
        (val,), grad = jets.taylor([poly(*Xs)], 1)
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
        _, grad = jets.taylor([transcendental(*Xs)], 1)
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
        _, grad, flat = jets.taylor([poly(*Xs)], 2)
        hess = np.reshape(flat, (3, 3))
        expected = fd_hessian(poly, x)
        assert np.allclose(hess, expected, atol=1e-5)
        assert np.allclose(hess, hess.T, atol=0.0)

    def test_transcendental_hessian_symmetry(self):
        Xs = jets.seed((0.4, 1.1, -0.9), 2)
        _, _, flat = jets.taylor([transcendental(*Xs)], 2)
        h = np.reshape(flat, (3, 3))
        assert np.allclose(h, h.T, atol=1e-14)

    def test_nested_tower_mixed_order(self):
        # outer depth-2 over an inner depth-1 result still peels correctly
        x = (1.5, 2.5, -0.5)
        Xs = jets.seed(x, 2)
        e = Xs[0] * Xs[1] + Xs[2] ** 2
        (val,), grad, flat = jets.taylor([e], 2)
        hess = np.reshape(flat, (3, 3))
        assert val == pytest.approx(1.5 * 2.5 + 0.25)
        assert grad == pytest.approx([2.5, 1.5, -1.0])
        assert hess[0, 1] == pytest.approx(1.0)
        assert hess[2, 2] == pytest.approx(2.0)


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
    _, grad = jets.taylor([fn(*Xs)], 1)
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
