"""Differential tests: ``Jet2`` against the tower ``Jet(Jet(.))`` it replaces.

The reference seeds nested depth-1 jets by hand (``Jet`` still nests) and reads
them out with a frozen copy of the generic tower read-out. Every operation on
``Jet2`` must give the tower's numbers bit for bit: the value, the value
level's gradient, each outer slot, and the second partials, with a slot that
the tower keeps as a plain constant kept as ``hess is None``. The read-outs of
``jets.taylor``, ``geometry._metric_taylor`` and ``potentials._taylor`` must
equal the tower's in bytes and in strides.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from staticpot import geometry, jets, potentials
from staticpot.geometry import PerturbationTerm, Point3

BATCHES = [(), (4,), (2, 3)]


### The reference tower


def tower_seed(coords, depth):
    """Nested depth-1 jets, one level per order, as ``jets.seed`` built them."""
    xs = [float(x) if isinstance(x, np.generic) else x for x in coords]
    for _ in range(depth):
        xs = [jets.Jet(xs[0], (1.0, 0.0, 0.0)),
              jets.Jet(xs[1], (0.0, 1.0, 0.0)),
              jets.Jet(xs[2], (0.0, 0.0, 1.0))]
    return xs


def _tower_raw(x):
    while isinstance(x, jets.Jet):
        x = x.val
    return x


def tower_taylor(entries, depth, batch=()):
    """The generic read-out of nested jets: order n takes n slots from the outer
    levels and then the value of what is left."""
    level = list(entries)
    n_entries, n_batch = len(level), len(batch)
    out = []
    for n in range(depth + 1):
        if n:
            level = [d for x in level
                     for d in (x.grad if isinstance(x, jets.Jet) else (0.0, 0.0, 0.0))]
        vals = [_tower_raw(x) for x in level] if n < depth else level
        if batch:
            a = np.empty((len(vals),) + batch)
            for k, v in enumerate(vals):
                a[k] = v
        else:
            a = np.array(vals, float)
        a = a.reshape((n_entries,) + (3,) * n + batch)
        out.append(a.transpose(tuple(range(n + 1, n + 1 + n_batch)) + tuple(range(1, n + 1))
                               + (0,)))
    return out


### Comparison


def _same_leaf(a, b):
    assert not isinstance(a, (jets.Jet, jets.Jet2)) and not isinstance(b, jets.Jet)
    assert type(a) is type(b)
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def assert_same_jet(new, old):
    """``new`` (Jet2 levels) holds the numbers of ``old`` (nested Jet) bit for bit."""
    if isinstance(new, jets.Jet2):
        assert isinstance(old, jets.Jet) and isinstance(old.val, jets.Jet)
        _same_leaf(new.val, old.val.val)
        for a, b in zip(new.vgrad, old.val.grad, strict=True):
            _same_leaf(a, b)
        assert (new.hess is None) == all(not isinstance(s, jets.Jet) for s in old.grad)
        for i, slot in enumerate(old.grad):
            if new.hess is None:
                _same_leaf(new.grad[i], slot)
                continue
            _same_leaf(new.grad[i], slot.val)
            for k in range(3):
                _same_leaf(new.hess[3 * i + k], slot.grad[k])
    elif isinstance(new, jets.Jet):
        assert isinstance(old, jets.Jet)
        assert_same_jet(new.val, old.val)
        for a, b in zip(new.grad, old.grad, strict=True):
            assert_same_jet(a, b)
    else:
        _same_leaf(new, old)


def assert_same_arrays(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        a, b = np.asarray(a), np.asarray(b)
        assert a.shape == b.shape and a.strides == b.strides
        assert a.tobytes() == b.tobytes()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the failure must match too
        return (type(exc), str(exc))


def _points(batch):
    """Hypothesis coordinates in [0.5, 2]: floats, or arrays of the batch shape."""
    size = int(np.prod(batch)) if batch else 1
    return st.lists(st.floats(0.5, 2.0), min_size=3 * size, max_size=3 * size).map(
        lambda xs: [np.array(xs[k::3]).reshape(batch) if batch else xs[k] for k in range(3)])


### Operations


def _operands(X1, X2, X3):
    """A linear operand (no second partials), a nonlinear one and a constant;
    all positive for coordinates in [0.5, 2]."""
    return {"lin": X1 + 2.0 * X2 - X3 / 4.0, "nonlin": X1 * X2 + X3, "const": 1.7}


BINARY = {"+": lambda a, b: a + b, "-": lambda a, b: a - b,
          "*": lambda a, b: a * b, "/": lambda a, b: a / b}
UNARY = {"neg": lambda a: -a, "sqrt": jets.sqrt, "log": jets.log, "sin": jets.sin,
         "cos": jets.cos,
         **{f"pow{p}": (lambda a, p=p: a ** p) for p in (1, 2, 3, 4, 0.5, -1.5)},
         **{f"power{p}": (lambda a, p=p: jets.power(a, p)) for p in (3, 0.5)}}


def _binary_cases(X1, X2, X3):
    ops = _operands(X1, X2, X3)
    for name, op in BINARY.items():
        for left in ops:
            for right in ops:
                if left != "const" or right != "const":
                    yield f"{left} {name} {right}", op(ops[left], ops[right])


def _unary_cases(X1, X2, X3):
    ops = _operands(X1, X2, X3)
    for name, op in UNARY.items():
        for arg in ("lin", "nonlin"):
            yield f"{name}({arg})", op(ops[arg])
            # and a second operation on the result, which reads its value level
            yield f"{name}({arg}) * nonlin", op(ops[arg]) * ops["nonlin"]


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("depth", [2, 3])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_every_operation_matches_the_tower(batch, depth, data):
    coords = data.draw(_points(batch))
    new = dict(_binary_cases(*jets.seed(coords, depth)))
    new.update(_unary_cases(*jets.seed(coords, depth)))
    old = dict(_binary_cases(*tower_seed(coords, depth)))
    old.update(_unary_cases(*tower_seed(coords, depth)))
    assert new.keys() == old.keys()
    for key in new:
        assert_same_jet(new[key], old[key])
    assert_same_arrays(jets.taylor(list(new.values()), depth, batch),
                       tower_taylor(list(old.values()), depth, batch))


@settings(max_examples=25, deadline=None)
@given(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0), st.floats(0.5, 2.0))
def test_comparisons_and_float_read_the_value(a, b, c):
    new = jets.seed((a, b, c), 2)
    old = tower_seed((a, b, c), 2)
    for x, y in [(new[0] * new[1], old[0] * old[1]), (new[2] - 1.0, old[2] - 1.0)]:
        assert float(x) == float(y)
        for t in (0.0, 1.0, float(y)):
            assert (x < t, x <= t, x > t, x >= t) == (y < t, y <= t, y > t, y >= t)
        assert (x < new[2]) == (y < old[2])


@pytest.mark.parametrize("x", [-1.5, -0.0, 0.0, 2.0])
@pytest.mark.parametrize("p", [1, 2, 3, 4, 0.5, -1.5, 2.5])
def test_power_failures_match_the_tower(x, p):
    # a negative base to a fractional power is power's math domain error, and a
    # zero base to a negative power is Python's ZeroDivisionError, in the
    # tower's order of evaluation
    new = _outcome(jets.power, jets.seed((x, 1.0, 1.0), 2)[0], p)
    old = _outcome(jets.power, tower_seed((x, 1.0, 1.0), 2)[0], p)
    if isinstance(old, tuple):
        assert new == old
    else:
        assert_same_jet(new, old)


def test_jet_exponent_rejected():
    X = jets.seed((1.0, 2.0, 3.0), 2)
    with pytest.raises(TypeError, match="jet-valued exponents"):
        X[0] ** X[1]


def test_cube_whose_square_rounds_apart():
    # the tower's value level squares by ** and its outer level by *: on a
    # float where the two round apart the value level's gradient must be kept
    x = next((float(m) for m in range(2 ** 27 - 1, 2 ** 27 - 4001, -2)
              if float(m) * float(m) != float(m) ** 2), None)
    if x is None:
        pytest.skip("this libm rounds every square as * does")
    new = jets.seed((x, 1.5, 0.5), 2)
    old = tower_seed((x, 1.5, 0.5), 2)
    cube = new[0] ** 3
    assert cube.vgrad is not cube.grad and cube.vgrad != cube.grad
    assert_same_jet(cube, old[0] ** 3)
    for op in BINARY.values():
        assert_same_jet(op(cube, new[1] * new[2]), op(old[0] ** 3, old[1] * old[2]))
        assert_same_jet(op(new[1] * new[2], cube), op(old[1] * old[2], old[0] ** 3))
    for name, op in UNARY.items():
        if name not in ("sqrt", "log", "pow0.5", "pow-1.5", "power0.5"):
            assert_same_jet(op(cube), op(old[0] ** 3))


### Fields


def _fields():
    terms = [PerturbationTerm(0, 0, 0.25, (0, 0, 0)),
             PerturbationTerm(0, 1, 0.3, (1, 0, 0)),
             PerturbationTerm(2, 2, -0.2, (0, 2, 0)),
             PerturbationTerm(1, 2, 0.1, (0, 1, 1))]
    bumpy = geometry.perturbed_as(1.0, terms)
    c, s = math.cos(0.4), math.sin(0.4)
    metrics = [geometry.euclidean(), geometry.schwarzschild(1.0),
               geometry.schwarzschild(1.0, exterior_only=False), geometry.schwarzschild(-0.5),
               bumpy, geometry.rotate_chart(bumpy, [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])]
    f = potentials.expression_potential(
        "x1^2.5 - sqrt(x2^2 + r) * ln(r + x3^2) + x2^-1.5 + 3 / (x1^3 + x3) - x3^4 * r^0.5")
    return metrics, f


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("depth", [2, 3])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_field_read_outs_match_the_tower(batch, depth, data):
    # coordinates in [0.5, 2] keep r above every chart floor used here
    coords = [1.0 + x for x in data.draw(_points(batch))]
    metrics, f = _fields()
    p = Point3(*coords)

    def read():
        return ([geometry._metric_taylor(g, coords, depth) for g in metrics]
                + [potentials._taylor(f.expr, p, depth)])

    new = read()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(jets, "seed", tower_seed)
        patch.setattr(jets, "taylor", tower_taylor)
        old = read()
    for got, want in zip(new, old, strict=True):
        assert_same_arrays(got, want)
