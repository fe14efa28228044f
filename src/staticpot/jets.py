"""Forward-mode automatic differentiation in three chart coordinates.

A :class:`Jet` carries a value and the three partial derivatives of that value
with respect to the chart coordinates; a :class:`Jet2` carries the value, the
three first partials and all nine second partials in one object. ``seed``
lifts the coordinates to the depth a caller asks for:

- depth 1: a ``Jet`` over floats (or arrays);
- depth 2: a ``Jet2``;
- depth 3: a ``Jet`` whose value and slots are ``Jet2`` scalars.

Evaluating any composition of the supported operations on seeded coordinates
then yields its exact Taylor data up to that order, with no truncation error
beyond floating point roundoff.

Depth 2 reproduces the tower ``Jet(Jet(x))`` of two nested depth-1 levels bit
for bit: every ``Jet2`` operation is straight-line arithmetic that does the same
float operations in the same order as the tower (a single ``+`` or ``*`` may
take its two operands the other way round, which IEEE 754 arithmetic does not
see), including the tower's shortcuts for ``** 1`` and ``** 2``. Only the
object count changes: one ``Jet2`` where the tower builds ten or so ``Jet``.

Plain ``int``/``float`` scalars mix freely with jets (they are treated as
constants), which is what lets the same metric/potential evaluation code run on
floats, on jets of any depth, without modification. The value and slots may
also be numpy arrays: seeding coordinate arrays propagates a whole batch of
points through one evaluation (vector forward mode), with the elementary
functions dispatching to numpy.
"""

from __future__ import annotations

import math
from itertools import chain

import numpy as np


class Jet:
    """Truncated Taylor scalar: a value plus three first-derivative slots."""

    __slots__ = ("val", "grad")
    # numpy defers to the reflected operators: ``array - jet`` calls
    # ``Jet.__rsub__`` instead of building an object array of jets
    __array_ufunc__ = None

    def __init__(self, val, grad):
        self.val = val
        self.grad = grad

    def __repr__(self):
        return f"Jet({self.val!r}, {self.grad!r})"

    def __add__(self, other):
        if isinstance(other, Jet):
            g, h = self.grad, other.grad
            return Jet(self.val + other.val, (g[0] + h[0], g[1] + h[1], g[2] + h[2]))
        return Jet(self.val + other, self.grad)

    __radd__ = __add__

    def __neg__(self):
        g = self.grad
        return Jet(-self.val, (-g[0], -g[1], -g[2]))

    def __sub__(self, other):
        if isinstance(other, Jet):
            g, h = self.grad, other.grad
            return Jet(self.val - other.val, (g[0] - h[0], g[1] - h[1], g[2] - h[2]))
        return Jet(self.val - other, self.grad)

    def __rsub__(self, other):
        g = self.grad
        return Jet(other - self.val, (-g[0], -g[1], -g[2]))

    def __mul__(self, other):
        if isinstance(other, Jet):
            u, v = self.val, other.val
            g, h = self.grad, other.grad
            return Jet(u * v, (g[0] * v + u * h[0], g[1] * v + u * h[1], g[2] * v + u * h[2]))
        g = self.grad
        return Jet(self.val * other, (g[0] * other, g[1] * other, g[2] * other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            q = self.val / other.val
            g, h = self.grad, other.grad
            return Jet(q, ((g[0] - q * h[0]) / other.val,
                           (g[1] - q * h[1]) / other.val,
                           (g[2] - q * h[2]) / other.val))
        g = self.grad
        return Jet(self.val / other, (g[0] / other, g[1] / other, g[2] / other))

    def __rtruediv__(self, other):
        q = other / self.val
        w = q / self.val
        g = self.grad
        return Jet(q, (-w * g[0], -w * g[1], -w * g[2]))

    def __pow__(self, p):
        if isinstance(p, Jet):
            raise TypeError("jet-valued exponents are not supported")
        if p == 2:
            return self * self
        if p == 1:
            return self
        d = power(self.val, p - 1) * p
        g = self.grad
        return Jet(power(self.val, p), (g[0] * d, g[1] * d, g[2] * d))

    # Comparisons look at values only; used for domain/branch guards inside
    # generic evaluation code.
    def __lt__(self, other):
        return _raw(self) < _raw(other)

    def __le__(self, other):
        return _raw(self) <= _raw(other)

    def __gt__(self, other):
        return _raw(self) > _raw(other)

    def __ge__(self, other):
        return _raw(self) >= _raw(other)

    def __float__(self):
        return float(_raw(self))


### Second order in one object
#
# Below, (v, A) is the tower's value level Jet(v, A) and slot i of its outer
# level holds the first partial B[i] and, unless ``hess`` is None, the second
# partials H[3 i + k]. The 9-tuple helpers spell out, entry by entry, what the
# tower's outer level computes slot by slot; n = 3 i + k throughout.


def _add9(H, K):
    return (H[0] + K[0], H[1] + K[1], H[2] + K[2], H[3] + K[3], H[4] + K[4],
            H[5] + K[5], H[6] + K[6], H[7] + K[7], H[8] + K[8])


def _sub9(H, K):
    return (H[0] - K[0], H[1] - K[1], H[2] - K[2], H[3] - K[3], H[4] - K[4],
            H[5] - K[5], H[6] - K[6], H[7] - K[7], H[8] - K[8])


def _neg9(H):
    return (-H[0], -H[1], -H[2], -H[3], -H[4], -H[5], -H[6], -H[7], -H[8])


def _mul9(H, c):
    return (H[0] * c, H[1] * c, H[2] * c, H[3] * c, H[4] * c,
            H[5] * c, H[6] * c, H[7] * c, H[8] * c)


def _div9(H, c):
    return (H[0] / c, H[1] / c, H[2] / c, H[3] / c, H[4] / c,
            H[5] / c, H[6] / c, H[7] / c, H[8] / c)


def _outer9(B, C):
    """B[i] * C[k]: a constant slot B[i] times a depth-1 jet with gradient C."""
    b0, b1, b2 = B
    c0, c1, c2 = C
    return (b0 * c0, b0 * c1, b0 * c2, b1 * c0, b1 * c1, b1 * c2, b2 * c0, b2 * c1, b2 * c2)


def _fma9(H, s, B, C):
    """H[n] * s + B[i] * C[k]: the slot (B, H) times a depth-1 jet (s, C)."""
    b0, b1, b2 = B
    c0, c1, c2 = C
    return (H[0] * s + b0 * c0, H[1] * s + b0 * c1, H[2] * s + b0 * c2,
            H[3] * s + b1 * c0, H[4] * s + b1 * c1, H[5] * s + b1 * c2,
            H[6] * s + b2 * c0, H[7] * s + b2 * c1, H[8] * s + b2 * c2)


def _quot9(S, B, C, v):
    """(S[n] - B[i] * C[k]) / v: the gradient of a slot (B, S) over (v, C)."""
    b0, b1, b2 = B
    c0, c1, c2 = C
    return ((S[0] - b0 * c0) / v, (S[1] - b0 * c1) / v, (S[2] - b0 * c2) / v,
            (S[3] - b1 * c0) / v, (S[4] - b1 * c1) / v, (S[5] - b1 * c2) / v,
            (S[6] - b2 * c0) / v, (S[7] - b2 * c1) / v, (S[8] - b2 * c2) / v)


class Jet2:
    """Second-order Taylor scalar: value, three first and nine second partials.

    ``grad[i]`` is d_i and ``hess[3 i + j]`` is d_j d_i, the full 3x3 kept in
    row-major order, not symmetrised. ``hess`` is None where the second
    partials are exactly zero (seeds, and expressions linear in them), so no
    array operation is spent on them. ``vgrad`` holds the first partials as the
    value's own level of the tower computes them; the second partials of
    products and quotients read it. It is the ``grad`` tuple itself except
    after a cube of a float, where that level squares by ``**`` and the other
    by ``*``, which may round apart.
    """

    __slots__ = ("val", "vgrad", "grad", "hess")
    __array_ufunc__ = None

    def __init__(self, val, vgrad, grad, hess):
        self.val = val
        self.vgrad = vgrad
        self.grad = grad
        self.hess = hess

    def __repr__(self):
        return f"Jet2({self.val!r}, {self.vgrad!r}, {self.grad!r}, {self.hess!r})"

    def __add__(self, other):
        if isinstance(other, Jet2):
            A, B, H = self.vgrad, self.grad, self.hess
            C, D, K = other.vgrad, other.grad, other.hess
            b = (B[0] + D[0], B[1] + D[1], B[2] + D[2])
            a = b if A is B and C is D else (A[0] + C[0], A[1] + C[1], A[2] + C[2])
            return Jet2(self.val + other.val, a, b,
                        K if H is None else H if K is None else _add9(H, K))
        return Jet2(self.val + other, self.vgrad, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        A, B, H = self.vgrad, self.grad, self.hess
        b = (-B[0], -B[1], -B[2])
        a = b if A is B else (-A[0], -A[1], -A[2])
        return Jet2(-self.val, a, b, None if H is None else _neg9(H))

    def __sub__(self, other):
        if isinstance(other, Jet2):
            A, B, H = self.vgrad, self.grad, self.hess
            C, D, K = other.vgrad, other.grad, other.hess
            b = (B[0] - D[0], B[1] - D[1], B[2] - D[2])
            a = b if A is B and C is D else (A[0] - C[0], A[1] - C[1], A[2] - C[2])
            if H is None:
                h = None if K is None else _neg9(K)
            else:
                h = H if K is None else _sub9(H, K)
            return Jet2(self.val - other.val, a, b, h)
        return Jet2(self.val - other, self.vgrad, self.grad, self.hess)

    def __rsub__(self, other):
        A, B, H = self.vgrad, self.grad, self.hess
        b = (-B[0], -B[1], -B[2])
        a = b if A is B else (-A[0], -A[1], -A[2])
        return Jet2(other - self.val, a, b, None if H is None else _neg9(H))

    def __mul__(self, other):
        A, B, H = self.vgrad, self.grad, self.hess
        if isinstance(other, Jet2):
            u, v = self.val, other.val
            C, D, K = other.vgrad, other.grad, other.hess
            b = (B[0] * v + u * D[0], B[1] * v + u * D[1], B[2] * v + u * D[2])
            a = b if A is B and C is D else (A[0] * v + u * C[0], A[1] * v + u * C[1],
                                             A[2] * v + u * C[2])
            return Jet2(u * v, a, b, _add9(_outer9(B, C) if H is None else _fma9(H, v, B, C),
                                           _outer9(D, A) if K is None else _fma9(K, u, D, A)))
        b = (B[0] * other, B[1] * other, B[2] * other)
        a = b if A is B else (A[0] * other, A[1] * other, A[2] * other)
        return Jet2(self.val * other, a, b, None if H is None else _mul9(H, other))

    __rmul__ = __mul__

    def __truediv__(self, other):
        A, B, H = self.vgrad, self.grad, self.hess
        if isinstance(other, Jet2):
            v = other.val
            q = self.val / v
            C, D, K = other.vgrad, other.grad, other.hess
            b = ((B[0] - q * D[0]) / v, (B[1] - q * D[1]) / v, (B[2] - q * D[2]) / v)
            a = b if A is B and C is D else ((A[0] - q * C[0]) / v, (A[1] - q * C[1]) / v,
                                             (A[2] - q * C[2]) / v)
            t = _outer9(D, a) if K is None else _fma9(K, q, D, a)
            return Jet2(q, a, b, _quot9(_neg9(t) if H is None else _sub9(H, t), b, C, v))
        b = (B[0] / other, B[1] / other, B[2] / other)
        a = b if A is B else (A[0] / other, A[1] / other, A[2] / other)
        return Jet2(self.val / other, a, b, None if H is None else _div9(H, other))

    def __rtruediv__(self, other):
        u = self.val
        q = other / u
        w = q / u
        A, B, H = self.vgrad, self.grad, self.hess
        a = (-w * A[0], -w * A[1], -w * A[2])
        b = a if A is B else (-w * B[0], -w * B[1], -w * B[2])
        # d(w) for the tower's w = q / self.val, negated as its -w is
        dw = (-((a[0] - w * A[0]) / u), -((a[1] - w * A[1]) / u), -((a[2] - w * A[2]) / u))
        return Jet2(q, a, b, _outer9(B, dw) if H is None else _fma9(H, -w, B, dw))

    def __pow__(self, p):
        if isinstance(p, (Jet, Jet2)):
            raise TypeError("jet-valued exponents are not supported")
        if p == 2:
            return self * self
        if p == 1:
            return self
        x = self.val
        A, B, H = self.vgrad, self.grad, self.hess
        # the outer level's factor d = power(value level, p - 1) * p, a depth-1 jet
        q = p - 1
        if q == 2:
            s = x * x
            dA = (A[0] * x + x * A[0], A[1] * x + x * A[1], A[2] * x + x * A[2])
        else:
            e = power(x, q - 1) * q
            s = power(x, q)
            dA = (A[0] * e, A[1] * e, A[2] * e)
        d = s * p
        dA = (dA[0] * p, dA[1] * p, dA[2] * p)
        val = power(x, p)
        b = (B[0] * d, B[1] * d, B[2] * d)
        if q == 2:
            # the value level's factor is power(x, 2) * 3, where the outer
            # level squares by *; libm's pow rounds apart from * on ~0.1 % of
            # floats, and products and quotients of the cube read this level:
            # taking d here instead changes the second partials of
            # perturbed_as's degree-1 terms (r ** 3) and of x^3 expressions
            # at those points
            f = power(x, q) * p
            a = (A[0] * f, A[1] * f, A[2] * f)
        else:
            a = b if A is B else (A[0] * d, A[1] * d, A[2] * d)
        return Jet2(val, a, b, _outer9(B, dA) if H is None else _fma9(H, d, B, dA))

    # Comparisons look at values only; used for domain/branch guards inside
    # generic evaluation code.
    def __lt__(self, other):
        return _raw(self) < _raw(other)

    def __le__(self, other):
        return _raw(self) <= _raw(other)

    def __gt__(self, other):
        return _raw(self) > _raw(other)

    def __ge__(self, other):
        return _raw(self) >= _raw(other)

    def __float__(self):
        return float(_raw(self))


def _sqrt2(x: Jet2) -> Jet2:
    s = sqrt(x.val)
    t = 2.0 * s
    A, B, H = x.vgrad, x.grad, x.hess
    a = (A[0] / t, A[1] / t, A[2] / t)
    b = a if A is B else (B[0] / t, B[1] / t, B[2] / t)
    dt = (a[0] * 2.0, a[1] * 2.0, a[2] * 2.0)
    if H is None:
        return Jet2(s, a, b, _outer9((-(b[0] / t), -(b[1] / t), -(b[2] / t)), dt))
    return Jet2(s, a, b, _quot9(H, b, dt, t))


def _log2(x: Jet2) -> Jet2:
    v = x.val
    y = log(v)
    A, B, H = x.vgrad, x.grad, x.hess
    a = (A[0] / v, A[1] / v, A[2] / v)
    b = a if A is B else (B[0] / v, B[1] / v, B[2] / v)
    if H is None:
        return Jet2(y, a, b, _outer9((-(b[0] / v), -(b[1] / v), -(b[2] / v)), A))
    return Jet2(y, a, b, _quot9(H, b, A, v))


def _sin2(x: Jet2) -> Jet2:
    v = x.val
    s = sin(v)
    c = cos(v)
    A, B, H = x.vgrad, x.grad, x.hess
    dc = (-A[0] * s, -A[1] * s, -A[2] * s)
    a = (A[0] * c, A[1] * c, A[2] * c)
    b = a if A is B else (B[0] * c, B[1] * c, B[2] * c)
    return Jet2(s, a, b, _outer9(B, dc) if H is None else _fma9(H, c, B, dc))


def _cos2(x: Jet2) -> Jet2:
    v = x.val
    c = cos(v)
    s = sin(v)
    A, B, H = x.vgrad, x.grad, x.hess
    ds = (A[0] * c, A[1] * c, A[2] * c)
    a = (-A[0] * s, -A[1] * s, -A[2] * s)
    nB = (-B[0], -B[1], -B[2])
    b = a if A is B else (nB[0] * s, nB[1] * s, nB[2] * s)
    return Jet2(c, a, b, _outer9(nB, ds) if H is None else _fma9(_neg9(H), s, nB, ds))


def _raw(x):
    while isinstance(x, (Jet, Jet2)):
        x = x.val
    return x


def sqrt(x):
    """Square root that accepts floats, arrays or jets."""
    if isinstance(x, Jet2):
        return _sqrt2(x)
    if isinstance(x, Jet):
        s = sqrt(x.val)
        g = x.grad
        return Jet(s, (g[0] / (2.0 * s), g[1] / (2.0 * s), g[2] / (2.0 * s)))
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def log(x):
    """Natural logarithm for floats, arrays or jets."""
    if isinstance(x, Jet2):
        return _log2(x)
    if isinstance(x, Jet):
        g = x.grad
        return Jet(log(x.val), (g[0] / x.val, g[1] / x.val, g[2] / x.val))
    return np.log(x) if isinstance(x, np.ndarray) else math.log(x)


def sin(x):
    """Sine for floats, arrays or jets."""
    if isinstance(x, Jet2):
        return _sin2(x)
    if isinstance(x, Jet):
        c = cos(x.val)
        g = x.grad
        return Jet(sin(x.val), (g[0] * c, g[1] * c, g[2] * c))
    return np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)


def cos(x):
    """Cosine for floats, arrays or jets."""
    if isinstance(x, Jet2):
        return _cos2(x)
    if isinstance(x, Jet):
        s = sin(x.val)
        g = x.grad
        return Jet(cos(x.val), (-g[0] * s, -g[1] * s, -g[2] * s))
    return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


def power(x, p):
    """``x ** p`` for floats or jets; exponent must be a constant.

    A negative float to a non-integer power raises ValueError (math domain
    error), as ``sqrt`` and ``log`` do for floats, where Python's ``**`` would
    return a complex number.
    """
    y = x ** p
    if isinstance(y, complex):
        raise ValueError("math domain error")
    return y


_E0, _E1, _E2 = (1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)


def seed(coords, depth):
    """Lift three coordinate scalars to jets of order ``depth``.

    Depth 1 gives ``Jet``, depth 2 ``Jet2`` and each further depth one more
    ``Jet`` level around them, with one-hot derivative slots. Numpy scalars,
    such as the entries of an ODE state row, become Python floats: jet
    arithmetic on them runs at float speed, with the same bits. Other inputs
    (floats, arrays) are kept as they are; ``depth=0`` returns them with no
    jet levels.
    """
    x, y, z = coords
    if isinstance(x, np.generic):
        x = float(x)
    if isinstance(y, np.generic):
        y = float(y)
    if isinstance(z, np.generic):
        z = float(z)
    if depth == 1:
        return [Jet(x, _E0), Jet(y, _E1), Jet(z, _E2)]
    if depth < 1:
        return [x, y, z]
    xs = [Jet2(x, _E0, _E0, None), Jet2(y, _E1, _E1, None), Jet2(z, _E2, _E2, None)]
    for _ in range(depth - 2):
        xs = [Jet(xs[0], _E0), Jet(xs[1], _E1), Jet(xs[2], _E2)]
    return xs


def value(x):
    """Base scalar of a jet of any depth."""
    return _raw(x)


def peel_value(x):
    """Value slot one level down; constants pass through unchanged.

    A ``Jet2`` peels to the depth-1 jet of its value level, as the tower
    ``Jet(Jet(x))`` it reproduces would. Expressions that never touch a seeded
    coordinate stay plain numbers, so extraction has to accept either form. The
    one rule callers must obey: a jet from one seeding scope must never be
    smuggled into another scope as a constant (constants are always plain
    numbers), otherwise peeling cannot tell the levels apart.
    """
    if isinstance(x, Jet2):
        return Jet(x.val, x.vgrad)
    return x.val if isinstance(x, Jet) else x


def peel_grad(x, i):
    """Derivative slot ``i`` one level down; constants differentiate to 0.

    A ``Jet2``'s slot is its first partial, and a depth-1 jet of it unless the
    second partials are exactly zero.
    """
    if isinstance(x, Jet2):
        return x.grad[i] if x.hess is None else Jet(x.grad[i], x.hess[3 * i:3 * i + 3])
    return x.grad[i] if isinstance(x, Jet) else 0.0


_Z3 = (0.0,) * 3
_Z9 = (0.0,) * 9


def _orders(entries, depth):
    """Per order n <= depth, per entry, the entry's value (n = 0) or its 3**n
    partials of order n; at depth 0 the entries are plain values."""
    if depth == 0:
        return [entries]
    if depth == 1:
        return [[x.val if isinstance(x, Jet) else x for x in entries],
                [x.grad if isinstance(x, Jet) else _Z3 for x in entries]]
    if depth == 2:
        return [[x.val if isinstance(x, Jet2) else x for x in entries],
                [x.grad if isinstance(x, Jet2) else _Z3 for x in entries],
                [x.hess or _Z9 if isinstance(x, Jet2) else _Z9 for x in entries]]
    slots = [x.grad if isinstance(x, Jet) else _Z3 for x in entries]
    return [[x.val.val if isinstance(x, Jet) else x for x in entries],
            [tuple(g.val if isinstance(g, Jet2) else g for g in s) for s in slots],
            [tuple(d for g in s for d in (g.grad if isinstance(g, Jet2) else _Z3))
             for s in slots],
            [tuple(d for g in s for d in (g.hess or _Z9 if isinstance(g, Jet2) else _Z9))
             for s in slots]]


def taylor(entries, depth, batch=()):
    """Values and partials up to order ``depth`` (at most 3) of depth-``depth`` jets.

    Returns ``depth + 1`` float arrays; array n has shape
    ``batch + (3,) * n + (len(entries),)`` and holds at ``[..., i, j, e]``
    (for n = 2) the partial of entry e taken with respect to coordinate i, then
    j: ``hess[3 i + j]`` of a ``Jet2``, the tower's outer slot i and inner
    slot j. ``batch`` is the shape of the seeded coordinates; constants
    differentiate to 0 and are broadcast over it. The arrays are views of one
    buffer per order laid out entry-major with the batch axes fastest.
    """
    n_entries, n_batch = len(entries), len(batch)
    out = []
    for n, rows in enumerate(_orders(entries, depth)):
        leaves = chain.from_iterable(rows) if n else rows
        if batch:
            a = np.empty((n_entries * 3 ** n,) + batch)
            for k, v in enumerate(leaves):
                a[k] = v
        else:
            a = np.fromiter(leaves, float, n_entries * 3 ** n)
        # entries, slots, batch in memory; batch, slots, entries as axes
        a = a.reshape((n_entries,) + (3,) * n + batch)
        out.append(a.transpose(tuple(range(n + 1, n + 1 + n_batch)) + tuple(range(1, n + 1))
                               + (0,)))
    return out
