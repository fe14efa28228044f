"""Forward-mode automatic differentiation with nestable three-slot jets.

A :class:`Jet` carries a value and the three partial derivatives of that value
with respect to the chart coordinates. The entries of ``grad`` may themselves be
jets, so towers of nested jets give exact higher derivatives: seeding the
coordinates to depth 2 and evaluating any composition of the supported
operations yields the value, gradient and Hessian of the composition with no
truncation error beyond floating point roundoff.

Plain ``int``/``float`` scalars mix freely with jets (they are treated as
constants), which is what lets the same metric/potential evaluation code run on
floats, on depth-1 jets, or on deeper towers without modification. The value
and slots may also be numpy arrays: seeding coordinate arrays propagates a
whole batch of points through one evaluation (vector forward mode), with the
elementary functions dispatching to numpy.
"""

from __future__ import annotations

import math

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


def _raw(x):
    while isinstance(x, Jet):
        x = x.val
    return x


def sqrt(x):
    """Square root that accepts floats, arrays or (nested) jets."""
    if isinstance(x, Jet):
        s = sqrt(x.val)
        g = x.grad
        return Jet(s, (g[0] / (2.0 * s), g[1] / (2.0 * s), g[2] / (2.0 * s)))
    return np.sqrt(x) if isinstance(x, np.ndarray) else math.sqrt(x)


def log(x):
    """Natural logarithm for floats, arrays or (nested) jets."""
    if isinstance(x, Jet):
        g = x.grad
        return Jet(log(x.val), (g[0] / x.val, g[1] / x.val, g[2] / x.val))
    return np.log(x) if isinstance(x, np.ndarray) else math.log(x)


def sin(x):
    """Sine for floats, arrays or (nested) jets."""
    if isinstance(x, Jet):
        c = cos(x.val)
        g = x.grad
        return Jet(sin(x.val), (g[0] * c, g[1] * c, g[2] * c))
    return np.sin(x) if isinstance(x, np.ndarray) else math.sin(x)


def cos(x):
    """Cosine for floats, arrays or (nested) jets."""
    if isinstance(x, Jet):
        s = sin(x.val)
        g = x.grad
        return Jet(cos(x.val), (-g[0] * s, -g[1] * s, -g[2] * s))
    return np.cos(x) if isinstance(x, np.ndarray) else math.cos(x)


def power(x, p):
    """``x ** p`` for floats or (nested) jets; exponent must be a constant.

    A negative float to a non-integer power raises ValueError (math domain
    error), as ``sqrt`` and ``log`` do for floats, where Python's ``**`` would
    return a complex number.
    """
    y = x ** p
    if isinstance(y, complex):
        raise ValueError("math domain error")
    return y


def seed(coords, depth):
    """Lift three coordinate scalars to ``depth`` levels of nested jets.

    Each level adds one-hot derivative slots, so after evaluation the outermost
    level exposes first partials, the next one second partials, and so on.
    Numpy scalars, such as the entries of an ODE state row, become Python
    floats: jet arithmetic on them runs at float speed, with the same bits.
    Other inputs (floats, arrays) are kept as they are; ``depth=0`` returns
    them with no jet levels.
    """
    xs = [float(x) if isinstance(x, np.generic) else x for x in coords]
    for _ in range(depth):
        xs = [Jet(xs[0], (1.0, 0.0, 0.0)),
              Jet(xs[1], (0.0, 1.0, 0.0)),
              Jet(xs[2], (0.0, 0.0, 1.0))]
    return xs


def value(x):
    """Base scalar of a possibly nested jet."""
    return _raw(x)


def peel_value(x):
    """Value slot one level down; constants pass through unchanged.

    Expressions that never touch a seeded coordinate stay plain numbers, so
    extraction has to accept either form. The one rule callers must obey: a jet
    from one seeding scope must never be smuggled into another scope as a
    constant (constants are always plain numbers), otherwise peeling cannot
    tell the levels apart.
    """
    return x.val if isinstance(x, Jet) else x


def peel_grad(x, i):
    """Derivative slot ``i`` one level down; constants differentiate to 0."""
    return x.grad[i] if isinstance(x, Jet) else 0.0


_ZERO_SLOTS = (0.0, 0.0, 0.0)


def taylor(entries, depth, batch=()):
    """Values and partials up to order ``depth`` of depth-``depth`` evaluations.

    Returns ``depth + 1`` float arrays; array n has shape
    ``batch + (3,) * n + (len(entries),)`` and holds at ``[..., i, j, e]``
    (for n = 2) the partial of entry e taken with respect to coordinate i, the
    slot of the outermost jet level, then j. Order n takes n derivative slots
    from the outer levels and then the value of what is left. ``batch`` is the
    shape of the seeded coordinates; constants differentiate to 0 and are
    broadcast over it. The arrays are views of one buffer per order laid out
    entry-major with the batch axes fastest.
    """
    level = list(entries)
    n_entries, n_batch = len(level), len(batch)
    out = []
    for n in range(depth + 1):
        if n:  # depth - n jet levels are left below the slots taken
            level = [d for x in level for d in (x.grad if isinstance(x, Jet) else _ZERO_SLOTS)]
        vals = [_raw(x) for x in level] if n < depth else level
        if batch:
            a = np.empty((len(vals),) + batch)
            for k, v in enumerate(vals):
                a[k] = v
        else:
            a = np.array(vals, float)
        # entries, slots, batch in memory; batch, slots, entries as axes
        a = a.reshape((n_entries,) + (3,) * n + batch)
        out.append(a.transpose(tuple(range(n + 1, n + 1 + n_batch)) + tuple(range(1, n + 1))
                               + (0,)))
    return out
