"""Chart-level Riemannian geometry on a single coordinate patch of R^3.

Metrics are fields of 3x3 matrices produced by a components closure that is
generic over its scalar type: fed floats it returns floats, fed jets it returns
jets. All curvature quantities follow the convention in which the Riemann
tensor is

    R^d_{abc} = d_b Gamma^d_{ac} - d_c Gamma^d_{ab}
                + Gamma^k_{ac} Gamma^d_{bk} - Gamma^k_{ab} Gamma^d_{ck}

and the Ricci tensor is the contraction Ric_{ac} = R^d_{adc}; with this choice
the round sphere has positive scalar curvature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from typing import Callable, Sequence

import numpy as np

from . import jets
from .errors import DomainError, NotOrthogonalError, SingularMetricError

_EIG_FLOOR = 1e-10  # smallest admissible metric eigenvalue


@dataclass(frozen=True)
class Point3:
    """A point of the chart.

    The coordinates may also be equal-shape arrays; such a Point3 stands for a
    batch of nodes, and the metric, membership and curvature evaluations below
    return results with that leading shape.
    """

    x1: float
    x2: float
    x3: float

    @property
    def r(self) -> float:
        """Chart radius; a squared coordinate that overflows raises OverflowError,
        for a batch as for one point."""
        if not isinstance(self.x1, np.ndarray):
            return math.sqrt(self.x1 ** 2 + self.x2 ** 2 + self.x3 ** 2)
        try:
            with np.errstate(over="raise"):
                return np.sqrt(self.x1 ** 2 + self.x2 ** 2 + self.x3 ** 2)
        except FloatingPointError as exc:
            raise OverflowError(str(exc)) from None

    def coords(self) -> tuple:
        return (self.x1, self.x2, self.x3)

    def as_array(self) -> np.ndarray:
        return np.array([self.x1, self.x2, self.x3], dtype=float)

    @staticmethod
    def of(obj) -> "Point3":
        if isinstance(obj, Point3):
            return obj
        x1, x2, x3 = (float(v) for v in obj)
        return Point3(x1, x2, x3)

    @staticmethod
    def stack(points) -> "Point3":
        """One batched Point3 holding ``points`` (at least one) in sample order."""
        x1, x2, x3 = (np.array(x, dtype=float) for x in zip(*(Point3.of(p).coords() for p in points)))
        return Point3(x1, x2, x3)


@dataclass(frozen=True)
class PerturbationTerm:
    """One decaying correction to an asymptotically flat metric.

    Contributes ``amplitude * r^-2 * (x1/r)^p1 (x2/r)^p2 (x3/r)^p3`` to the
    (i, j) and (j, i) metric entries. Exponents are nonnegative integers with
    total degree at most two, which keeps each term's k-th derivatives decaying
    like r^(-2-k). The indices and powers are stored as Python ints, so an
    integral float such as 1.0 indexes and counts its factors as 1 does.
    """

    i: int
    j: int
    amplitude: float
    powers: tuple = (0, 0, 0)

    def __post_init__(self):
        if any(not 0 <= k <= 2 or int(k) != k for k in (self.i, self.j)):
            raise ValueError("term indices must be integers in 0..2")
        if len(self.powers) != 3 or any(int(p) != p or p < 0 for p in self.powers):
            raise ValueError("powers must be three nonnegative integers")
        if sum(self.powers) > 2:
            raise ValueError("total angular degree must be at most 2")
        object.__setattr__(self, "i", int(self.i))
        object.__setattr__(self, "j", int(self.j))
        object.__setattr__(self, "powers", tuple(int(p) for p in self.powers))


@dataclass(frozen=True)
class MetricField:
    """A metric on a chart: its components and its domain.

    ``components(X1, X2, X3)`` returns a 3x3 nested list of scalars and must be
    generic over the scalar type: floats, coordinate arrays or jets.
    ``boundary_margin`` is the chart: a continuous function, elementwise for a
    batched Point3, positive exactly inside the domain. Membership is its sign,
    and the ODE drivers stop on its root.
    """

    label: str
    components: Callable
    boundary_margin: Callable

    def matrix(self, point) -> np.ndarray:
        """Metric matrix ``g[..., i, j]`` at a point, positive-definiteness checked."""
        p = Point3.of(point)
        _require_inside(self, p)
        (g,) = _metric_taylor(self, p.coords(), 0)
        _check_positive(g, self.label, p)
        return g


def _first_flagged(p: Point3, flags) -> tuple:
    """Coordinates of the first node of ``p`` whose flag is set."""
    k = np.flatnonzero(flags)[0]
    return tuple(float(np.ravel(x)[k]) for x in np.broadcast_arrays(*p.coords()))


def _require_inside(metric: MetricField, p: Point3) -> None:
    inside = metric.boundary_margin(p) > 0.0
    if inside is True or np.all(inside):  # a plain bool for a single point
        return
    raise DomainError(f"{metric.label}: point {_first_flagged(p, ~np.asarray(inside))} "
                      "outside chart domain")


def _dominant(g00, g01, g02, g10, g11, g12, g20, g21, g22):
    """Whether a Gershgorin bound certifies that the symmetric part S of g has
    every eigenvalue above ``_EIG_FLOOR``; elementwise over arrays.

    Row i is certified when g_ii - sum_{j != i} |S_ij| exceeds the floor
    ``_EIG_FLOOR + 1e-12 * scale``, scale being the sum of |g_ii| and |S_ij|
    over the upper triangle. The computed row bound is within ~8 eps * scale of
    the exact Gershgorin bound, and eigvalsh's smallest eigenvalue of a 3x3 is
    within p(3) eps ||S||_2 <= 3 p(3) eps * scale of the exact one (a
    backward-stable symmetric solver; Demmel, Applied Numerical Linear Algebra,
    SIAM 1997, sec. 5.2); both are far below the 1e-12 * scale margin (~4,500
    eps), so a certified matrix is one the eigvalsh test passes.
    The converse does not hold: a matrix not certified may still be positive
    definite. Only operators combine the terms, never min, max or ``and``, so
    a NaN or an infinity in any slot makes some comparison false and the
    matrix is never certified.
    """
    s01 = abs(0.5 * (g01 + g10))
    s02 = abs(0.5 * (g02 + g20))
    s12 = abs(0.5 * (g12 + g21))
    floor = _EIG_FLOOR + 1e-12 * (abs(g00) + abs(g11) + abs(g22) + s01 + s02 + s12)
    return (g00 - s01 - s02 > floor) & (g11 - s01 - s12 > floor) & (g22 - s02 - s12 > floor)


def _check_positive(g, label: str, p) -> None:
    """Raise SingularMetricError unless every metric matrix is finite with
    symmetric part above ``_EIG_FLOOR`` in every eigenvalue.

    ``g`` is an array ``g[..., i, j]`` at the Point3 ``p``, or one matrix as
    three rows of Python floats at the coordinate triple ``p``, as the
    geodesic stage reads it. The Gershgorin certificate ``_dominant`` decides
    first, on Python floats for one matrix and on the nine component arrays
    for a batch. Only when it leaves some node uncertified does the whole input
    go, as an array at a Point3, through the test that decides and reports:
    isfinite, then eigvalsh, with the first flagged node in the message. The
    certificate never passes a matrix that test rejects, so the verdicts and
    messages are those of the eigvalsh test alone.
    """
    if isinstance(g, np.ndarray) and g.ndim > 2:
        with np.errstate(all="ignore"):  # infinities and NaN just fail the bound
            certified = _dominant(*(g[..., i, j] for i in range(3) for j in range(3))).all()
    else:
        rows = g.tolist() if isinstance(g, np.ndarray) else g
        certified = _dominant(*rows[0], *rows[1], *rows[2])
    if certified:
        return
    g = np.asarray(g, dtype=float)
    if not isinstance(p, Point3):
        p = Point3(*p)
    if not np.isfinite(g).all():
        bad = ~np.isfinite(g).all(axis=(-2, -1))
        raise SingularMetricError(
            f"{label}: non-finite metric entries at {_first_flagged(p, bad)}")
    # eigvalsh sorts ascending, so slot 0 is the smallest eigenvalue
    low = np.linalg.eigvalsh(0.5 * (g + g.swapaxes(-2, -1)))[..., 0] <= _EIG_FLOOR
    if low.any():
        raise SingularMetricError(
            f"{label}: metric not positive definite at {_first_flagged(p, low)}")


### Metric families


def euclidean() -> MetricField:
    """The flat metric in Cartesian coordinates."""

    def comps(X1, X2, X3):
        return [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

    return MetricField(
        label="euclidean",
        components=comps,
        boundary_margin=lambda p: 1.0,
    )


def _conformal(m: float, X1, X2, X3):
    """The chart radius r and the metric (1 + m/(2r))^4 delta as nested lists."""
    r = jets.sqrt(X1 * X1 + X2 * X2 + X3 * X3)
    phi = 1.0 + (0.5 * m) / r
    c = phi * phi
    c = c * c
    return r, [[c, 0.0, 0.0], [0.0, c, 0.0], [0.0, 0.0, c]]


def schwarzschild(mass: float, exterior_only: bool = True) -> MetricField:
    """Conformally flat time-symmetric slice of mass ``mass``.

    The conformal factor is (1 + mass/(2r))^4. For positive mass the chart is
    either the exterior r > mass/2 (default) or the full punctured space; for
    negative mass the factor degenerates at r = |mass|/2 and the domain is
    always r > |mass|/2.
    """
    m = float(mass)
    if m == 0.0:
        raise ValueError("mass must be nonzero; use euclidean() for mass 0")
    if m > 0.0:
        r_floor = m / 2.0 if exterior_only else 0.0
    else:
        r_floor = abs(m) / 2.0
    edge = r_floor * (1.0 + 1e-12) + 1e-300  # a relative band off the degenerate floor

    return MetricField(
        label=f"schwarzschild(m={m:g})",
        components=lambda X1, X2, X3: _conformal(m, X1, X2, X3)[1],
        boundary_margin=lambda p: p.r - edge,
    )


def perturbed_as(mass: float, terms: Sequence[PerturbationTerm]) -> MetricField:
    """Asymptotically flat metric: conformal part plus explicit r^-2 terms."""
    m = float(mass)
    terms = tuple(terms)
    total = sum(abs(t.amplitude) for t in terms)
    # keep the perturbation well below the conformal part so the matrix
    # stays positive definite with margin
    r_min = max(abs(m), 2.0 * math.sqrt(total) if total > 0 else 0.0, 1e-3)

    def comps(X1, X2, X3):
        r, g = _conformal(m, X1, X2, X3)
        X = (X1, X2, X3)
        for t in terms:
            s = sum(t.powers)
            w = t.amplitude / jets.power(r, 2 + s)
            for axis in range(3):
                for _ in range(t.powers[axis]):
                    w = w * X[axis]
            g[t.i][t.j] = g[t.i][t.j] + w
            if t.i != t.j:
                g[t.j][t.i] = g[t.j][t.i] + w
        return g

    return MetricField(
        label=f"perturbed_as(m={m:g},terms={len(terms)})",
        components=comps,
        boundary_margin=lambda p: p.r - r_min,
    )


def generic_metric(components: Callable, *, boundary_margin: Callable = lambda p: 1.0,
                   label: str = "generic") -> MetricField:
    """Wrap a user-supplied components closure as a metric field; by default on all of R^3."""
    return MetricField(label=label, components=components, boundary_margin=boundary_margin)


def rotate_chart(metric: MetricField, rotation) -> MetricField:
    """Pull a metric back along the linear chart map x = Q y.

    ``rotation`` must be orthogonal to 1e-12; the rotated field represents the
    same geometry expressed in the rotated coordinates.
    """
    Q = np.array(rotation, dtype=float)
    if Q.shape != (3, 3) or np.abs(Q.T @ Q - np.eye(3)).max() > 1e-12:
        raise NotOrthogonalError("rotation matrix fails the orthogonality check")
    rows = [[float(Q[i, j]) for j in range(3)] for i in range(3)]

    def base_coords(Y1, Y2, Y3):
        return [rows[i][0] * Y1 + rows[i][1] * Y2 + rows[i][2] * Y3 for i in range(3)]

    def comps(Y1, Y2, Y3):
        G = metric.components(*base_coords(Y1, Y2, Y3))
        GQ = [[G[i][0] * rows[0][b] + G[i][1] * rows[1][b] + G[i][2] * rows[2][b]
               for b in range(3)] for i in range(3)]
        return [[rows[0][a] * GQ[0][b] + rows[1][a] * GQ[1][b] + rows[2][a] * GQ[2][b]
                 for b in range(3)] for a in range(3)]

    return MetricField(
        label=metric.label + "+rotated",
        components=comps,
        boundary_margin=lambda p: metric.boundary_margin(Point3(*base_coords(p.x1, p.x2, p.x3))),
    )


### Curvature assembly on float arrays
#
# The routines below take float arrays with any leading batch shape: shape ()
# for one point, or the shape of a batch of nodes. They also take _Tangent
# pairs, which carry each array together with its derivatives along the three
# chart coordinates; ricci_with_derivative runs the assembly on those to
# differentiate it once more.


class _Tangent:
    """An array ``v`` and its coordinate derivatives ``t[..., c, ...] = d_c v``.

    The derivative slot c sits right after the batch axes, so negative axes
    address the same tensor slots of ``v`` and ``t``. Sums, real multiples and
    swaps of tensor slots act on both parts; products go through ``_ein``.
    """

    __slots__ = ("v", "t")

    def __init__(self, v, t):
        self.v = v
        self.t = t

    def __add__(self, other):
        return _Tangent(self.v + other.v, self.t + other.t)

    def __sub__(self, other):
        return _Tangent(self.v - other.v, self.t - other.t)

    def __rmul__(self, scale: float):
        return _Tangent(scale * self.v, scale * self.t)

    def swapaxes(self, a: int, b: int):
        return _Tangent(self.v.swapaxes(a, b), self.t.swapaxes(a, b))


def _ein(spec: str, *ops):
    """``np.einsum(spec, *ops)``, with _Tangent operands by the product rule.

    Every subscript starts with ``...``; the derivative slot enters the
    tangent terms as the extra label Z after it.
    """
    if _Tangent not in map(type, ops):
        return np.einsum(spec, *ops)
    terms, out = spec.split("->")
    terms = terms.split(",")
    vals = [o.v if isinstance(o, _Tangent) else o for o in ops]
    tan = None
    for n, o in enumerate(ops):
        if not isinstance(o, _Tangent):
            continue
        sub = ",".join(t.replace("...", "...Z") if k == n else t for k, t in enumerate(terms))
        part = np.einsum(f"{sub}->{out.replace('...', '...Z')}",
                         *(o.t if k == n else v for k, v in enumerate(vals)))
        tan = part if tan is None else tan + part
    return _Tangent(np.einsum(spec, *vals), tan)


# flat indices of m[j+1, i+1], m[j+2, i+2], m[j+1, i+2], m[j+2, i+1] (mod 3),
# whose products give entry (i, j) of the adjugate
_ADJUGATE_TAKE = np.array([[[3 * ((j + a) % 3) + (i + b) % 3 for j in range(3)]
                            for i in range(3)]
                           for a, b in ((1, 1), (2, 2), (1, 2), (2, 1))])


def _inv3(m):
    """Inverse and determinant of ``m[..., 3, 3]`` via the adjugate.

    For a _Tangent the inverse carries d(m^-1) = -m^-1 (dm) m^-1; the
    determinant is returned as a plain array.
    """
    if isinstance(m, _Tangent):
        inv, det = _inv3(m.v)
        return _Tangent(inv, -np.einsum("...ij,...cjk,...kl->...cil", inv, m.t, inv)), det
    t = m.reshape(m.shape[:-2] + (9,))[..., _ADJUGATE_TAKE]
    adj = t[..., 0, :, :] * t[..., 1, :, :] - t[..., 2, :, :] * t[..., 3, :, :]
    det = np.asarray((m[..., 0, :] * adj[..., :, 0]).sum(axis=-1))
    return adj / det[..., None, None], det


def _first_kind(dg):
    """sym[..., i, l, j] = d_i g_lj + d_j g_li - d_l g_ij from dg[..., k, i, j] = d_k g_ij."""
    return dg + dg.swapaxes(-3, -1) - dg.swapaxes(-3, -2)


def _connection(g, dg):
    """Inverse metric, first-kind symbols and gamma[..., k, i, j] = Gamma^k_{ij}."""
    ginv, _ = _inv3(g)
    sym = _first_kind(dg)
    return ginv, sym, 0.5 * _ein("...kl,...ilj->...kij", ginv, sym)


def _assemble_curvature(g, dg, d2g):
    """Christoffels, Riemann, Ricci and scalar curvature from metric jets.

    Layouts: dg[..., k, i, j] = d_k g_ij, d2g[..., k, l, i, j] = d_k d_l g_ij,
    riemann[..., d, a, b, c] = R^d_{abc} in the fixed sign convention. Given
    _Tangent inputs (each paired with the next derivative order) every output
    is a _Tangent.
    """
    ginv, _, gamma = _connection(g, dg)
    # d_b Gamma^d_{ac} = (1/2) g^dl d_b sym_alc - g^ds d_b g_sk Gamma^k_{ac}, so
    # with y[..., d, b, k] = g^ds d_b g_sk the quadratic terms share one product
    y = _ein("...ds,...bsk->...dbk", ginv, dg)
    # half[..., d, a, b, c] = d_b Gamma^d_{ac} + Gamma^k_{ac} Gamma^d_{bk};
    # the Riemann tensor is its antisymmetric part in (b, c)
    half = (0.5 * _ein("...dl,...balc->...dabc", ginv, _first_kind(d2g))
            + _ein("...kac,...dbk->...dabc", gamma, gamma - y))
    riem = half - half.swapaxes(-2, -1)
    ric = _ein("...dadc->...ac", riem)
    scal = _ein("...ac,...ac->...", ginv, ric)
    return gamma, riem, ric, scal


_JETS = (jets.Jet, jets.Jet2)
_NO_GRAD = (0.0, 0.0, 0.0)
# the upper-triangle entries (i, j) of a symmetric metric, in reading order
_UPPER_I, _UPPER_J = (0, 0, 0, 1, 1, 2), (0, 1, 2, 1, 2, 2)


def _geodesic_terms(metric: MetricField, x, v, transport: bool):
    """``(Gamma^k(v, v) for k = 0, 1, 2)`` and, with ``transport``, Ric(v, v)
    at one point, contracted with v straight from the metric's jets.

    This is the single-point kernel of the geodesic right-hand side: one
    ``metric.components`` evaluation on jets of depth 2 (depth 1 without
    transport, when Ric(v, v) is None), read as Python floats, and no domain
    check. The positive-definiteness check is ``curvature_at``'s,
    ``_check_positive`` on the rows of floats read here: its Gershgorin
    certificate runs on those nine floats, and only a matrix it cannot certify
    becomes an array and a Point3 for the eigvalsh test. It
    builds no curvature tensor; ``curvature_at`` is its oracle. With dots for
    coordinate derivatives, the first-kind symbols Gamma_{f,bc} and
    Gamma^e_bc = g^ef Gamma_{f,bc},

        Ric(v, v) = g^bd v^a v^c R_abcd,
        R_abcd = (g_ad.bc + g_bc.ad - g_ac.bd - g_bd.ac) / 2
                 + g_ef (Gamma^e_bc Gamma^f_ad - Gamma^e_bd Gamma^f_ac),

    so that the quadratic terms read p_fb = Gamma_{f,bc} v^c and the
    contraction g^bd Gamma_{f,bd}, which meets the geodesic's Gamma^f(v, v).
    The metric is taken as symmetric: its upper triangle is read.
    """
    rows = metric.components(*jets.seed(x, 2 if transport else 1))
    vals = [[e.val if isinstance(e, _JETS) else e for e in row] for row in rows]
    _check_positive(vals, metric.label, x)
    (g00, g01, g02), (_, g11, g12), (_, _, g22) = vals
    upper = [rows[i][j] for i, j in zip(_UPPER_I, _UPPER_J)]
    # (a, b, c)_ij = (d_0, d_1, d_2) g_ij
    ((a00, b00, c00), (a01, b01, c01), (a02, b02, c02),
     (a11, b11, c11), (a12, b12, c12), (a22, b22, c22)) = (
        e.grad if isinstance(e, _JETS) else _NO_GRAD for e in upper)
    v0, v1, v2 = v
    # inverse metric i_ij from the adjugate
    i00 = g11 * g22 - g12 * g12
    i01 = g02 * g12 - g01 * g22
    i02 = g01 * g12 - g02 * g11
    det = g00 * i00 + g01 * i01 + g02 * i02
    i00, i01, i02 = i00 / det, i01 / det, i02 / det
    i11 = (g00 * g22 - g02 * g02) / det
    i12 = (g01 * g02 - g00 * g12) / det
    i22 = (g00 * g11 - g01 * g01) / det
    # m_ij = v^c d_c g_ij and y_fb = v^c d_b g_fc
    m00 = a00 * v0 + b00 * v1 + c00 * v2
    m01 = a01 * v0 + b01 * v1 + c01 * v2
    m02 = a02 * v0 + b02 * v1 + c02 * v2
    m11 = a11 * v0 + b11 * v1 + c11 * v2
    m12 = a12 * v0 + b12 * v1 + c12 * v2
    m22 = a22 * v0 + b22 * v1 + c22 * v2
    y00 = a00 * v0 + a01 * v1 + a02 * v2
    y01 = b00 * v0 + b01 * v1 + b02 * v2
    y02 = c00 * v0 + c01 * v1 + c02 * v2
    y10 = a01 * v0 + a11 * v1 + a12 * v2
    y11 = b01 * v0 + b11 * v1 + b12 * v2
    y12 = c01 * v0 + c11 * v1 + c12 * v2
    y20 = a02 * v0 + a12 * v1 + a22 * v2
    y21 = b02 * v0 + b12 * v1 + b22 * v2
    y22 = c02 * v0 + c12 * v1 + c22 * v2
    # Gamma_{f,bc} v^b v^c = m_fc v^c - y_bf v^b / 2, raised by g^-1
    l0 = (m00 * v0 + m01 * v1 + m02 * v2) - 0.5 * (y00 * v0 + y10 * v1 + y20 * v2)
    l1 = (m01 * v0 + m11 * v1 + m12 * v2) - 0.5 * (y01 * v0 + y11 * v1 + y21 * v2)
    l2 = (m02 * v0 + m12 * v1 + m22 * v2) - 0.5 * (y02 * v0 + y12 * v1 + y22 * v2)
    gam0 = i00 * l0 + i01 * l1 + i02 * l2
    gam1 = i01 * l0 + i11 * l1 + i12 * l2
    gam2 = i02 * l0 + i12 * l1 + i22 * l2
    if not transport:
        return (gam0, gam1, gam2), None

    # p_fb = Gamma_{f,bc} v^c = (m_fb + y_fb - y_bf) / 2 and q = g^-1 p;
    # the first quadratic term is g^bd p_fb q_fd
    k01, k02, k12 = 0.5 * (y01 - y10), 0.5 * (y02 - y20), 0.5 * (y12 - y21)
    p00, p11, p22 = 0.5 * m00, 0.5 * m11, 0.5 * m22
    h01, h02, h12 = 0.5 * m01, 0.5 * m02, 0.5 * m12
    p01, p10 = h01 + k01, h01 - k01
    p02, p20 = h02 + k02, h02 - k02
    p12, p21 = h12 + k12, h12 - k12
    q00 = i00 * p00 + i01 * p10 + i02 * p20
    q01 = i00 * p01 + i01 * p11 + i02 * p21
    q02 = i00 * p02 + i01 * p12 + i02 * p22
    q10 = i01 * p00 + i11 * p10 + i12 * p20
    q11 = i01 * p01 + i11 * p11 + i12 * p21
    q12 = i01 * p02 + i11 * p12 + i12 * p22
    q20 = i02 * p00 + i12 * p10 + i22 * p20
    q21 = i02 * p01 + i12 * p11 + i22 * p21
    q22 = i02 * p02 + i12 * p12 + i22 * p22
    ric = (i00 * (p00 * q00 + p10 * q10 + p20 * q20)
           + i11 * (p01 * q01 + p11 * q11 + p21 * q21)
           + i22 * (p02 * q02 + p12 * q12 + p22 * q22)
           + i01 * (p00 * q01 + p10 * q11 + p20 * q21 + p01 * q00 + p11 * q10 + p21 * q20)
           + i02 * (p00 * q02 + p10 * q12 + p20 * q22 + p02 * q00 + p12 * q10 + p22 * q20)
           + i12 * (p01 * q02 + p11 * q12 + p21 * q22 + p02 * q01 + p12 * q11 + p22 * q21))
    # the second: -Gamma^f(v, v) g^bd Gamma_{f,bd}, with
    # g^bd Gamma_{f,bd} = g^bd d_b g_fd - g^bd d_f g_bd / 2
    e0 = (i00 * a00 + i01 * (b00 + a01) + i02 * (c00 + a02) + i11 * b01
          + i12 * (c01 + b02) + i22 * c02)
    e1 = (i00 * a01 + i01 * (b01 + a11) + i02 * (c01 + a12) + i11 * b11
          + i12 * (c11 + b12) + i22 * c12)
    e2 = (i00 * a02 + i01 * (b02 + a12) + i02 * (c02 + a22) + i11 * b12
          + i12 * (c12 + b22) + i22 * c22)
    t0 = i00 * a00 + i11 * a11 + i22 * a22 + 2.0 * (i01 * a01 + i02 * a02 + i12 * a12)
    t1 = i00 * b00 + i11 * b11 + i22 * b22 + 2.0 * (i01 * b01 + i02 * b02 + i12 * b12)
    t2 = i00 * c00 + i11 * c11 + i22 * c22 + 2.0 * (i01 * c01 + i02 * c02 + i12 * c12)
    ric -= gam0 * (e0 - 0.5 * t0) + gam1 * (e1 - 0.5 * t1) + gam2 * (e2 - 0.5 * t2)
    # the second derivatives, entry by entry: an upper entry i < j stands for
    # g_ij and g_ji; with Hessian H it enters g^bd v^a v^c (g_ad.bc + g_bc.ad)
    # / 2 as (v^j g^bi + v^i g^bj) (H v)_b and the other two terms as
    # -(v^i v^j tr(g^-1 H) + g^ij v.H v); a diagonal entry enters half of each
    ginv = ((i00, i01, i02), (i01, i11, i12), (i02, i12, i22))
    for e, i, j in zip(upper, _UPPER_I, _UPPER_J):
        if not isinstance(e, jets.Jet2) or e.hess is None:
            continue
        h0, h1, h2, h3, h4, h5, h6, h7, h8 = e.hess
        hv0 = h0 * v0 + h1 * v1 + h2 * v2
        hv1 = h3 * v0 + h4 * v1 + h5 * v2
        hv2 = h6 * v0 + h7 * v1 + h8 * v2
        gi, gj = ginv[i], ginv[j]
        tr = (i00 * h0 + i11 * h4 + i22 * h8
              + i01 * (h1 + h3) + i02 * (h2 + h6) + i12 * (h5 + h7))
        vhv = v0 * hv0 + v1 * hv1 + v2 * hv2
        vi, vj = v[i], v[j]
        zh = vj * (gi[0] * hv0 + gi[1] * hv1 + gi[2] * hv2)
        if i == j:
            ric += zh - 0.5 * (vi * vi * tr + gi[i] * vhv)
        else:
            ric += (zh + vi * (gj[0] * hv0 + gj[1] * hv1 + gj[2] * hv2)
                    - (vi * vj * tr + gi[j] * vhv))
    return (gam0, gam1, gam2), ric


def _metric_taylor(metric: MetricField, coords, depth: int):
    """The metric and its first ``depth`` (at most 3) coordinate derivatives.

    Seeds ``coords`` to ``depth`` levels of jets, evaluates the components once
    and returns ``(g,)``, ``(g, dg)``, ``(g, dg, d2g)`` or ``(g, dg, d2g, d3g)``
    with g[..., i, j], dg[..., k, i, j] = d_k g_ij, d2g[..., k, l, i, j] =
    d_k d_l g_ij and d3g[..., c, k, l, i, j] = d_c d_k d_l g_ij, as float
    arrays over the batch shape of the coordinates.
    """
    comps = metric.components(*jets.seed(coords, depth))
    batch = getattr(coords[0], "shape", ())  # floats and numpy scalars have shape ()
    parts = jets.taylor([e for row in comps for e in row], depth, batch)
    return tuple(a.reshape(a.shape[:-1] + (3, 3)) for a in parts)


# fourth-order central stencils at offsets (-2, -1, 1, 2) * h
_FD_OFF = (-2.0, -1.0, 1.0, 2.0)
_FD_D1 = (1.0, -8.0, 8.0, -1.0)        # / 12h
_FD_D2 = (-1.0, 16.0, 16.0, -1.0)      # with -30 f0, / 12h^2


def _metric_fd(metric: MetricField, coords, h):
    """Same data as the dual path, via central differences of the components."""
    hh = np.asarray(h)[..., None, None]

    def gmat(*moves):
        x = list(coords)
        for k, o in moves:
            x[k] = x[k] + o * h
        return _metric_taylor(metric, x, 0)[0]

    g0 = gmat()
    axis = [[gmat((k, o)) for o in _FD_OFF] for k in range(3)]
    dg = np.stack([sum(c * gk for c, gk in zip(_FD_D1, axis[k])) / (12.0 * hh)
                   for k in range(3)], axis=-3)
    d2g = np.empty(g0.shape[:-2] + (3, 3, 3, 3))
    for k in range(3):
        d2g[..., k, k, :, :] = (sum(c * gk for c, gk in zip(_FD_D2, axis[k]))
                                - 30.0 * g0) / (12.0 * hh * hh)
        for l in range(k + 1, 3):
            cross = sum(ci * cj * gmat((k, oi), (l, oj))
                        for ci, oi in zip(_FD_D1, _FD_OFF)
                        for cj, oj in zip(_FD_D1, _FD_OFF)) / (144.0 * hh * hh)
            d2g[..., k, l, :, :] = cross
            d2g[..., l, k, :, :] = cross
    return g0, dg, d2g


@dataclass(frozen=True)
class CurvatureBundle:
    """Curvature data of a metric at one point or at a batch of nodes, with the
    metric's Taylor data it was assembled from; ``dricci`` is None except in
    the depth-3 pass of ``ricci_with_derivative``."""

    point: Point3
    backend: str
    metric_matrix: np.ndarray
    dg: np.ndarray         # dg[..., k, i, j] = d_k g_ij
    d2g: np.ndarray        # d2g[..., k, l, i, j] = d_k d_l g_ij
    gamma: np.ndarray      # gamma[..., k, i, j] = Gamma^k_{ij}
    riemann: np.ndarray    # riemann[..., d, a, b, c] = R^d_{abc}
    ricci: np.ndarray
    scalar: float          # an array for a batch of nodes
    dricci: np.ndarray | None = None  # dricci[..., c, a, b] = d_c Ric_ab


def _bundle_nodes(bundle: CurvatureBundle, part: slice) -> CurvatureBundle:
    """The nodes ``part`` of a bundle over a 1-D batch, cut along the leading
    node axis of its point and of every array it holds."""
    arrays = {f.name: getattr(bundle, f.name) for f in fields(bundle)}
    return replace(bundle, point=Point3(*(x[part] for x in bundle.point.coords())),
                   **{name: a[part] for name, a in arrays.items() if isinstance(a, np.ndarray)})


def _curvature(metric: MetricField, p: Point3, backend: str, depth: int) -> CurvatureBundle:
    """The curvature pass of ``curvature_at`` (depth 2, float arrays) and of
    ``ricci_with_derivative`` (depth 3, the same assembly on _Tangent pairs)."""
    _require_inside(metric, p)
    if backend == "dual":
        taylor = _metric_taylor(metric, p.coords(), depth)
    elif backend == "fd":
        taylor = _metric_fd(metric, p.coords(), 1e-3 * np.maximum(1.0, p.r))
    else:
        raise ValueError(f"unknown backend {backend!r}")
    g, dg, d2g = taylor[:3]
    _check_positive(g, metric.label, p)
    if depth == 3:
        parts = _assemble_curvature(*map(_Tangent, taylor[:3], taylor[1:]))
        (gamma, riem, ric, scal), dric = (t.v for t in parts), parts[2].t
    else:
        (gamma, riem, ric, scal), dric = _assemble_curvature(g, dg, d2g), None
    return CurvatureBundle(point=p, backend=backend, metric_matrix=g, dg=dg, d2g=d2g,
                           gamma=gamma, riemann=riem, ricci=ric,
                           scalar=scal if np.ndim(scal) else float(scal), dricci=dric)


def curvature_at(metric: MetricField, point, backend: str = "dual") -> CurvatureBundle:
    """Curvature of a metric field at a chart point.

    ``backend="dual"`` differentiates the components exactly with nested jets;
    ``backend="fd"`` uses fourth-order central differences with step
    1e-3 * max(1, r) and exists as an independent
    cross-check of the dual path.

    A Point3 whose coordinates are arrays evaluates all its nodes in one
    batched pass; every array of the bundle then carries the batch shape in
    front. A single point is the shape-() case of the same path.
    """
    return _curvature(metric, Point3.of(point), backend, 2)


def christoffel_at(metric: MetricField, point) -> np.ndarray:
    """Christoffel symbols gamma[..., k, i, j] = Gamma^k_{ij} (depth-1 jets only)."""
    p = Point3.of(point)
    _require_inside(metric, p)
    g, dg = _metric_taylor(metric, p.coords(), 1)
    _check_positive(g, metric.label, p)
    return _connection(g, dg)[2]


def ricci_with_derivative(metric: MetricField, point) -> CurvatureBundle:
    """``curvature_at``'s bundle, bit for bit, plus ``dricci[..., c, a, b] = d_c Ric_ab``.

    One depth-3 jet evaluation gives the metric to third order; the curvature
    assembly then carries every array with its coordinate derivative as a
    _Tangent pair, so the derivative is exact up to roundoff. A batched Point3
    is evaluated in one pass, with the batch shape in front.
    """
    return _curvature(metric, Point3.of(point), "dual", 3)


def sample_shell(rng: np.random.Generator, n: int, r_min: float, r_max: float) -> list:
    """Sample points uniformly in direction with radii uniform in [r_min, r_max]."""
    pts = []
    for _ in range(n):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        r = rng.uniform(r_min, r_max)
        pts.append(Point3(float(v[0] * r), float(v[1] * r), float(v[2] * r)))
    return pts
