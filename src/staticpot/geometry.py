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
from dataclasses import dataclass
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
    like r^(-2-k).
    """

    i: int
    j: int
    amplitude: float
    powers: tuple = (0, 0, 0)

    def __post_init__(self):
        if not (0 <= self.i <= 2 and 0 <= self.j <= 2):
            raise ValueError("term indices must lie in 0..2")
        if len(self.powers) != 3 or any(int(p) != p or p < 0 for p in self.powers):
            raise ValueError("powers must be three nonnegative integers")
        if sum(self.powers) > 2:
            raise ValueError("total angular degree must be at most 2")


@dataclass(frozen=True)
class MetricField:
    """A metric on a chart, with its decay class and domain bookkeeping.

    ``components(X1, X2, X3)`` returns a 3x3 nested list of scalars and must be
    generic over the scalar type: floats, coordinate arrays or jets.
    ``contains`` answers point membership, elementwise for a batched Point3;
    ``boundary_margin`` is a continuous function positive inside the domain,
    used as a termination event by the ODE drivers.
    """

    label: str
    components: Callable
    tau: float
    mass: float
    contains: Callable
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
    inside = metric.contains(p)
    if inside is True or np.all(inside):  # a plain bool for a single point
        return
    raise DomainError(f"{metric.label}: point {_first_flagged(p, ~np.asarray(inside))} "
                      "outside chart domain")


def _check_positive(g: np.ndarray, label: str, p: Point3) -> None:
    if not np.isfinite(g).all():
        bad = ~np.isfinite(g).all(axis=(-2, -1))
        raise SingularMetricError(
            f"{label}: non-finite metric entries at {_first_flagged(p, bad)}")
    # eigvalsh sorts ascending, so slot 0 is the smallest eigenvalue
    low = np.linalg.eigvalsh(0.5 * (g + g.swapaxes(-2, -1)))[..., 0] <= _EIG_FLOOR
    if low.any():
        raise SingularMetricError(
            f"{label}: metric not positive definite at {_first_flagged(p, low)}")


def _validate_tau(tau: float) -> float:
    tau = float(tau)
    if not (0.5 < tau <= 1.0):
        raise ValueError(f"decay rate tau must lie in (1/2, 1], got {tau}")
    return tau


### Metric families


def euclidean() -> MetricField:
    """The flat metric in Cartesian coordinates."""

    def comps(X1, X2, X3):
        return [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]

    return MetricField(
        label="euclidean",
        components=comps,
        tau=1.0,
        mass=0.0,
        contains=lambda p: True,
        boundary_margin=lambda p: 1.0,
    )


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

    def comps(X1, X2, X3):
        r = jets.sqrt(X1 * X1 + X2 * X2 + X3 * X3)
        phi = 1.0 + (0.5 * m) / r
        c = phi * phi
        c = c * c
        return [[c, 0.0, 0.0], [0.0, c, 0.0], [0.0, 0.0, c]]

    return MetricField(
        label=f"schwarzschild(m={m:g})",
        components=comps,
        tau=1.0,
        mass=m,
        contains=lambda p: p.r > r_floor * (1.0 + 1e-12) + 1e-300,
        boundary_margin=lambda p: p.r - r_floor,
    )


def perturbed_as(mass: float, terms: Sequence[PerturbationTerm], r_min: float | None = None) -> MetricField:
    """Asymptotically flat metric: conformal part plus explicit r^-2 terms."""
    m = float(mass)
    terms = tuple(terms)
    total = sum(abs(t.amplitude) for t in terms)
    if r_min is None:
        # keep the perturbation well below the conformal part so the matrix
        # stays positive definite with margin
        r_min = max(abs(m), 2.0 * math.sqrt(total) if total > 0 else 0.0, 1e-3)
    r_min = float(r_min)

    def comps(X1, X2, X3):
        r2 = X1 * X1 + X2 * X2 + X3 * X3
        r = jets.sqrt(r2)
        phi = 1.0 + (0.5 * m) / r
        c = phi * phi
        c = c * c
        g = [[c, 0.0, 0.0], [0.0, c, 0.0], [0.0, 0.0, c]]
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
        tau=1.0,
        mass=m,
        contains=lambda p: p.r > r_min,
        boundary_margin=lambda p: p.r - r_min,
    )


def generic_metric(components: Callable, tau: float = 1.0, contains: Callable | None = None,
                   boundary_margin: Callable | None = None, label: str = "generic",
                   mass: float = 0.0) -> MetricField:
    """Wrap a user-supplied components closure as a metric field."""
    return MetricField(
        label=label,
        components=components,
        tau=_validate_tau(tau),
        mass=float(mass),
        contains=contains if contains is not None else (lambda p: True),
        boundary_margin=boundary_margin if boundary_margin is not None else (lambda p: 1.0),
    )


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

    def to_base(p: Point3) -> Point3:
        return Point3(*base_coords(p.x1, p.x2, p.x3))

    return MetricField(
        label=metric.label + "+rotated",
        components=comps,
        tau=metric.tau,
        mass=metric.mass,
        contains=lambda p: metric.contains(to_base(p)),
        boundary_margin=lambda p: metric.boundary_margin(to_base(p)),
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


def _metric_taylor(metric: MetricField, coords, depth: int):
    """The metric and its first ``depth`` (at most 3) coordinate derivatives.

    Seeds ``coords`` to ``depth`` levels of jets, evaluates the components once
    and returns ``(g,)``, ``(g, dg)``, ``(g, dg, d2g)`` or ``(g, dg, d2g, d3g)``
    with g[..., i, j], dg[..., k, i, j] = d_k g_ij, d2g[..., k, l, i, j] =
    d_k d_l g_ij and d3g[..., c, k, l, i, j] = d_c d_k d_l g_ij, as float
    arrays over the batch shape of the coordinates.
    """
    comps = metric.components(*jets.seed(coords, depth))
    # per order n, the entries by (i, j) and then by derivative slots
    flat = jets.taylor([e for row in comps for e in row], depth)
    batch = getattr(coords[0], "shape", ())  # floats and numpy scalars have shape ()
    out = []
    for n, vals in enumerate(flat):
        a = _stack(vals, batch).reshape((3,) * (n + 2) + batch)
        if a.ndim > 2:
            # batch axes first, then the derivative slots, then (i, j)
            nt = n + 2
            a = a.transpose(tuple(range(nt, a.ndim)) + tuple(range(2, nt)) + (0, 1))
        out.append(a)
    return tuple(out)


def _stack(vals, batch: tuple) -> np.ndarray:
    """Float array of shape ``(len(vals),) + batch`` from scalars and batch-shaped arrays."""
    if not batch:
        return np.array(vals, float)
    out = np.empty((len(vals),) + batch)
    for k, v in enumerate(vals):
        out[k] = v
    return out


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
    """Curvature data of a metric at one point or at a batch of nodes."""

    point: Point3
    backend: str
    metric_matrix: np.ndarray
    gamma: np.ndarray      # gamma[..., k, i, j] = Gamma^k_{ij}
    riemann: np.ndarray    # riemann[..., d, a, b, c] = R^d_{abc}
    ricci: np.ndarray
    scalar: float          # an array for a batch of nodes


def curvature_at(metric: MetricField, point, backend: str = "dual",
                 check_domain: bool = True) -> CurvatureBundle:
    """Curvature of a metric field at a chart point.

    ``backend="dual"`` differentiates the components exactly with nested jets;
    ``backend="fd"`` uses fourth-order central differences with step
    1e-3 * max(1, r) and exists as an independent
    cross-check of the dual path. ``check_domain=False`` skips the membership
    test; ODE drivers need that while an integrator stage probes past a
    boundary it is about to stop at.

    A Point3 whose coordinates are arrays evaluates all its nodes in one
    batched pass; every array of the bundle then carries the batch shape in
    front. A single point is the shape-() case of the same path.
    """
    p = Point3.of(point)
    if check_domain:
        _require_inside(metric, p)
    if backend == "dual":
        g, dg, d2g = _metric_taylor(metric, p.coords(), 2)
    elif backend == "fd":
        g, dg, d2g = _metric_fd(metric, p.coords(), 1e-3 * np.maximum(1.0, p.r))
    else:
        raise ValueError(f"unknown backend {backend!r}")

    _check_positive(g, metric.label, p)
    gamma, riem, ric, scal = _assemble_curvature(g, dg, d2g)
    return CurvatureBundle(
        point=p,
        backend=backend,
        metric_matrix=g,
        gamma=gamma,
        riemann=riem,
        ricci=ric,
        scalar=scal if np.ndim(scal) else float(scal),
    )


def christoffel_at(metric: MetricField, point, check_domain: bool = True) -> np.ndarray:
    """Christoffel symbols gamma[..., k, i, j] = Gamma^k_{ij} (depth-1 jets only)."""
    p = Point3.of(point)
    if check_domain:
        _require_inside(metric, p)
    g, dg = _metric_taylor(metric, p.coords(), 1)
    _check_positive(g, metric.label, p)
    return _connection(g, dg)[2]


def ricci_with_derivative(metric: MetricField, point):
    """Ricci tensor, its coordinate derivative and the Christoffels.

    Returns ``(ric, dric, gamma)`` with ``dric[..., c, a, b] = d_c Ric_ab``.
    One depth-3 jet evaluation gives the metric to third order; the curvature
    assembly then carries every array with its coordinate derivative as a
    _Tangent pair, so the derivative is exact up to roundoff. A batched Point3
    is evaluated in one pass, with the batch shape in front.
    """
    p = Point3.of(point)
    _require_inside(metric, p)
    g, dg, d2g, d3g = _metric_taylor(metric, p.coords(), 3)
    _check_positive(g, metric.label, p)
    gamma, _riem, ric, _scal = _assemble_curvature(_Tangent(g, dg), _Tangent(dg, d2g),
                                                   _Tangent(d2g, d3g))
    return ric.v, ric.t, gamma.v


def reconstruct_riemann_from_ricci(ricci, scalar: float, g) -> np.ndarray:
    """Rebuild the full curvature tensor from Ricci data, valid in dimension 3.

    Implements R^d_{abc} = delta^d_b R_ac - delta^d_c R_ab + g_ac R^d_b
    - g_ab R^d_c + (R/2)(delta^d_c g_ab - delta^d_b g_ac).
    """
    ric = np.array(ricci, dtype=float)
    gm = np.array(g, dtype=float)
    if gm.shape != (3, 3) or ric.shape != (3, 3):
        raise ValueError("expected 3x3 matrices")
    _check_positive(gm, "reconstruct", Point3(0.0, 0.0, 0.0))
    ric_mixed = np.linalg.inv(gm) @ ric  # R^d_b
    # the terms with delta^d_b and R^d_b; the tensor is their antisymmetric
    # part in (b, c)
    half = (np.einsum("db,ac->dabc", np.eye(3), ric - 0.5 * float(scalar) * gm)
            + np.einsum("ac,db->dabc", gm, ric_mixed))
    return half - np.swapaxes(half, -2, -1)


def sample_shell(rng: np.random.Generator, n: int, r_min: float, r_max: float) -> list:
    """Sample points uniformly in direction with radii uniform in [r_min, r_max]."""
    pts = []
    for _ in range(n):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        r = rng.uniform(r_min, r_max)
        pts.append(Point3(float(v[0] * r), float(v[1] * r), float(v[2] * r)))
    return pts
