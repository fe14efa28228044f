"""Zero sets of potentials: extraction, induced metric and intrinsic curvature.

A zero set is located as a certified root along a one-parameter line family: a
vertical line over a base plane for asymptotic graphs, a ray from a center for
closed components. The same chart object then lifts the lines to the surface:
roots, their slopes, surface points and tangents come from one solve
(``SurfaceChart.lift``). The induced two-metric and its first and second
chart derivatives come from the root as a Taylor jet (implicit
differentiation in jet arithmetic), which is exact: the geodesic curvature of
circles and the intrinsic curvature (Brioschi formula) take no finite
differences.

The chart is batched: it takes arrays of line coordinates and solves all their
lines in one array pass, with Brent's method run lane by lane (``brentq``). So
each point set (a circle, a quadrature grid, a sample set) is one chart call,
and a failing batch raises the error of its first failing line.
An evaluation along the lines ignores floating-point flags; a nan or inf it
returns (where a float would raise, say log outside its domain) is a
DomainError naming its line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import jets
from .errors import (CriticalOnZeroSetError, DomainError, MonotonicityError,
                     MultiRootError, NoRootError, ResolutionError)
from .geometry import MetricField, Point3, _first_flagged, _first_kind
from .potentials import PotentialField, StaticResidual, _gate, _norm_g, static_residual
from .quadrature import aitken_limit, decay_exponent, require_geometric_tail


def brentq(f, a, b, xtol: float = 2e-12, rtol: float = 8.881784197001252e-16,
           maxiter: int = 100) -> np.ndarray:
    """Brent's method on many brackets at once: a numpy port of scipy's brentq.c.

    ``f(x, lanes)`` evaluates the objective at ``x`` for the brackets
    ``lanes`` (indices into ``a`` and ``b``). Every lane takes the scalar
    algorithm's steps in its order, and a converged lane is frozen and no
    longer evaluated, so each root is the one ``scipy.optimize.brentq`` finds
    on the same objective, bit for bit (Brent, *Algorithms for Minimization
    without Derivatives*, 1973, ch. 4). Raises ValueError at the first lane
    whose end values have the same sign or whose objective is NaN, and
    RuntimeError at the first lane not converged after ``maxiter`` steps. A
    module attribute, so that perfbench's tracer can rebind it to count
    objective evaluations.
    """
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    a, b = a.ravel(), b.ravel()
    lanes = np.arange(a.size)

    def call(x, at):
        fx = np.broadcast_to(np.asarray(f(x, at), dtype=float), x.shape)
        nan = np.isnan(fx)
        if nan.any():
            k = int(np.argmax(nan))
            raise ValueError(f"The function value at x={x[k]} is NaN; solver cannot "
                             f"continue (bracket {int(at[k])})")
        return fx

    xpre, xcur = a.copy(), b.copy()
    fpre, fcur = call(xpre, lanes), call(xcur, lanes)
    root = np.where(fpre == 0, xpre, xcur)
    same = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) == np.signbit(fcur))
    if same.any():
        raise ValueError(f"f(a) and f(b) must have different signs "
                         f"(bracket {int(np.argmax(same))})")
    live = (fpre != 0) & (fcur != 0)
    lanes, xpre, xcur, fpre, fcur = (x[live] for x in (lanes, xpre, xcur, fpre, fcur))
    xblk, fblk, spre, scur = (np.zeros(lanes.size) for _ in range(4))
    for _ in range(maxiter):
        flip = (fpre != 0) & (fcur != 0) & (np.signbit(fpre) != np.signbit(fcur))
        xblk, fblk = np.where(flip, xpre, xblk), np.where(flip, fpre, fblk)
        step = xcur - xpre
        spre, scur = np.where(flip, step, spre), np.where(flip, step, scur)
        swap = np.abs(fblk) < np.abs(fcur)
        xpre, xcur, xblk = (np.where(swap, xcur, xpre), np.where(swap, xblk, xcur),
                            np.where(swap, xcur, xblk))
        fpre, fcur, fblk = (np.where(swap, fcur, fpre), np.where(swap, fblk, fcur),
                            np.where(swap, fcur, fblk))

        delta = (xtol + rtol * np.abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        done = (fcur == 0) | (np.abs(sbis) < delta)
        root[lanes[done]] = xcur[done]
        go = ~done
        if not go.any():
            return root
        (lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur, delta, sbis) = (
            x[go] for x in (lanes, xpre, xcur, xblk, fpre, fcur, fblk, spre, scur,
                            delta, sbis))

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            interpolated = -fcur * (xcur - xpre) / (fcur - fpre)
            dpre = (fpre - fcur) / (xpre - xcur)
            dblk = (fblk - fcur) / (xblk - xcur)
            extrapolated = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        stry = np.where(xpre == xblk, interpolated, extrapolated)
        cap = 3 * np.abs(sbis) - delta
        cap = np.where(np.abs(spre) < cap, np.abs(spre), cap)  # C's MIN(a, b)
        short = ((np.abs(spre) > delta) & (np.abs(fcur) < np.abs(fpre))
                 & (2 * np.abs(stry) < cap))
        spre, scur = np.where(short, scur, sbis), np.where(short, stry, sbis)

        xpre, fpre = xcur, fcur
        xcur = xcur + np.where(np.abs(scur) > delta, scur, np.where(sbis > 0, delta, -delta))
        fcur = call(xcur, lanes)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations, value is "
                       f"{xcur[0]} (bracket {int(lanes[0])})")


def _lines(u, v):
    """Broadcast line coordinates: their shape, and u and v as flat float lanes."""
    u, v = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(v, dtype=float))
    return u.shape, u.ravel(), v.ravel()


def _dot(x, y):
    """x @ y over stacked vectors, as the 1-D product computes it."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _quad(x, a, y):
    """x @ a @ y over stacked vectors and matrices, as the 1-D products compute it."""
    return _dot((x[..., None, :] @ a)[..., 0, :], y)


# |f| at a certified root; every chart certifies to it
_ROOT_TOL = 1e-10


@dataclass(frozen=True)
class Lift:
    """Lines lifted to the surface by one solve; arrays carry the lines' shape in front."""

    s: np.ndarray        # (...) roots of the lines
    slopes: np.ndarray   # (..., 2) ds/du, ds/dv of the roots
    point: Point3        # (...) surface points
    tu: np.ndarray       # (..., 3) chart tangents d/du
    tv: np.ndarray       # (..., 3) chart tangents d/dv


class SurfaceChart:
    """Implicit surface chart: root of a potential along a line family, batched.

    ``embed(u, v, s)`` maps chart coordinates and the line parameter to the
    ambient chart and must be generic over the scalar type: arrays of lines and
    of line parameters, and jets with array slots. ``bracket`` is the
    ``(lo, hi)`` pair every line starts from. Every method takes (u, v) as
    scalars or arrays and solves all lines in one array pass:

    - a sign scan over 25 samples per line, one ``(lines, 25)`` evaluation;
      a bracket without a sign change is widened about its midpoint, line by
      line, up to seven scans, never below ``param_floor``;
    - Brent's method lane by lane (``brentq``), three Newton polish steps,
      certification to |f| <= 1e-10 and the slope floor: the directional
      slope along the line must stay above ``slope_floor``.

    ``lift`` reads everything a solve gives (roots, their slopes, surface
    points, chart tangents); ``roots``, ``root`` and ``sigma_at`` are the
    other readers.

    A batch with a failing line raises the error of its first failing line,
    naming that line's (u, v). Each of these steps evaluates f or df/ds in one
    array pass with floating-point flags ignored; a line that meets a nan or
    inf fails with DomainError at its first such sample, and no later step
    reads it.
    """

    def __init__(self, f: PotentialField, metric: MetricField, embed: Callable,
                 bracket: tuple, slope_floor: float = 0.5, label: str = "surface",
                 param_floor: float | None = None):
        self.f = f
        self.metric = metric
        self.embed = embed
        self.bracket = bracket
        self.slope_floor = slope_floor
        self.label = label
        self.param_floor = param_floor  # widened brackets never go below this

    # -- evaluation along lines: one array pass each

    def _finite(self, what: str, vals, u, v, s, lanes, errors) -> np.ndarray:
        """``vals`` at the parameters ``s`` of the lines, non-finite entries read as 0.

        ``s`` holds one parameter per line, or a row of samples per line. A
        line with a nan or inf there (numpy's answer where a float would raise:
        log or sqrt outside its domain, a division by zero, an overflow) has
        DomainError recorded in ``errors[lane]`` at its first such sample; the
        first error a lane meets is kept.
        """
        vals = np.broadcast_to(np.asarray(vals, dtype=float), s.shape)
        bad = ~np.isfinite(vals)
        rows, at = (bad, s) if s.ndim > 1 else (bad[:, None], s[:, None])
        for k in np.flatnonzero(rows.any(axis=1)).tolist():
            errors.setdefault(int(lanes[k]), DomainError(
                f"{self.label}: {what} is not finite at s = {at[k, rows[k].argmax()]:g} "
                f"on the line (u, v) = ({u[k]:g}, {v[k]:g})"))
        return np.where(bad, 0.0, vals)

    def _values(self, u, v, s, lanes, errors) -> np.ndarray:
        """f at ``s``: one parameter per line, or a ``(lines, 25)`` scan."""
        rows = (u[:, None], v[:, None]) if s.ndim > 1 else (u, v)
        with np.errstate(all="ignore"):
            X = self.embed(*rows, s)
            vals = jets.value(self.f.expr(X[0], X[1], X[2]))
        return self._finite("f", vals, u, v, s, lanes, errors)

    def _slopes(self, u, v, s, lanes, errors) -> np.ndarray:
        """df/ds at one parameter ``s`` per line."""
        with np.errstate(all="ignore"):
            X = self.embed(u, v, jets.Jet(s, (1.0, 0.0, 0.0)))
            vals = jets.peel_grad(self.f.expr(X[0], X[1], X[2]), 0)
        return self._finite("df/ds", vals, u, v, s, lanes, errors)

    # -- certified roots

    def _solve(self, u: np.ndarray, v: np.ndarray):
        """Certified roots of the lines (flat lanes u, v) and the slopes there."""
        n = u.size
        errors = {}  # lane -> the first error the lane met
        lanes = np.arange(n)
        lo, hi = (np.full(n, float(end)) for end in self.bracket)
        s_lo, s_hi = np.zeros(n), np.zeros(n)
        ok = np.ones(n, dtype=bool)  # lanes with no error yet

        scan = lanes
        for _ in range(7):
            if not scan.size:
                break
            ss = np.linspace(lo[scan], hi[scan], 25, axis=-1)
            vals = self._values(u[scan], v[scan], ss, scan, errors)
            # a sample landing exactly on the root counts once, not as two
            # sign flips around it
            zero = vals == 0.0
            pos = vals > 0.0
            events = zero.copy()
            events[:, 1:] |= ~zero[:, 1:] & ~zero[:, :-1] & (pos[:, 1:] != pos[:, :-1])
            count = events.sum(axis=1)
            ok[list(errors)] = False
            live = ok[scan]
            for k in np.flatnonzero(live & (count > 1)).tolist():
                lane = int(scan[k])
                errors[lane] = MultiRootError(
                    f"{self.label}: {count[k]} sign changes on [{lo[lane]:g}, {hi[lane]:g}] "
                    f"at (u, v) = ({u[lane]:g}, {v[lane]:g})")
            rows = np.flatnonzero(live & (count == 1))
            at = events[rows].argmax(axis=1)
            s_hi[scan[rows]] = ss[rows, at]
            s_lo[scan[rows]] = np.where(zero[rows, at], ss[rows, at], ss[rows, at - 1])
            scan = scan[live & (count == 0)]
            mid, half = 0.5 * (lo[scan] + hi[scan]), hi[scan] - lo[scan]
            lo[scan], hi[scan] = mid - half, mid + half
            if self.param_floor is not None:
                lo[scan] = np.maximum(lo[scan], self.param_floor)
        for lane in scan.tolist():
            errors[lane] = NoRootError(
                f"{self.label}: no sign change found near (u, v) = ({u[lane]:g}, {v[lane]:g})")

        s = s_lo.copy()
        ok[list(errors)] = False
        solve = lanes[ok & (s_lo != s_hi)]
        if solve.size:
            s[solve] = brentq(
                lambda t, j: self._values(u[solve[j]], v[solve[j]], t, solve[j], errors),
                s_lo[solve], s_hi[solve], xtol=1e-13, rtol=8.9e-16, maxiter=200)
            ok[list(errors)] = False

        polish = lanes[ok]
        for _ in range(3):
            if not polish.size:
                break
            fv = self._values(u[polish], v[polish], s[polish], polish, errors)
            sl = self._slopes(u[polish], v[polish], s[polish], polish, errors)
            ok[list(errors)] = False
            step = ok[polish] & ~((fv == 0.0) | (np.abs(sl) < 1e-14))
            polish = polish[step]
            s[polish] -= fv[step] / sl[step]

        check = lanes[ok]
        fv = np.abs(self._values(u[check], v[check], s[check], check, errors))
        for k in np.flatnonzero(fv > _ROOT_TOL).tolist():
            lane = int(check[k])
            errors.setdefault(lane, NoRootError(
                f"{self.label}: root certification failed, |f| = {fv[k]:.3e} "
                f"> {_ROOT_TOL:g} at (u, v) = ({u[lane]:g}, {v[lane]:g})"))
        ok[list(errors)] = False
        check = lanes[ok]
        slope = np.zeros(n)
        slope[check] = self._slopes(u[check], v[check], s[check], check, errors)
        for lane in check[slope[check] < self.slope_floor].tolist():
            errors.setdefault(lane, MonotonicityError(
                f"{self.label}: line slope {slope[lane]:.3e} below floor {self.slope_floor:g} "
                f"at (u, v) = ({u[lane]:g}, {v[lane]:g})"))
        if errors:
            raise errors[min(errors)]
        return s, slope

    def _root_jet(self, U, V, s0, slope, depth: int):
        """Root as a jet in the chart coordinates U, V seeded to ``depth``, exact.

        Simplified Newton in jet arithmetic with the frozen float slope; each
        sweep gains one Taylor order, so depth+1 sweeps land exactly.
        """
        S = s0
        for _ in range(depth + 1):
            X = self.embed(U, V, S)
            S = S - self.f.expr(X[0], X[1], X[2]) / slope
        return S

    def _lift(self, u, v) -> Lift:
        """Flat lanes of lines lifted to the surface: one solve."""
        s, slope = self._solve(u, v)
        U, V, _ = jets.seed((u, v, 0.0), 1)
        S = self._root_jet(U, V, s, slope, 1)
        X = self.embed(U, V, S)
        # dx[:, i, k] = d_i X_k for the embedding, k = 3 the root; i = u, v
        _, dx = jets.taylor([*X, S], 1, u.shape)
        (x,) = jets.taylor(self.embed(u, v, s), 0, u.shape)
        return Lift(s=s, slopes=dx[:, :2, 3].copy(), point=Point3(*x.T),
                    tu=dx[:, 0, :3].copy(), tv=dx[:, 1, :3].copy())

    def _sigma(self, lift: Lift) -> np.ndarray:
        """(n, 2, 2) induced two-metric of lifted lanes, from one metric evaluation."""
        g = self.metric.matrix(lift.point)
        e, fm = _quad(lift.tu, g, lift.tu), _quad(lift.tu, g, lift.tv)
        return np.stack([e, fm, fm, _quad(lift.tv, g, lift.tv)], axis=-1).reshape(-1, 2, 2)

    def _sigma_taylor(self, u, v, depth: int):
        """sigma and its first ``depth`` (1 or 2) chart derivatives on flat lanes, exact.

        One solve; the root jet is seeded to depth + 1, so the tangents
        T = dX/d(u, v) carry ``depth`` orders and sigma = T^T g(X) T is formed
        in jet arithmetic. The surface points pass ``metric.matrix`` once
        (domain and positivity, as ``_sigma`` checks them). Returns
        ``depth + 1`` arrays: sigma[n, a, b], d_c sigma[n, c, a, b] and, at
        depth 2, d_c d_e sigma[n, c, e, a, b].
        """
        s, slope = self._solve(u, v)
        U, V, _ = jets.seed((u, v, 0.0), depth + 1)
        X = self.embed(U, V, self._root_jet(U, V, s, slope, depth + 1))
        self.metric.matrix(Point3(*(np.broadcast_to(jets.value(x), u.shape) for x in X)))
        T = [[jets.peel_grad(x, a) for x in X] for a in (0, 1)]
        g = self.metric.components(*(jets.peel_value(x) for x in X))
        gT = [[g[i][0] * t[0] + g[i][1] * t[1] + g[i][2] * t[2] for i in range(3)] for t in T]
        sigma = [T[a][0] * gT[b][0] + T[a][1] * gT[b][1] + T[a][2] * gT[b][2]
                 for a, b in ((0, 0), (0, 1), (1, 1))]
        # E, F, F, G over the chart slots u, v of the three seeded coordinates
        return [d[(Ellipsis,) + (slice(0, 2),) * n + ([0, 1, 1, 2],)].reshape(
                    (u.size,) + (2,) * n + (2, 2))
                for n, d in enumerate(jets.taylor(sigma, depth, u.shape))]

    # -- public evaluations: (u, v) scalars or arrays of lines

    def roots(self, u, v) -> np.ndarray:
        """Certified roots of the lines (u, v), shaped like their broadcast."""
        shape, u, v = _lines(u, v)
        return self._solve(u, v)[0].reshape(shape)

    def root(self, u: float, v: float) -> float:
        """Certified root of one line: a batch of one."""
        return float(self.roots(u, v))

    def lift(self, u, v) -> Lift:
        """The lines (u, v) lifted to the surface by one solve, shaped like their broadcast."""
        shape, u, v = _lines(u, v)
        lift = self._lift(u, v)
        return Lift(s=lift.s.reshape(shape), slopes=lift.slopes.reshape(shape + (2,)),
                    point=Point3(*(x.reshape(shape) for x in lift.point.coords())),
                    tu=lift.tu.reshape(shape + (3,)), tv=lift.tv.reshape(shape + (3,)))

    def sigma_at(self, u, v) -> np.ndarray:
        """Induced two-metric in the chart coordinates, ``(..., 2, 2)``."""
        shape, u, v = _lines(u, v)
        return self._sigma(self._lift(u, v)).reshape(shape + (2, 2))


### Intrinsic geometry of the induced two-metric


def _surface_christoffel(sig: np.ndarray, dsig: np.ndarray) -> np.ndarray:
    """gam[..., k, a, b] = Gamma^k_{ab} of the two-metric sig from its chart
    derivatives dsig[..., c, a, b] = d_c sig_ab."""
    return 0.5 * np.einsum("...kl,...alb->...kab", np.linalg.inv(sig), _first_kind(dsig))


def _brioschi(sig: np.ndarray, dsig: np.ndarray, d2sig: np.ndarray) -> np.ndarray:
    """Intrinsic curvature from sigma and its first and second chart derivatives
    (Brioschi formula)."""
    d_u, d_v = dsig[..., 0, :, :], dsig[..., 1, :, :]
    d_uu, d_uv, d_vv = d2sig[..., 0, 0, :, :], d2sig[..., 0, 1, :, :], d2sig[..., 1, 1, :, :]

    E, F, G = sig[..., 0, 0], sig[..., 0, 1], sig[..., 1, 1]
    zero = np.zeros_like(E)
    M1 = np.stack([
        -0.5 * d_vv[..., 0, 0] + d_uv[..., 0, 1] - 0.5 * d_uu[..., 1, 1], 0.5 * d_u[..., 0, 0],
        d_u[..., 0, 1] - 0.5 * d_v[..., 0, 0],
        d_v[..., 0, 1] - 0.5 * d_u[..., 1, 1], E, F,
        0.5 * d_v[..., 1, 1], F, G,
    ], axis=-1).reshape(E.shape + (3, 3))
    M2 = np.stack([
        zero, 0.5 * d_v[..., 0, 0], 0.5 * d_u[..., 1, 1],
        0.5 * d_v[..., 0, 0], E, F,
        0.5 * d_u[..., 1, 1], F, G,
    ], axis=-1).reshape(E.shape + (3, 3))
    den = (E * G - F * F) ** 2
    return (np.linalg.det(M1) - np.linalg.det(M2)) / den


def gaussian_curvature(chart: SurfaceChart, u, v):
    """Intrinsic curvature of the induced two-metric via the Brioschi formula.

    (u, v) may be arrays: all their lines take one chart call. A float for a
    single point.
    """
    shape, u, v = _lines(u, v)
    K = _brioschi(*chart._sigma_taylor(u, v, 2)).reshape(shape)
    return K if K.ndim else float(K)


### Regions and graph extraction


@dataclass(frozen=True)
class AnnulusRegion:
    """Base-plane annulus inner < |(u, v)| < outer."""

    inner: float
    outer: float

    def __post_init__(self):
        if not (0.0 < self.inner < self.outer):
            raise ValueError("need 0 < inner < outer")

    def grid(self, n_radial: int, n_angular: int):
        rhos = np.geomspace(self.inner * 1.05, self.outer / 1.05, n_radial)
        angs = 2.0 * np.pi * np.arange(n_angular) / n_angular
        return [(float(rho * math.cos(a)), float(rho * math.sin(a)))
                for rho in rhos for a in angs]


@dataclass(frozen=True)
class SurfaceGraph:
    """Zero set written as x1 = q(u, v) over the (x2, x3) base plane."""

    chart: SurfaceChart
    region: AnnulusRegion
    nodes: np.ndarray        # (N, 2) base-plane sample points
    heights: np.ndarray      # (N,) q values
    slopes: np.ndarray       # (N, 2) dq


def extract_zero_graph(f: PotentialField, metric: MetricField, region: AnnulusRegion,
                       bracket: tuple, n_u: int, n_v: int) -> SurfaceGraph:
    """Extract the zero set of f as a graph along the x1 direction.

    Every node of the ``n_u`` by ``n_v`` grid of ``region`` gets a certified
    root, all from one chart call, each line starting from the ``(lo, hi)``
    pair ``bracket``; the graph-direction derivative must stay above 0.5
    (MonotonicityError otherwise), and missing or multiple crossings raise
    NoRootError / MultiRootError. The metric is evaluated at every surface
    point once, so a node outside the metric's chart fails here.
    """

    def embed(U, V, S):
        return (S, U, V)

    chart = SurfaceChart(f, metric, embed, bracket, label=f"graph[{f.label}]")
    nodes = np.array(region.grid(n_u, n_v))
    lift = chart.lift(nodes[:, 0], nodes[:, 1])
    metric.matrix(lift.point)
    return SurfaceGraph(chart=chart, region=region, nodes=nodes, heights=lift.s,
                        slopes=lift.slopes)


### Boundary circles: geodesic curvature and the turning-number limit


@dataclass(frozen=True)
class CircleTurning:
    radius: float
    turning_integral: float
    length: float
    mean_kappa_deviation: float   # mean of |kappa * radius - 1|


def _running_sum(terms: np.ndarray) -> float:
    """Left-to-right sum, as a loop adding one term at a time computes it."""
    return float(np.cumsum(terms)[-1]) if terms.size else 0.0


def circle_turning(graph: SurfaceGraph, radius: float, n_angles: int = 256) -> CircleTurning:
    """Total geodesic curvature of the coordinate circle |(u, v)| = radius.

    The radius must lie inside the open annulus (ResolutionError otherwise);
    all angles take one chart call.
    """
    region = graph.region
    if not region.inner < radius < region.outer:
        raise ResolutionError(f"circle radius {radius:g} outside the annulus "
                              f"({region.inner:g}, {region.outer:g})")

    w = 2.0 * np.pi / n_angles
    lam = w * np.arange(n_angles)
    cl, sl = np.cos(lam), np.sin(lam)
    sig, dsig = graph.chart._sigma_taylor(radius * cl, radius * sl, 1)
    gam = _surface_christoffel(sig, dsig)
    cp = np.stack([-radius * sl, radius * cl], axis=-1)
    cpp = np.stack([-radius * cl, -radius * sl], axis=-1)
    acc = cpp + np.einsum("...kab,...a,...b->...k", gam, cp, cp)
    speed2 = _quad(cp, sig, cp)
    num = cp[:, 0] * acc[:, 1] - cp[:, 1] * acc[:, 0]
    kappa = np.sqrt(np.linalg.det(sig)) * num / speed2 ** 1.5
    speed = np.sqrt(speed2)
    return CircleTurning(radius=radius, turning_integral=_running_sum(kappa * speed * w),
                         length=_running_sum(speed * w),
                         mean_kappa_deviation=_running_sum(np.abs(kappa * radius - 1.0) / n_angles))


@dataclass(frozen=True)
class GaussBonnetReport:
    radii: np.ndarray
    turning_integrals: np.ndarray
    lengths: np.ndarray
    kappa_deviations: np.ndarray
    extrapolated: float
    deviation_decay_exponent: float


def gauss_bonnet_limit(graph: SurfaceGraph, radii, n_angles: int = 256) -> GaussBonnetReport:
    """Turning integrals over growing circles and their extrapolated limit.

    The limit is ``aitken_limit`` of the last three integrals, whose error
    decays like 1/r: ValueError, before any circle is traced, unless those
    radii are geometric (``require_geometric_tail``).
    """
    require_geometric_tail(radii)
    radii = np.array(sorted(float(r) for r in radii))
    rows = [circle_turning(graph, r, n_angles=n_angles) for r in radii]
    integrals = np.array([c.turning_integral for c in rows])
    lengths = np.array([c.length for c in rows])
    devs = np.array([c.mean_kappa_deviation for c in rows])
    return GaussBonnetReport(radii=radii, turning_integrals=integrals, lengths=lengths,
                             kappa_deviations=devs, extrapolated=aitken_limit(integrals),
                             deviation_decay_exponent=decay_exponent(radii, devs))


### Closed components


@dataclass(frozen=True)
class ClosedComponent:
    """A closed zero-set component meshed by rays from a center point; the ray
    chart over the sphere of directions makes it a topological sphere."""

    chart: SurfaceChart
    center: np.ndarray
    grad_norms: np.ndarray    # |grad f|_g at the vertices

    @staticmethod
    def _nodes(n_polar: int, n_azimuth: int):
        """Gauss-Legendre polar times uniform azimuthal nodes, polar-major, and weights."""
        xi, wxi = np.polynomial.legendre.leggauss(n_polar)
        thetas = 0.5 * math.pi * (xi + 1.0)
        phis = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
        weights = (0.5 * math.pi * wxi)[:, None] * (2.0 * np.pi / n_azimuth)
        th, ph = np.meshgrid(thetas, phis, indexing="ij")
        return th, ph, np.broadcast_to(weights, th.shape)

    def curvature_integral(self, n_polar: int = 16, n_azimuth: int = 32) -> float:
        """Integral of the intrinsic curvature over the component, one chart call."""
        th, ph, wt = self._nodes(n_polar, n_azimuth)
        sig, dsig, d2sig = self.chart._sigma_taylor(th.ravel(), ph.ravel(), 2)
        area = np.sqrt(np.linalg.det(sig))
        return _running_sum(wt.ravel() * _brioschi(sig, dsig, d2sig) * area)

    def area(self, n_polar: int = 16, n_azimuth: int = 32) -> float:
        th, ph, wt = self._nodes(n_polar, n_azimuth)
        return _running_sum((wt * np.sqrt(np.linalg.det(self.chart.sigma_at(th, ph)))).ravel())


def extract_closed_component(f: PotentialField, metric: MetricField, center,
                             s_bracket, n_theta: int = 16, n_phi: int = 32) -> ClosedComponent:
    """Mesh a closed zero-set component star-shaped around a center.

    Rays are solved like graph lines, all vertices in one chart call, each ray
    starting from the ``(lo, hi)`` pair ``s_bracket`` of radii, with slope
    floor 1e-8; the vertices are the two poles and ``n_theta`` rings of
    ``n_phi`` rays. Each ray meets the component once, so it is a topological
    sphere (Euler characteristic 2). Vanishing |grad f| on the component
    raises CriticalOnZeroSetError.
    """
    if hasattr(center, "as_array"):
        center = center.as_array()
    c = np.asarray(center, dtype=float)
    lo, hi = float(s_bracket[0]), float(s_bracket[1])

    def embed(U, V, S):
        sin_t, cos_t = jets.sin(U), jets.cos(U)
        sin_p, cos_p = jets.sin(V), jets.cos(V)
        return (c[0] + S * sin_t * cos_p,
                c[1] + S * sin_t * sin_p,
                c[2] + S * cos_t)

    chart = SurfaceChart(f, metric, embed, (lo, hi), slope_floor=1e-8,
                         label=f"closed[{f.label}]", param_floor=1e-6 * hi)

    thetas = [math.pi * (i + 1) / (n_theta + 1) for i in range(n_theta)]
    phis = [2.0 * math.pi * j / n_phi for j in range(n_phi)]

    params = [(0.0, 0.0)]
    for th in thetas:
        for ph in phis:
            params.append((th, ph))
    params.append((math.pi, 0.0))

    us, vs = np.array(params).T
    p = chart.lift(us, vs).point

    grad_norms = _norm_g(metric.matrix(p), f.gradient(p))
    low = grad_norms < 1e-8
    if low.any():
        k = int(np.argmax(low))
        raise CriticalOnZeroSetError(
            f"{f.label}: |grad f| = {grad_norms[k]:.3e} at {_first_flagged(p, low)}; "
            "component degenerate")

    return ClosedComponent(chart=chart, center=c, grad_norms=grad_norms)


### Adapted-frame curvature laws on zero sets


@dataclass(frozen=True)
class ZeroSetLawReport:
    grad_norms: np.ndarray
    grad_norm_spread: float
    tangential_ricci_max: np.ndarray   # max_a |Ric(nu, t_a)| per sample
    eigen_residuals: np.ndarray        # |Ric nu - Ric(nu,nu) g nu| per sample
    r11_r22_gaps: np.ndarray
    k_values: np.ndarray
    k_minus_2r11: np.ndarray
    k_plus_r33: np.ndarray


def _adapted_frame(f: PotentialField, res: StaticResidual, lift: Lift):
    """Unit normals, |grad f|_g and g-orthonormal tangent pairs, from the static pass."""
    g, grad = res.curvature.metric_matrix, res.gradient
    gn = _norm_g(g, grad)
    low = gn < 1e-8
    if low.any():
        raise CriticalOnZeroSetError(
            f"{f.label}: |grad f| degenerate at {_first_flagged(res.point, low)}")
    nu = (np.linalg.inv(g) @ grad[..., None])[..., 0] / gn[:, None]
    tu, tv = lift.tu, lift.tv
    t1 = tu / np.sqrt(_quad(tu, g, tu))[:, None]
    t2 = tv - _quad(tv, g, t1)[:, None] * t1
    t2 = t2 / np.sqrt(_quad(t2, g, t2))[:, None]
    return g, nu, gn, t1, t2


def zero_set_laws(f: PotentialField, metric: MetricField, chart: SurfaceChart,
                  samples, *, static_tol: float = 1e-6) -> ZeroSetLawReport:
    """Check the adapted-frame curvature relations along a zero set.

    ``samples`` is a sequence of chart coordinates. At each sample the normal
    must be a Ricci eigenvector, the two tangential eigenvalues must coincide,
    and the intrinsic curvature must equal both twice the tangential
    eigenvalue and minus the normal one. The sample set takes one chart call
    for the samples, one static pass and one chart call for the intrinsic
    curvature.
    Failures are reported stage by stage, at the first failing sample: a
    critical zero set before a failed static gate.
    """
    us, vs = np.array(samples, dtype=float).reshape(-1, 2).T
    lift = chart.lift(us, vs)
    res = static_residual(f, metric, lift.point)
    g, nu, gn, t1, t2 = _adapted_frame(f, res, lift)
    ric = _gate(res, f, metric, static_tol).curvature.ricci
    r11 = _quad(t1, ric, t1)
    r22 = _quad(t2, ric, t2)
    r33 = _quad(nu, ric, nu)
    tang = np.maximum(np.abs(_quad(nu, ric, t1)), np.abs(_quad(nu, ric, t2)))
    resid = (ric @ nu[..., None])[..., 0] - r33[:, None] * (g @ nu[..., None])[..., 0]
    ks = gaussian_curvature(chart, us, vs)
    spread = float((gn.max() - gn.min()) / max(abs(gn.mean()), 1e-300))
    return ZeroSetLawReport(grad_norms=gn, grad_norm_spread=spread,
                            tangential_ricci_max=tang,
                            eigen_residuals=np.sqrt(_dot(resid, resid)),
                            r11_r22_gaps=np.abs(r11 - r22), k_values=ks,
                            k_minus_2r11=np.abs(ks - 2.0 * r11), k_plus_r33=np.abs(ks + r33))
