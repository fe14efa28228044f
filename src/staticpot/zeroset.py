"""Zero sets of potentials: extraction, induced metric and intrinsic curvature.

A zero set is located as a certified root along a one-parameter line family: a
vertical line over a base plane for asymptotic graphs, a ray from a center for
closed components. The same chart object then provides tangents and the induced
two-metric by implicit differentiation in jet arithmetic, which is exact; only
the intrinsic curvature quantities use finite-difference stencils on top of the
exact surface evaluations.

The chart is batched: it takes arrays of line coordinates and solves all their
lines in one array pass, with Brent's method run lane by lane (``brentq``). So
each stencil set (a circle, a grid, a sample set with its stencils) is one
chart call, and a failing batch raises the error of its first failing line.
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
from .quadrature import aitken_limit


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


def _on_lanes(x, n: int) -> np.ndarray:
    """A jet slot or value over n lanes; constants are broadcast."""
    return np.broadcast_to(np.asarray(x, dtype=float), (n,))


def _shaped(x, shape):
    """Jet slots or values over flat lanes, reshaped to ``shape`` (floats for a single line)."""
    if isinstance(x, jets.Jet):
        return jets.Jet(_shaped(x.val, shape), tuple(_shaped(g, shape) for g in x.grad))
    if not isinstance(x, np.ndarray):
        return x
    return x.reshape(shape) if shape else float(x[0])


def _dot(x, y):
    """x @ y over stacked vectors, as the 1-D product computes it."""
    return (x[..., None, :] @ y[..., :, None])[..., 0, 0]


def _quad(x, a, y):
    """x @ a @ y over stacked vectors and matrices, as the 1-D products compute it."""
    return _dot((x[..., None, :] @ a)[..., 0, :], y)


@dataclass(frozen=True)
class _Lift:
    """Flat lanes of lines lifted to the surface by one solve."""

    s: np.ndarray        # roots of the lines
    jet: object          # root as a depth-1 jet in (u, v)
    point: Point3        # surface points
    tu: np.ndarray       # (n, 3) chart tangents d/du
    tv: np.ndarray       # (n, 3) chart tangents d/dv


class SurfaceChart:
    """Implicit surface chart: root of a potential along a line family, batched.

    ``embed(u, v, s)`` maps chart coordinates and the line parameter to the
    ambient chart and must be generic over the scalar type: arrays of lines and
    of line parameters, and jets with array slots. ``bracket(u, v)`` gives one
    line's starting bracket. Every method takes (u, v) as scalars or arrays and
    solves all lines in one array pass:

    - a sign scan over 25 samples per line, one ``(lines, 25)`` evaluation;
      a bracket without a sign change is widened about its midpoint, up to
      seven scans, never below ``param_floor``;
    - Brent's method lane by lane (``brentq``), three Newton polish steps,
      certification to ``root_tol`` and the slope floor: the directional slope
      along the line must stay above ``slope_floor``.

    A batch with a failing line raises the error of its first failing line,
    naming that line's (u, v). Each of these steps evaluates f or df/ds in one
    array pass with floating-point flags ignored; a line that meets a nan or
    inf fails with DomainError at its first such sample, and no later step
    reads it.
    """

    def __init__(self, f: PotentialField, metric: MetricField, embed: Callable,
                 bracket: Callable, slope_floor: float = 0.5, root_tol: float = 1e-10,
                 label: str = "surface", param_floor: float | None = None):
        self.f = f
        self.metric = metric
        self.embed = embed
        self.bracket = bracket
        self.slope_floor = slope_floor
        self.root_tol = root_tol
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
        ends = np.array([self.bracket(a, b) for a, b in zip(u.tolist(), v.tolist())],
                        dtype=float).reshape(n, 2)
        lo, hi = ends[:, 0].copy(), ends[:, 1].copy()
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
        for k in np.flatnonzero(fv > self.root_tol).tolist():
            lane = int(check[k])
            errors.setdefault(lane, NoRootError(
                f"{self.label}: root certification failed, |f| = {fv[k]:.3e} "
                f"> {self.root_tol:g} at (u, v) = ({u[lane]:g}, {v[lane]:g})"))
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

    def _root_jet(self, u, v, s0, slope, depth: int):
        """Root as a jet in (u, v), exact to the seeded depth.

        Simplified Newton in jet arithmetic with the frozen float slope; each
        sweep gains one Taylor order, so depth+1 sweeps land exactly.
        """
        U, V = u, v
        for _ in range(depth):
            U = jets.Jet(U, (1.0, 0.0, 0.0))
            V = jets.Jet(V, (0.0, 1.0, 0.0))
        S = s0
        for _ in range(depth + 1):
            X = self.embed(U, V, S)
            S = S - self.f.expr(X[0], X[1], X[2]) / slope
        return S

    def _points(self, u, v, s) -> Point3:
        return Point3(*(_on_lanes(x, u.size) for x in self.embed(u, v, s)))

    def _lift(self, u, v) -> _Lift:
        """Roots, root jets, surface points and chart tangents of flat lanes: one solve."""
        s, slope = self._solve(u, v)
        S = self._root_jet(u, v, s, slope, 1)
        X = self.embed(jets.Jet(u, (1.0, 0.0, 0.0)), jets.Jet(v, (0.0, 1.0, 0.0)), S)
        tu = np.stack([_on_lanes(jets.peel_grad(x, 0), u.size) for x in X], axis=-1)
        tv = np.stack([_on_lanes(jets.peel_grad(x, 1), u.size) for x in X], axis=-1)
        return _Lift(s=s, jet=S, point=self._points(u, v, s), tu=tu, tv=tv)

    def _sigma(self, lift: _Lift) -> np.ndarray:
        """(n, 2, 2) induced two-metric of lifted lanes, from one metric evaluation."""
        g = self.metric.matrix(lift.point)
        e, fm = _quad(lift.tu, g, lift.tu), _quad(lift.tu, g, lift.tv)
        return np.stack([e, fm, fm, _quad(lift.tv, g, lift.tv)], axis=-1).reshape(-1, 2, 2)

    # -- public evaluations: (u, v) scalars or arrays of lines

    def roots(self, u, v) -> np.ndarray:
        """Certified roots of the lines (u, v), shaped like their broadcast."""
        shape, u, v = _lines(u, v)
        return self._solve(u, v)[0].reshape(shape)

    def root(self, u: float, v: float) -> float:
        """Certified root of one line: a batch of one."""
        return float(self.roots(u, v))

    def root_jet(self, u, v, depth: int):
        """Root as a jet in (u, v), exact to the seeded depth; slots shaped like (u, v)."""
        shape, u, v = _lines(u, v)
        s, slope = self._solve(u, v)
        return _shaped(self._root_jet(u, v, s, slope, depth), shape)

    def point_at(self, u, v) -> Point3:
        """Surface points; float coordinates for a single line."""
        shape, u, v = _lines(u, v)
        p = self._points(u, v, self._solve(u, v)[0])
        return Point3(*(_shaped(x, shape) for x in p.coords()))

    def height_slopes(self, u, v) -> np.ndarray:
        """(ds/du, ds/dv) of the roots, ``(..., 2)``."""
        shape, u, v = _lines(u, v)
        s, slope = self._solve(u, v)
        S = self._root_jet(u, v, s, slope, 1)
        return np.stack([_on_lanes(jets.peel_grad(S, i), u.size) for i in (0, 1)],
                        axis=-1).reshape(shape + (2,))

    def tangents(self, u, v):
        """Chart tangents (d/du, d/dv) of the surface, each ``(..., 3)``."""
        shape, u, v = _lines(u, v)
        lift = self._lift(u, v)
        return lift.tu.reshape(shape + (3,)), lift.tv.reshape(shape + (3,))

    def sigma_at(self, u, v) -> np.ndarray:
        """Induced two-metric in the chart coordinates, ``(..., 2, 2)``."""
        shape, u, v = _lines(u, v)
        return self._sigma(self._lift(u, v)).reshape(shape + (2, 2))


### Fourth-order stencils on chart evaluations

_C1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_C2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0
_STEPS = np.arange(-2.0, 3.0)


def _stencil(c: np.ndarray, line: np.ndarray) -> np.ndarray:
    """Weights c contracted with the five samples of ``line[..., 5, 2, 2]``."""
    return (c @ line.reshape(line.shape[:-2] + (4,))).reshape(line.shape[:-3] + (2, 2))


def _grid_lines(u, v, delta):
    """Chart coordinates of the 5x5 stencil grids around (u, v), ``(..., 5, 5)`` each."""
    d = np.asarray(delta, dtype=float)[..., None, None]
    return np.broadcast_arrays(np.asarray(u, dtype=float)[..., None, None] + _STEPS[:, None] * d,
                               np.asarray(v, dtype=float)[..., None, None] + _STEPS[None, :] * d)


def _sigma_grid(chart: SurfaceChart, u, v, delta) -> np.ndarray:
    """sigma on the 5x5 stencil grids around (u, v): ``(..., 5, 5, 2, 2)``, one chart call."""
    return chart.sigma_at(*_grid_lines(u, v, delta))


def _first_derivatives(S: np.ndarray, delta):
    """sigma and its first chart derivatives from the cross of a 5x5 grid."""
    d = np.asarray(delta, dtype=float)[..., None, None]
    return (S[..., 2, 2, :, :], _stencil(_C1, S[..., :, 2, :, :]) / d,
            _stencil(_C1, S[..., 2, :, :, :]) / d)


def _sigma_first(chart: SurfaceChart, u, v, delta):
    """sigma and its first chart derivatives from a 9-point cross, one chart call."""
    u, v, delta = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in (u, v, delta)))
    steps = delta[..., None] * _STEPS
    on_u, on_v = u[..., None] + steps, v[..., None] + steps
    cross = chart.sigma_at(  # the u line, then the v line without its center
        np.concatenate([on_u, np.repeat(u[..., None], 4, axis=-1)], axis=-1),
        np.concatenate([np.repeat(v[..., None], 5, axis=-1), on_v[..., [0, 1, 3, 4]]], axis=-1))
    line_u = cross[..., :5, :, :]
    line_v = cross[..., [5, 6, 2, 7, 8], :, :]
    d = delta[..., None, None]
    return line_u[..., 2, :, :], _stencil(_C1, line_u) / d, _stencil(_C1, line_v) / d


def _surface_christoffel(sig: np.ndarray, d_u: np.ndarray, d_v: np.ndarray) -> np.ndarray:
    """gam[..., k, a, b] = Gamma^k_{ab} of the two-metric sig from its chart derivatives."""
    return 0.5 * np.einsum("...kl,...alb->...kab", np.linalg.inv(sig),
                           _first_kind(np.stack((d_u, d_v), axis=-3)))


def _brioschi(S: np.ndarray, delta) -> np.ndarray:
    """Intrinsic curvature from the sigma grids ``S[..., 5, 5, 2, 2]`` (Brioschi formula)."""
    d = np.asarray(delta, dtype=float)[..., None, None]
    sig, d_u, d_v = _first_derivatives(S, delta)
    d_uu = _stencil(_C2, S[..., :, 2, :, :]) / (d * d)
    d_vv = _stencil(_C2, S[..., 2, :, :, :]) / (d * d)
    d_uv = np.einsum("i,j,...ijab->...ab", _C1, _C1, S) / (d * d)

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


def gaussian_curvature(chart: SurfaceChart, u, v, delta):
    """Intrinsic curvature of the induced two-metric via the Brioschi formula.

    (u, v) and the stencil steps ``delta`` may be arrays: all their stencils
    take one chart call. A float for a single point.
    """
    K = _brioschi(_sigma_grid(chart, u, v, delta), delta)
    return K if np.ndim(K) else float(K)


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

    def stencil_delta(self, u: float, v: float, target: float | None = None) -> float:
        rho = math.hypot(u, v)
        cap = 0.02 * max(1.0, rho) if target is None else target
        delta = min(cap, (self.outer - rho) / 3.0, (rho - self.inner) / 3.0)
        if delta <= 0:
            raise ResolutionError(
                f"stencil does not fit at rho = {rho:g} inside ({self.inner:g}, {self.outer:g})")
        return delta


@dataclass(frozen=True)
class RectRegion:
    """Axis-aligned base rectangle for graph patches."""

    u_min: float
    u_max: float
    v_min: float
    v_max: float

    def grid(self, n_u: int, n_v: int):
        us = np.linspace(self.u_min, self.u_max, n_u + 2)[1:-1]
        vs = np.linspace(self.v_min, self.v_max, n_v + 2)[1:-1]
        return [(float(u), float(v)) for u in us for v in vs]

    def stencil_delta(self, u: float, v: float, target: float | None = None) -> float:
        cap = 0.02 * max(1.0, math.hypot(u, v)) if target is None else target
        delta = min(cap, (self.u_max - u) / 3.0, (u - self.u_min) / 3.0,
                    (self.v_max - v) / 3.0, (v - self.v_min) / 3.0)
        if delta <= 0:
            raise ResolutionError(f"stencil does not fit at (u, v) = ({u:g}, {v:g})")
        return delta


@dataclass(frozen=True)
class SurfaceGraph:
    """Zero set written as x1 = q(u, v) over the (x2, x3) base plane."""

    chart: SurfaceChart
    region: object
    nodes: np.ndarray        # (N, 2) base-plane sample points
    heights: np.ndarray      # (N,) q values
    slopes: np.ndarray       # (N, 2) dq
    sigmas: np.ndarray       # (N, 2, 2) induced metric samples
    sigma_deviation: np.ndarray  # (N,) max |sigma - identity|


def _default_graph_bracket(u: float, v: float):
    rho = math.hypot(u, v)
    b = max(8.0, 6.0 * math.log(2.0 + rho))
    return (-b, b)


def extract_zero_graph(f: PotentialField, metric: MetricField, region,
                       n_u: int = 10, n_v: int = 24, bracket: Callable | None = None,
                       slope_floor: float = 0.5, root_tol: float = 1e-10) -> SurfaceGraph:
    """Extract the zero set of f as a graph along the x1 direction.

    Every grid node gets a certified root, all from one chart call; the
    graph-direction derivative must stay above ``slope_floor``
    (MonotonicityError otherwise), and missing or multiple crossings raise
    NoRootError / MultiRootError.
    """

    def embed(U, V, S):
        return (S, U, V)

    chart = SurfaceChart(f, metric, embed,
                         bracket if bracket is not None else _default_graph_bracket,
                         slope_floor=slope_floor, root_tol=root_tol,
                         label=f"graph[{f.label}]")
    nodes = np.array(region.grid(n_u, n_v))
    lift = chart._lift(nodes[:, 0], nodes[:, 1])
    slopes = np.stack([_on_lanes(jets.peel_grad(lift.jet, i), len(nodes)) for i in (0, 1)],
                      axis=-1)
    sigmas = chart._sigma(lift)
    return SurfaceGraph(chart=chart, region=region, nodes=nodes, heights=lift.s,
                        slopes=slopes, sigmas=sigmas,
                        sigma_deviation=np.abs(sigmas - np.eye(2)).max(axis=(1, 2)))


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

    The stencils of all angles take one chart call.
    """
    region = graph.region
    if not isinstance(region, AnnulusRegion):
        raise ResolutionError("turning integrals need an annulus graph")
    d = region.stencil_delta(radius, 0.0)
    # the stencil reaches 2*delta in each chart direction from circle points
    if radius + 2.0 * d * 1.5 >= region.outer or radius - 2.0 * d * 1.5 <= region.inner:
        raise ResolutionError(
            f"circle radius {radius:g} too close to the annulus edge for stencil {d:g}")

    w = 2.0 * np.pi / n_angles
    lam = w * np.arange(n_angles)
    cl, sl = np.cos(lam), np.sin(lam)
    sig, d_u, d_v = _sigma_first(graph.chart, radius * cl, radius * sl, d)
    gam = _surface_christoffel(sig, d_u, d_v)
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
    """Turning integrals over growing circles and their extrapolated limit."""
    radii = np.array(sorted(float(r) for r in radii))
    rows = [circle_turning(graph, r, n_angles=n_angles) for r in radii]
    integrals = np.array([c.turning_integral for c in rows])
    lengths = np.array([c.length for c in rows])
    devs = np.array([c.mean_kappa_deviation for c in rows])
    extrap = aitken_limit(integrals) if len(integrals) >= 3 else float(integrals[-1])
    if np.all(devs > 0):
        exponent = float(np.polyfit(np.log(radii), np.log(devs), 1)[0])
    else:
        exponent = -math.inf
    return GaussBonnetReport(radii=radii, turning_integrals=integrals, lengths=lengths,
                             kappa_deviations=devs, extrapolated=extrap,
                             deviation_decay_exponent=exponent)


### Closed components


@dataclass(frozen=True)
class ClosedComponent:
    """A closed zero-set component meshed by rays from a center point."""

    chart: SurfaceChart
    center: np.ndarray
    vertex_params: list       # (theta, phi) per vertex, poles included
    vertices: list            # Point3 per vertex
    triangles: list           # index triples
    euler_characteristic: int
    grad_norms: np.ndarray    # |grad f|_g at the vertices

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

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
        d = np.minimum(np.minimum(0.02, th / 3.0), (math.pi - th) / 3.0)
        S = _sigma_grid(self.chart, th, ph, d)
        area = np.sqrt(np.linalg.det(S[..., 2, 2, :, :]))
        return _running_sum((wt * _brioschi(S, d) * area).ravel())

    def area(self, n_polar: int = 16, n_azimuth: int = 32) -> float:
        th, ph, wt = self._nodes(n_polar, n_azimuth)
        return _running_sum((wt * np.sqrt(np.linalg.det(self.chart.sigma_at(th, ph)))).ravel())


def extract_closed_component(f: PotentialField, metric: MetricField, center,
                             s_bracket, n_theta: int = 16, n_phi: int = 32,
                             root_tol: float = 1e-10) -> ClosedComponent:
    """Mesh a closed zero-set component star-shaped around a center.

    Rays are solved like graph lines, all vertices in one chart call; the Euler
    characteristic comes from the actual vertex/edge/face counts of the
    triangulation. Vanishing |grad f| on the component raises
    CriticalOnZeroSetError.
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

    chart = SurfaceChart(f, metric, embed, lambda u, v: (lo, hi),
                         slope_floor=1e-8, root_tol=root_tol,
                         label=f"closed[{f.label}]", param_floor=1e-6 * hi)

    thetas = [math.pi * (i + 1) / (n_theta + 1) for i in range(n_theta)]
    phis = [2.0 * math.pi * j / n_phi for j in range(n_phi)]

    params = [(0.0, 0.0)]
    for th in thetas:
        for ph in phis:
            params.append((th, ph))
    params.append((math.pi, 0.0))

    us, vs = np.array(params).T
    p = chart.point_at(us, vs)
    vertices = [Point3(*xyz) for xyz in zip(*(x.tolist() for x in p.coords()))]

    def ring_index(i: int, j: int) -> int:
        return 1 + i * n_phi + (j % n_phi)

    top, bottom = 0, len(params) - 1
    triangles = []
    for j in range(n_phi):
        triangles.append((top, ring_index(0, j), ring_index(0, j + 1)))
    for i in range(n_theta - 1):
        for j in range(n_phi):
            a, b = ring_index(i, j), ring_index(i, j + 1)
            cc, dd = ring_index(i + 1, j), ring_index(i + 1, j + 1)
            triangles.append((a, b, cc))
            triangles.append((b, dd, cc))
    for j in range(n_phi):
        triangles.append((bottom, ring_index(n_theta - 1, j + 1), ring_index(n_theta - 1, j)))

    edges = set()
    for (a, b, cc) in triangles:
        edges.add(tuple(sorted((a, b))))
        edges.add(tuple(sorted((b, cc))))
        edges.add(tuple(sorted((a, cc))))
    euler = len(vertices) - len(edges) + len(triangles)

    grad_norms = _norm_g(metric.matrix(p), f.gradient(p))
    low = grad_norms < 1e-8
    if low.any():
        k = int(np.argmax(low))
        raise CriticalOnZeroSetError(
            f"{f.label}: |grad f| = {grad_norms[k]:.3e} at {vertices[k].coords()}; "
            "component degenerate")

    return ClosedComponent(chart=chart, center=c, vertex_params=params,
                           vertices=vertices, triangles=triangles,
                           euler_characteristic=euler, grad_norms=grad_norms)


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


def _adapted_frame(f: PotentialField, res: StaticResidual, lift: _Lift):
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
                  samples, deltas, static_tol: float = 1e-6) -> ZeroSetLawReport:
    """Check the adapted-frame curvature relations along a zero set.

    ``samples`` is a sequence of chart coordinates, ``deltas`` the matching
    stencil steps for the intrinsic curvature. At each sample the normal must
    be a Ricci eigenvector, the two tangential eigenvalues must coincide, and
    the intrinsic curvature must equal both twice the tangential eigenvalue
    and minus the normal one. The sample set takes one chart call for the
    samples, one static pass and one chart call for the curvature stencils.
    Failures are reported stage by stage, at the first failing sample: a
    critical zero set before a failed static gate.
    """
    us, vs = np.array(samples, dtype=float).reshape(-1, 2).T
    ds = np.asarray(deltas, dtype=float)
    lift = chart._lift(us, vs)
    res = static_residual(f, metric, lift.point)
    g, nu, gn, t1, t2 = _adapted_frame(f, res, lift)
    ric = _gate(res, f, metric, static_tol).curvature.ricci
    r11 = _quad(t1, ric, t1)
    r22 = _quad(t2, ric, t2)
    r33 = _quad(nu, ric, nu)
    tang = np.maximum(np.abs(_quad(nu, ric, t1)), np.abs(_quad(nu, ric, t2)))
    resid = (ric @ nu[..., None])[..., 0] - r33[:, None] * (g @ nu[..., None])[..., 0]
    ks = gaussian_curvature(chart, us, vs, ds)
    spread = float((gn.max() - gn.min()) / max(abs(gn.mean()), 1e-300))
    return ZeroSetLawReport(grad_norms=gn, grad_norm_spread=spread,
                            tangential_ricci_max=tang,
                            eigen_residuals=np.sqrt(_dot(resid, resid)),
                            r11_r22_gaps=np.abs(r11 - r22), k_values=ks,
                            k_minus_2r11=np.abs(ks - 2.0 * r11), k_plus_r33=np.abs(ks + r33))


@dataclass(frozen=True)
class SecondPotentialReport:
    values: np.ndarray            # K * f^3 samples
    relative_spread: float
    hessian_residual_max: float
    hessian_scale: float


def second_potential_laws(f_second: PotentialField, chart: SurfaceChart,
                          samples, deltas) -> SecondPotentialReport:
    """Constancy of K f^3 and the intrinsic Hessian law for a second potential.

    ``f_second`` is a static potential whose zero set is elsewhere; restricted
    to this chart's surface it must satisfy Hess_sigma f = (K f / 2) sigma,
    and K f^3 must be constant along each component. The stencils of all
    samples take one chart call, which gives f, sigma and the intrinsic
    curvature.
    """
    us, vs = np.array(samples, dtype=float).reshape(-1, 2).T
    d = np.asarray(deltas, dtype=float)
    grid_u, grid_v = _grid_lines(us, vs, d)
    lift = chart._lift(grid_u.ravel(), grid_v.ravel())
    S = chart._sigma(lift).reshape(grid_u.shape + (2, 2))
    grid = f_second.value(lift.point).reshape(grid_u.shape)

    dd = d * d
    f_c = grid[:, 2, 2]
    f_u = _dot(_C1, grid[:, :, 2]) / d
    f_v = _dot(_C1, grid[:, 2, :]) / d
    f_uu = _dot(_C2, grid[:, :, 2]) / dd
    f_vv = _dot(_C2, grid[:, 2, :]) / dd
    f_uv = np.einsum("i,j,...ij->...", _C1, _C1, grid) / dd

    sig, d_u, d_v = _first_derivatives(S, d)
    gam = _surface_christoffel(sig, d_u, d_v)
    hess = np.stack([f_uu, f_uv, f_uv, f_vv], axis=-1).reshape(-1, 2, 2)
    hess -= gam[:, 0] * f_u[:, None, None] + gam[:, 1] * f_v[:, None, None]

    K = _brioschi(S, d)
    law = (0.5 * K * f_c)[:, None, None] * sig
    res_max = float(np.abs(hess - law).max(axis=(1, 2)).max(initial=0.0))
    scale = float((np.abs(law).max(axis=(1, 2)) + np.abs(f_uu) + np.abs(f_vv)).max(initial=0.0))
    vals = K * f_c ** 3
    spread = float((vals.max() - vals.min()) / max(abs(vals.mean()), 1e-300))
    return SecondPotentialReport(values=vals, relative_spread=spread,
                                 hessian_residual_max=res_max, hessian_scale=scale)
