"""Zero sets of potentials: extraction, induced metric and intrinsic curvature.

A zero set is located as a certified root along a one-parameter line family: a
vertical line over a base plane for asymptotic graphs, a ray from a center for
closed components. The same chart object then provides tangents and the induced
two-metric by implicit differentiation in jet arithmetic, which is exact; only
the intrinsic curvature quantities use finite-difference stencils on top of the
exact surface evaluations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from . import jets
from .errors import (CriticalOnZeroSetError, DomainError, MonotonicityError,
                     MultiRootError, NoRootError, ResolutionError)
from .geometry import MetricField, Point3, _first_kind
from .potentials import PotentialField, StaticResidual, _gate, _norm_g, static_residual
from .quadrature import aitken_limit


class SurfaceChart:
    """Implicit surface chart: root of a potential along a line family.

    ``embed(u, v, s)`` maps chart coordinates and the line parameter to the
    ambient chart and must be generic over the scalar type, an array of line
    parameters included. Roots are bracketed by a sign scan over 25 samples
    (one array evaluation), solved by Brent's method, Newton-polished and
    certified to ``root_tol``; the directional slope along the line must stay
    above ``slope_floor``.
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
        self._roots = {}

    def _value(self, u: float, v: float, s: float) -> float:
        X = self.embed(u, v, s)
        return float(jets.value(self.f.expr(X[0], X[1], X[2])))

    def _scan(self, u: float, v: float, ss: np.ndarray) -> list:
        """f at the samples ``ss`` of one line, from one array evaluation.

        On arrays numpy turns what raises on a float (log or sqrt outside its
        domain, division by zero) into nan or inf. So a floating-point flag
        sends the scan to pointwise evaluation in sample order, which raises as
        the pointwise scan does at its first such sample. A sample that is
        still nan or inf (numpy scalar division or power on the line
        parameter) has no sign, and the scan raises DomainError.
        """
        X = self.embed(u, v, ss)
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                vals = np.broadcast_to(jets.value(self.f.expr(X[0], X[1], X[2])), ss.shape)
        except FloatingPointError:
            vals = np.array([self._value(u, v, s) for s in ss])
        bad = ~np.isfinite(vals)
        if bad.any():
            raise DomainError(
                f"{self.label}: f is not finite at s = {ss[np.argmax(bad)]:g} "
                f"on the line (u, v) = ({u:g}, {v:g})")
        return vals.tolist()

    def _slope(self, u: float, v: float, s: float) -> float:
        S = jets.Jet(s, (1.0, 0.0, 0.0))
        X = self.embed(u, v, S)
        return float(jets.peel_grad(self.f.expr(X[0], X[1], X[2]), 0))

    def root(self, u: float, v: float) -> float:
        key = (u, v)
        cached = self._roots.get(key)
        if cached is not None:
            return cached

        lo, hi = self.bracket(u, v)
        pair = None
        for _ in range(7):
            ss = np.linspace(lo, hi, 25)
            vals = self._scan(u, v, ss)
            # a sample landing exactly on the root must count once, not as
            # two sign flips around it
            brackets = []
            last = None
            for k, val in enumerate(vals):
                if val == 0.0:
                    brackets.append((float(ss[k]), float(ss[k])))
                    last = None
                    continue
                sgn = 1 if val > 0.0 else -1
                if last is not None and sgn != last[1]:
                    brackets.append((float(ss[last[0]]), float(ss[k])))
                last = (k, sgn)
            if len(brackets) > 1:
                raise MultiRootError(
                    f"{self.label}: {len(brackets)} sign changes on [{lo:g}, {hi:g}] "
                    f"at (u, v) = ({u:g}, {v:g})")
            if brackets:
                pair = brackets[0]
                break
            mid, half = 0.5 * (lo + hi), hi - lo
            lo, hi = mid - half, mid + half
            if self.param_floor is not None:
                lo = max(lo, self.param_floor)
        if pair is None:
            raise NoRootError(f"{self.label}: no sign change found near (u, v) = ({u:g}, {v:g})")

        if self._value(u, v, pair[0]) == 0.0:
            s = pair[0]
        elif self._value(u, v, pair[1]) == 0.0:
            s = pair[1]
        else:
            s = brentq(lambda t: self._value(u, v, t), pair[0], pair[1],
                       xtol=1e-13, rtol=8.9e-16, maxiter=200)
        for _ in range(3):
            fv = self._value(u, v, s)
            sl = self._slope(u, v, s)
            if fv == 0.0 or abs(sl) < 1e-14:
                break
            s -= fv / sl

        fv = self._value(u, v, s)
        if abs(fv) > self.root_tol:
            raise NoRootError(
                f"{self.label}: root certification failed, |f| = {abs(fv):.3e} "
                f"> {self.root_tol:g} at (u, v) = ({u:g}, {v:g})")
        sl = self._slope(u, v, s)
        if sl < self.slope_floor:
            raise MonotonicityError(
                f"{self.label}: line slope {sl:.3e} below floor {self.slope_floor:g} "
                f"at (u, v) = ({u:g}, {v:g})")
        self._roots[key] = float(s)
        return float(s)

    def root_jet(self, u: float, v: float, depth: int):
        """Root as a jet in (u, v), exact to the seeded depth.

        Simplified Newton in jet arithmetic with the frozen float slope; each
        sweep gains one Taylor order, so depth+1 sweeps land exactly.
        """
        s0 = self.root(u, v)
        d = self._slope(u, v, s0)
        U, V = u, v
        for _ in range(depth):
            U = jets.Jet(U, (1.0, 0.0, 0.0))
            V = jets.Jet(V, (0.0, 1.0, 0.0))
        S = s0
        for _ in range(depth + 1):
            X = self.embed(U, V, S)
            F = self.f.expr(X[0], X[1], X[2])
            S = S - F / d
        return S

    def point_at(self, u: float, v: float) -> Point3:
        s = self.root(u, v)
        X = self.embed(u, v, s)
        return Point3(float(X[0]), float(X[1]), float(X[2]))

    def height_slopes(self, u: float, v: float) -> np.ndarray:
        """(ds/du, ds/dv) of the root."""
        S = self.root_jet(u, v, 1)
        return np.array([float(jets.peel_grad(S, 0)), float(jets.peel_grad(S, 1))])

    def tangents(self, u: float, v: float):
        S = self.root_jet(u, v, 1)
        U = jets.Jet(u, (1.0, 0.0, 0.0))
        V = jets.Jet(v, (0.0, 1.0, 0.0))
        X = self.embed(U, V, S)
        Tu = np.array([float(jets.peel_grad(X[i], 0)) for i in range(3)])
        Tv = np.array([float(jets.peel_grad(X[i], 1)) for i in range(3)])
        return Tu, Tv

    def sigma_at(self, u: float, v: float) -> np.ndarray:
        """Induced two-metric in the chart coordinates."""
        Tu, Tv = self.tangents(u, v)
        g = self.metric.matrix(self.point_at(u, v))
        e = float(Tu @ g @ Tu)
        fm = float(Tu @ g @ Tv)
        gg = float(Tv @ g @ Tv)
        return np.array([[e, fm], [fm, gg]])


### Fourth-order stencils on chart evaluations

_C1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_C2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def _sigma_grid(chart: SurfaceChart, u: float, v: float, delta: float) -> np.ndarray:
    return np.array([[chart.sigma_at(u + i * delta, v + j * delta)
                      for j in range(-2, 3)] for i in range(-2, 3)])


def _sigma_first(chart: SurfaceChart, u: float, v: float, delta: float):
    """sigma and its first chart derivatives from a 9-point cross."""
    line_u = np.array([chart.sigma_at(u + i * delta, v) for i in range(-2, 3)])
    line_v = np.array([chart.sigma_at(u, v + j * delta) for j in range(-2, 3)])
    sig = line_u[2]
    d_u = np.tensordot(_C1, line_u, axes=(0, 0)) / delta
    d_v = np.tensordot(_C1, line_v, axes=(0, 0)) / delta
    return sig, d_u, d_v


def _surface_christoffel(sig: np.ndarray, d_u: np.ndarray, d_v: np.ndarray) -> np.ndarray:
    """gam[k, a, b] = Gamma^k_{ab} of the two-metric sig from its chart derivatives."""
    return 0.5 * np.einsum("kl,alb->kab", np.linalg.inv(sig), _first_kind(np.stack((d_u, d_v))))


def gaussian_curvature(chart: SurfaceChart, u: float, v: float, delta: float) -> float:
    """Intrinsic curvature of the induced two-metric via the Brioschi formula."""
    S = _sigma_grid(chart, u, v, delta)
    sig = S[2, 2]
    d_u = np.tensordot(_C1, S[:, 2], axes=(0, 0)) / delta
    d_v = np.tensordot(_C1, S[2, :], axes=(0, 0)) / delta
    d_uu = np.tensordot(_C2, S[:, 2], axes=(0, 0)) / (delta * delta)
    d_vv = np.tensordot(_C2, S[2, :], axes=(0, 0)) / (delta * delta)
    d_uv = np.einsum("i,j,ijab->ab", _C1, _C1, S) / (delta * delta)

    E, F, G = sig[0, 0], sig[0, 1], sig[1, 1]
    M1 = np.array([
        [-0.5 * d_vv[0, 0] + d_uv[0, 1] - 0.5 * d_uu[1, 1], 0.5 * d_u[0, 0], d_u[0, 1] - 0.5 * d_v[0, 0]],
        [d_v[0, 1] - 0.5 * d_u[1, 1], E, F],
        [0.5 * d_v[1, 1], F, G],
    ])
    M2 = np.array([
        [0.0, 0.5 * d_v[0, 0], 0.5 * d_u[1, 1]],
        [0.5 * d_v[0, 0], E, F],
        [0.5 * d_u[1, 1], F, G],
    ])
    den = (E * G - F * F) ** 2
    return float((np.linalg.det(M1) - np.linalg.det(M2)) / den)


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

    def sigma_at(self, u: float, v: float) -> np.ndarray:
        return self.chart.sigma_at(u, v)

    def point_at(self, u: float, v: float) -> Point3:
        return self.chart.point_at(u, v)


def _default_graph_bracket(u: float, v: float):
    rho = math.hypot(u, v)
    b = max(8.0, 6.0 * math.log(2.0 + rho))
    return (-b, b)


def extract_zero_graph(f: PotentialField, metric: MetricField, region,
                       n_u: int = 10, n_v: int = 24, bracket: Callable | None = None,
                       slope_floor: float = 0.5, root_tol: float = 1e-10) -> SurfaceGraph:
    """Extract the zero set of f as a graph along the x1 direction.

    Every grid node gets a certified root; the graph-direction derivative must
    stay above ``slope_floor`` (MonotonicityError otherwise), and missing or
    multiple crossings raise NoRootError / MultiRootError.
    """

    def embed(U, V, S):
        return (S, U, V)

    chart = SurfaceChart(f, metric, embed,
                         bracket if bracket is not None else _default_graph_bracket,
                         slope_floor=slope_floor, root_tol=root_tol,
                         label=f"graph[{f.label}]")
    nodes = region.grid(n_u, n_v)
    heights, slopes, sigmas, devs = [], [], [], []
    eye = np.eye(2)
    for (u, v) in nodes:
        heights.append(chart.root(u, v))
        slopes.append(chart.height_slopes(u, v))
        sig = chart.sigma_at(u, v)
        sigmas.append(sig)
        devs.append(float(np.abs(sig - eye).max()))
    return SurfaceGraph(chart=chart, region=region, nodes=np.array(nodes),
                        heights=np.array(heights), slopes=np.array(slopes),
                        sigmas=np.array(sigmas), sigma_deviation=np.array(devs))


### Boundary circles: geodesic curvature and the turning-number limit


@dataclass(frozen=True)
class CircleTurning:
    radius: float
    turning_integral: float
    length: float
    mean_kappa_deviation: float   # mean of |kappa * radius - 1|


def circle_turning(graph: SurfaceGraph, radius: float, n_angles: int = 256,
                   delta: float | None = None) -> CircleTurning:
    """Total geodesic curvature of the coordinate circle |(u, v)| = radius."""
    region = graph.region
    if not isinstance(region, AnnulusRegion):
        raise ResolutionError("turning integrals need an annulus graph")
    d = region.stencil_delta(radius, 0.0, target=delta)
    # the stencil reaches 2*delta in each chart direction from circle points
    if radius + 2.0 * d * 1.5 >= region.outer or radius - 2.0 * d * 1.5 <= region.inner:
        raise ResolutionError(
            f"circle radius {radius:g} too close to the annulus edge for stencil {d:g}")

    w = 2.0 * np.pi / n_angles
    total = 0.0
    length = 0.0
    dev = 0.0
    for k in range(n_angles):
        lam = w * k
        cl, sl = math.cos(lam), math.sin(lam)
        u, v = radius * cl, radius * sl
        sig, d_u, d_v = _sigma_first(graph.chart, u, v, d)
        gam = _surface_christoffel(sig, d_u, d_v)
        cp = np.array([-radius * sl, radius * cl])
        cpp = np.array([-radius * cl, -radius * sl])
        acc = cpp + np.einsum("kab,a,b->k", gam, cp, cp)
        speed2 = float(cp @ sig @ cp)
        num = cp[0] * acc[1] - cp[1] * acc[0]
        kappa = math.sqrt(float(np.linalg.det(sig))) * num / speed2 ** 1.5
        total += kappa * math.sqrt(speed2) * w
        length += math.sqrt(speed2) * w
        dev += abs(kappa * radius - 1.0) / n_angles
    return CircleTurning(radius=radius, turning_integral=total, length=length,
                         mean_kappa_deviation=dev)


@dataclass(frozen=True)
class GaussBonnetReport:
    radii: np.ndarray
    turning_integrals: np.ndarray
    lengths: np.ndarray
    kappa_deviations: np.ndarray
    extrapolated: float
    deviation_decay_exponent: float


def gauss_bonnet_limit(graph: SurfaceGraph, radii, n_angles: int = 256,
                       delta: float | None = None) -> GaussBonnetReport:
    """Turning integrals over growing circles and their extrapolated limit."""
    radii = np.array(sorted(float(r) for r in radii))
    rows = [circle_turning(graph, r, n_angles=n_angles, delta=delta) for r in radii]
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

    def curvature_integral(self, n_polar: int = 16, n_azimuth: int = 32) -> float:
        """Integral of the intrinsic curvature over the component."""
        xi, wxi = np.polynomial.legendre.leggauss(n_polar)
        thetas = 0.5 * math.pi * (xi + 1.0)
        wth = 0.5 * math.pi * wxi
        phis = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
        wph = 2.0 * np.pi / n_azimuth
        total = 0.0
        for th, wt in zip(thetas, wth):
            d = min(0.02, th / 3.0, (math.pi - th) / 3.0)
            for ph in phis:
                K = gaussian_curvature(self.chart, float(th), float(ph), d)
                sig = self.chart.sigma_at(float(th), float(ph))
                total += wt * wph * K * math.sqrt(float(np.linalg.det(sig)))
        return total

    def area(self, n_polar: int = 16, n_azimuth: int = 32) -> float:
        xi, wxi = np.polynomial.legendre.leggauss(n_polar)
        thetas = 0.5 * math.pi * (xi + 1.0)
        wth = 0.5 * math.pi * wxi
        phis = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
        wph = 2.0 * np.pi / n_azimuth
        total = 0.0
        for th, wt in zip(thetas, wth):
            for ph in phis:
                sig = self.chart.sigma_at(float(th), float(ph))
                total += wt * wph * math.sqrt(float(np.linalg.det(sig)))
        return total


def extract_closed_component(f: PotentialField, metric: MetricField, center,
                             s_bracket, n_theta: int = 16, n_phi: int = 32,
                             root_tol: float = 1e-10) -> ClosedComponent:
    """Mesh a closed zero-set component star-shaped around a center.

    Rays are solved like graph lines; the Euler characteristic comes from the
    actual vertex/edge/face counts of the triangulation. Vanishing |grad f| on
    the component raises CriticalOnZeroSetError.
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

    vertices = [chart.point_at(u, v) for (u, v) in params]

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

    grad_norms = []
    for p in vertices:
        gn = _norm_g(metric.matrix(p), f.gradient(p))
        if gn < 1e-8:
            raise CriticalOnZeroSetError(
                f"{f.label}: |grad f| = {gn:.3e} at {p.coords()}; component degenerate")
        grad_norms.append(gn)

    return ClosedComponent(chart=chart, center=c, vertex_params=params,
                           vertices=vertices, triangles=triangles,
                           euler_characteristic=euler, grad_norms=np.array(grad_norms))


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


def _adapted_frame(f: PotentialField, res: StaticResidual, chart: SurfaceChart,
                   u: float, v: float):
    """Unit normal, |grad f|_g and a g-orthonormal tangent pair, from the static pass."""
    g, grad = res.curvature.metric_matrix, res.gradient
    gn = _norm_g(g, grad)
    if gn < 1e-8:
        raise CriticalOnZeroSetError(f"{f.label}: |grad f| degenerate at {res.point.coords()}")
    nu = np.linalg.inv(g) @ grad / gn
    Tu, Tv = chart.tangents(u, v)
    t1 = Tu / math.sqrt(float(Tu @ g @ Tu))
    t2 = Tv - float(Tv @ g @ t1) * t1
    t2 = t2 / math.sqrt(float(t2 @ g @ t2))
    return g, nu, gn, t1, t2


def zero_set_laws(f: PotentialField, metric: MetricField, chart: SurfaceChart,
                  samples, deltas, static_tol: float = 1e-6) -> ZeroSetLawReport:
    """Check the adapted-frame curvature relations along a zero set.

    ``samples`` is a sequence of chart coordinates, ``deltas`` the matching
    stencil steps for the intrinsic curvature. At each sample the normal must
    be a Ricci eigenvector, the two tangential eigenvalues must coincide, and
    the intrinsic curvature must equal both twice the tangential eigenvalue
    and minus the normal one. Each sample takes one static pass; a critical
    zero set is reported before a failed static gate.
    """
    gns, tang, eig_res, gaps, ks, km2, kp3 = [], [], [], [], [], [], []
    for (u, v), d in zip(samples, deltas):
        res = static_residual(f, metric, chart.point_at(u, v))
        g, nu, gn, t1, t2 = _adapted_frame(f, res, chart, u, v)
        ric = _gate(res, f, metric, static_tol).curvature.ricci
        r11 = float(t1 @ ric @ t1)
        r22 = float(t2 @ ric @ t2)
        r33 = float(nu @ ric @ nu)
        tang.append(max(abs(float(nu @ ric @ t1)), abs(float(nu @ ric @ t2))))
        eig_res.append(float(np.linalg.norm(ric @ nu - r33 * (g @ nu))))
        K = gaussian_curvature(chart, u, v, d)
        gns.append(gn)
        gaps.append(abs(r11 - r22))
        ks.append(K)
        km2.append(abs(K - 2.0 * r11))
        kp3.append(abs(K + r33))
    gns = np.array(gns)
    spread = float((gns.max() - gns.min()) / max(abs(gns.mean()), 1e-300))
    return ZeroSetLawReport(grad_norms=gns, grad_norm_spread=spread,
                            tangential_ricci_max=np.array(tang),
                            eigen_residuals=np.array(eig_res),
                            r11_r22_gaps=np.array(gaps), k_values=np.array(ks),
                            k_minus_2r11=np.array(km2), k_plus_r33=np.array(kp3))


@dataclass(frozen=True)
class SecondPotentialReport:
    values: np.ndarray            # K * f^3 samples
    relative_spread: float
    hessian_residual_max: float
    hessian_scale: float


def _scalar_grid(fn, u: float, v: float, delta: float) -> np.ndarray:
    return np.array([[fn(u + i * delta, v + j * delta) for j in range(-2, 3)]
                     for i in range(-2, 3)])


def second_potential_laws(f_second: PotentialField, chart: SurfaceChart,
                          samples, deltas) -> SecondPotentialReport:
    """Constancy of K f^3 and the intrinsic Hessian law for a second potential.

    ``f_second`` is a static potential whose zero set is elsewhere; restricted
    to this chart's surface it must satisfy Hess_sigma f = (K f / 2) sigma,
    and K f^3 must be constant along each component.
    """
    vals, res_max, scale = [], 0.0, 0.0

    def restricted(u, v):
        return f_second.value(chart.point_at(u, v))

    for (u, v), d in zip(samples, deltas):
        grid = _scalar_grid(restricted, u, v, d)
        f_c = grid[2, 2]
        f_u = float(_C1 @ grid[:, 2]) / d
        f_v = float(_C1 @ grid[2, :]) / d
        f_uu = float(_C2 @ grid[:, 2]) / (d * d)
        f_vv = float(_C2 @ grid[2, :]) / (d * d)
        f_uv = float(np.einsum("i,j,ij->", _C1, _C1, grid)) / (d * d)

        sig, d_u, d_v = _sigma_first(chart, u, v, d)
        gam = _surface_christoffel(sig, d_u, d_v)
        hess = np.array([[f_uu, f_uv], [f_uv, f_vv]])
        hess -= gam[0] * f_u + gam[1] * f_v

        K = gaussian_curvature(chart, u, v, d)
        law = 0.5 * K * f_c * sig
        res_max = max(res_max, float(np.abs(hess - law).max()))
        scale = max(scale, float(np.abs(law).max()) + abs(f_uu) + abs(f_vv))
        vals.append(K * f_c ** 3)
    vals = np.array(vals)
    spread = float((vals.max() - vals.min()) / max(abs(vals.mean()), 1e-300))
    return SecondPotentialReport(values=vals, relative_spread=spread,
                                 hessian_residual_max=res_max, hessian_scale=scale)
