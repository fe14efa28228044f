"""Quadrature over coordinate spheres and radial shells.

The sphere rule is a product of Gauss-Legendre nodes in the polar cosine and a
uniform azimuthal grid; it is exact for the angular polynomials that appear in
the asymptotic expansions handled elsewhere and spectrally accurate for smooth
integrands. Flux and volume integrals take the metric into account through the
induced area element and the outward unit normal.

Flux and volume integrands take the curvature bundle of the nodes they
integrate over, whose metric also gives the area or volume element, and return
values of shape ``bundle.point.x1.shape``, plus ``(3,)`` for a vector. A flux
takes one curvature pass per sphere; a shell takes one per group of
consecutive radial panels, each group a whole panel or as many as fit in
``_PASS_NODES`` nodes. ``sphere_average`` calls ``fn`` once per sphere on a
batched Point3, and ``fn`` returns values of shape ``x1.shape`` or one scalar.

Gauss-Legendre nodes come from one place, ``gauss_legendre(n)``. It and
``sphere_rule`` build each rule once per process, on its first call, and
return the same read-only arrays on every later call: a caller that writes
into a rule raises ValueError instead of corrupting the rules that follow.
Rule sizes are integers; an integral float such as 3.0 is taken as 3 and is
served 3's rule, and any other size raises ValueError.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import IllConditionedFitError, SingularMetricError
from .geometry import CurvatureBundle, MetricField, Point3, _first_flagged, curvature_at

# Nodes per curvature pass up to which volume_integral groups consecutive
# panels. A pass's fixed cost (jet seeding, einsum dispatch) is ~0.5 ms up to
# ~200 nodes, and its cost per node levels off from there; tools/layer_bench.py
# prints both. A panel larger than this still takes one pass of its own.
_PASS_NODES = 256


@dataclass(frozen=True)
class SphereRule:
    """Nodes, weights and coordinate tangents of a product rule on the unit sphere.

    ``sphere_rule`` builds each size once per process and shares it: the four
    arrays are read-only."""

    directions: np.ndarray    # (N, 3) unit vectors
    weights: np.ndarray       # (N,) summing to 4*pi
    tangent_u: np.ndarray     # (N, 3) d(direction)/du, u = cos(theta)
    tangent_phi: np.ndarray   # (N, 3) d(direction)/dphi

    @property
    def count(self) -> int:
        return self.directions.shape[0]


def aitken_limit(seq) -> float:
    """Aitken delta-squared estimate of the limit of a convergent sequence.

    Uses the last three entries; falls back to the final entry when the
    acceleration denominator degenerates (already-converged data).
    """
    if len(seq) < 3:
        return float(seq[-1])
    v0, v1, v2 = float(seq[-3]), float(seq[-2]), float(seq[-1])
    denom = (v2 - v1) - (v1 - v0)
    if abs(denom) < 1e-13 * (1.0 + abs(v2)):
        return v2
    return v2 - (v2 - v1) ** 2 / denom


GEOMETRIC_RTOL = 1e-6   # how far the last two radius ratios may differ, relatively


def require_geometric_tail(radii) -> None:
    """Refuse radii on which ``aitken_limit`` of values at them is unsound.

    Aitken's delta-squared is exact for a constant error ratio. For an error
    decaying like a power of r, that needs geometric radii: the last three
    ascending radii r0 < r1 < r2 must satisfy r1/r0 = r2/r1, to a relative
    ``GEOMETRIC_RTOL``. A mismatch d moves the limit of a 1/r error by about
    4 d times the last error, so the tolerance leaves the extrapolation exact
    to ~4e-6 of it. Raises ValueError otherwise; fewer than three radii pass,
    as ``aitken_limit`` then returns the last value.
    """
    tail = sorted(float(r) for r in radii)[-3:]
    if len(tail) < 3:
        return
    r0, r1, r2 = tail
    if not (r0 > 0 and abs(r2 / r1 - r1 / r0) <= GEOMETRIC_RTOL * (r1 / r0)):
        raise ValueError(f"Aitken's extrapolation needs geometric radii, the last three in "
                         f"one ratio: got {r0:g}, {r1:g}, {r2:g}")


def inverse_power_fit(x, y) -> tuple:
    """Least-squares fit of y to a + b/x + c/x^2: coefficients (a, b, c), residuals
    and the design's condition number. Fewer than three distinct abscissae raise
    ValueError, a condition number above 1e10 IllConditionedFitError."""
    x = np.asarray(x, dtype=float)
    if len(set(x.tolist())) < 3:  # np.unique's first call adds ~1.2 MB resident
        raise ValueError(f"a + b/x + c/x^2 needs three distinct abscissae, got {x.tolist()}")
    design = np.column_stack([np.ones_like(x), 1.0 / x, 1.0 / x ** 2])
    cond = float(np.linalg.cond(design))
    if cond > 1e10:
        raise IllConditionedFitError(f"fit abscissae {x.tolist()} give condition number {cond:.3e}")
    coef = np.linalg.lstsq(design, y, rcond=None)[0]
    return coef, y - design @ coef, cond


def decay_exponent(radii, values) -> float:
    """Least-squares slope of log(values) against log(radii); -inf unless every
    value is positive. Fewer than two distinct radii raise ValueError."""
    radii = np.asarray(radii, dtype=float)
    if len(set(radii.tolist())) < 2:  # a set, as above
        raise ValueError(f"a decay exponent needs two distinct radii, got {radii.tolist()}")
    if not np.all(values > 0):
        return -math.inf
    return float(np.polyfit(np.log(radii), np.log(values), 1)[0])


def _read_only(*arrays) -> tuple:
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _size(n, name: str) -> int:
    """A rule size as a Python int: an integral float such as 3.0 is 3, as
    ``PerturbationTerm`` takes its indices; any other value raises ValueError."""
    try:
        if int(n) == n:
            return int(n)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be an integer, got {n!r}")


@functools.lru_cache(maxsize=None)
def gauss_legendre(n: int) -> tuple:
    """Gauss-Legendre nodes and weights on [-1, 1], ``leggauss(n)`` unchanged.

    Built once per ``n`` and shared: the two arrays are read-only. An integral
    float such as 3.0 is served the arrays of 3, any other non-integer raises
    ValueError.
    """
    if type(n) is not int:
        return gauss_legendre(_size(n, "n"))
    return _read_only(*np.polynomial.legendre.leggauss(n))


def sphere_rule(n_polar: int = 32, n_azimuth: int = 64) -> SphereRule:
    """Product quadrature rule on the unit sphere, built once per size and shared.

    Sizes are integers (3.0 is taken as 3); too small a rule, or a size that
    is not an integer, raises ValueError on every call."""
    n_polar, n_azimuth = _size(n_polar, "n_polar"), _size(n_azimuth, "n_azimuth")
    if n_polar < 2 or n_azimuth < 4:
        raise ValueError("rule too small: need n_polar >= 2 and n_azimuth >= 4")
    return _sphere_rule(n_polar, n_azimuth)


@functools.lru_cache(maxsize=None)
def _sphere_rule(n_polar: int, n_azimuth: int) -> SphereRule:
    u, wu = gauss_legendre(n_polar)
    phi = 2.0 * np.pi * np.arange(n_azimuth) / n_azimuth
    wphi = 2.0 * np.pi / n_azimuth

    U, PHI = np.meshgrid(u, phi, indexing="ij")
    WU, _ = np.meshgrid(wu, phi, indexing="ij")
    s = np.sqrt(1.0 - U ** 2)
    cp, sp = np.cos(PHI), np.sin(PHI)

    dirs = np.stack([s * cp, s * sp, U], axis=-1).reshape(-1, 3)
    w = (WU * wphi).reshape(-1)
    tu = np.stack([-U / s * cp, -U / s * sp, np.ones_like(U)], axis=-1).reshape(-1, 3)
    tp = np.stack([-s * sp, s * cp, np.zeros_like(U)], axis=-1).reshape(-1, 3)
    _read_only(dirs, w, tu, tp)
    return SphereRule(directions=dirs, weights=w, tangent_u=tu, tangent_phi=tp)


def sphere_average(fn, radius: float, rule: SphereRule) -> float:
    """Average of fn over the coordinate sphere with the round measure.

    ``fn`` is called once, on a Point3 holding every node of the sphere. The
    weighted values are summed node by node from the left, starting at 0.0
    (``np.add.accumulate`` does not reorder), so the average carries the same
    bits as a loop over the nodes would.
    """
    x = radius * rule.directions
    vals = np.asarray(fn(Point3(x[:, 0], x[:, 1], x[:, 2])), dtype=float)
    terms = np.concatenate(([0.0], rule.weights * vals))
    return np.add.accumulate(terms)[-1] / (4.0 * np.pi)


def flux_integral(metric: MetricField, vector_fn, radius: float, rule: SphereRule) -> float:
    """Outward flux of a contravariant vector field through a coordinate sphere.

    Integrates g(V, nu) over the sphere of the given coordinate radius, with nu
    the outward unit normal and the area element both taken in the metric. All
    nodes of the sphere go through one curvature pass, which ``_flux_from``
    reduces with one call of ``vector_fn(bundle)``; it returns the field as an
    ``(n, 3)`` array.
    """
    x = radius * rule.directions
    return _flux_from(curvature_at(metric, Point3(x[:, 0], x[:, 1], x[:, 2])), vector_fn,
                      radius, rule)


def _flux_from(bundle: CurvatureBundle, vector_fn, radius: float, rule: SphereRule) -> float:
    """The flux of ``flux_integral`` from a curvature pass already taken at the
    sphere's nodes, ``radius * rule.directions`` in rule order."""
    p, g = bundle.point, bundle.metric_matrix
    Tu = radius * rule.tangent_u
    Tp = radius * rule.tangent_phi
    h00 = np.einsum("ni,nij,nj->n", Tu, g, Tu)
    h01 = np.einsum("ni,nij,nj->n", Tu, g, Tp)
    h11 = np.einsum("ni,nij,nj->n", Tp, g, Tp)
    det_h = h00 * h11 - h01 * h01
    if (det_h <= 0).any():
        raise SingularMetricError(
            f"degenerate induced area element at {_first_flagged(p, det_h <= 0)}")
    n = np.cross(Tp, Tu)  # outward co-normal up to scale
    nn = np.einsum("ni,nij,nj->n", n, np.linalg.inv(g), n)
    V = np.asarray(vector_fn(bundle), dtype=float)
    # keep this grouping: weights * (e / sqrt(nn) * sqrt(det_h)) rounds differently
    return float(np.sum(rule.weights * np.einsum("ni,ni->n", V, n) / np.sqrt(nn)
                        * np.sqrt(det_h)))


def radial_panels(r_inner: float, r_outer: float, n_panels: int, nodes_per_panel: int,
                  breakpoints=()) -> tuple:
    """Gauss-Legendre nodes and weights on [r_inner, r_outer], panel by panel.

    Panel edges are geometric; explicit breakpoints are inserted so
    kinks of the integrand can sit on panel boundaries. The two counts are
    integers (6.0 is taken as 6); any other count raises ValueError.
    """
    n_panels = _size(n_panels, "n_panels")
    nodes_per_panel = _size(nodes_per_panel, "nodes_per_panel")
    if not (0.0 < r_inner < r_outer):
        raise ValueError("need 0 < r_inner < r_outer")
    cuts = sorted({float(b) for b in breakpoints if r_inner < float(b) < r_outer})
    edges_all = [r_inner] + cuts + [r_outer]
    # distribute panels over the segments proportionally to log length
    seg_logs = [math.log(edges_all[i + 1] / edges_all[i]) for i in range(len(edges_all) - 1)]
    total_log = sum(seg_logs)
    counts = [max(1, round(n_panels * sl / total_log)) for sl in seg_logs]

    xi, wxi = gauss_legendre(nodes_per_panel)
    rs, ws = [], []
    for (a, b), cnt in zip(zip(edges_all[:-1], edges_all[1:]), counts):
        e = np.exp(np.linspace(math.log(a), math.log(b), cnt + 1))
        for lo, hi in zip(e[:-1], e[1:]):
            mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
            rs.append(mid + half * xi)
            ws.append(half * wxi)
    return np.concatenate(rs), np.concatenate(ws)


def volume_integral(metric: MetricField, scalar_fn, r_inner: float, r_outer: float,
                    rule: SphereRule, n_panels: int = 16, nodes_per_panel: int = 8,
                    breakpoints=()) -> float:
    """Integral of a scalar over a coordinate shell with the metric volume element.

    A radial panel is ``nodes_per_panel`` radii times the sphere rule.
    Consecutive panels go through one curvature pass, one volume-element check
    and one call of ``scalar_fn(bundle)`` together, on ``(radii, rule.count)``
    nodes: as many whole panels as fit in ``_PASS_NODES`` nodes, and at least
    one. The sum is still taken panel by panel, in panel order, so the result
    carries the bits of one pass per panel.
    """
    nodes_per_panel = _size(nodes_per_panel, "nodes_per_panel")
    rs, ws = radial_panels(r_inner, r_outer, n_panels, nodes_per_panel, breakpoints=breakpoints)
    per_pass = nodes_per_panel * max(1, _PASS_NODES // (nodes_per_panel * rule.count))
    total = 0.0
    for start in range(0, len(rs), per_pass):
        r = rs[start:start + per_pass]
        x = r[:, None, None] * rule.directions
        bundle = curvature_at(metric, Point3(x[..., 0], x[..., 1], x[..., 2]))
        det_g = np.linalg.det(bundle.metric_matrix)
        if (det_g <= 0).any():
            raise SingularMetricError(
                f"non-positive volume element at {_first_flagged(bundle.point, det_g <= 0)}")
        shells = (rule.weights * np.asarray(scalar_fn(bundle), dtype=float)
                  * np.sqrt(det_g)).sum(axis=1)
        terms = ws[start:start + per_pass] * shells * r * r
        for k in range(0, len(r), nodes_per_panel):
            total += float(np.sum(terms[k:k + nodes_per_panel]))
    return total
