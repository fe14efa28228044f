"""Pointwise identities tied to Ricci eigenstructure.

Frames returned here are g-orthonormal and diagonalize the Ricci tensor, with
eigenvalues in ascending order. In such a frame every static potential
satisfies three scalar identities coupling the rotated Ricci derivatives to the
eigenvalue differences; their residuals are what the verification suites track.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateMetricError, ZeroPotentialError
from .geometry import MetricField, Point3, _first_flagged, curvature_at, ricci_with_derivative
from .potentials import PotentialField, _hess_g, _taylor, require_static

ALL_DISTINCT = "all_distinct"
TWO_EQUAL = "two_equal"
ALL_EQUAL = "all_equal"


@dataclass(frozen=True)
class RicciEigenframe:
    point: Point3
    eigenvalues: np.ndarray   # ascending
    frame: np.ndarray         # columns, g-orthonormal eigenvectors
    kind: str
    pair: tuple | None        # indices of the (nearly) equal pair
    simple_index: int | None  # index of the isolated eigenvalue when kind is two_equal


def ricci_eigenframe(metric: MetricField, point, tau_eig: float = 1e-6):
    """Diagonalize Ricci against the metric at a point.

    Coincidence of eigenvalues is decided by gaps relative to
    ``tau_eig * (1 + max |eigenvalue|)``; the frame is made deterministic by
    forcing the first sizable component of each column positive. A batched
    Point3 takes one curvature pass and one eigensolve, and returns the list of
    its nodes' frames in sample order.
    """
    p = Point3.of(point)
    bundle = curvature_at(metric, p)
    lam, vecs = _eigenframes(bundle.ricci, bundle.metric_matrix, p, metric.label)
    classes = _classify(lam, tau_eig)
    if not isinstance(p.x1, np.ndarray):
        return RicciEigenframe(p, lam, vecs, *_CLASSES[classes])
    xs = np.broadcast_arrays(*p.coords())
    return [RicciEigenframe(Point3(*(float(x[k]) for x in xs)), lam[k], vecs[k],
                            *_CLASSES[classes[k]])
            for k in np.ndindex(xs[0].shape)]


def _eigenframes(ric: np.ndarray, g: np.ndarray, p: Point3, label: str) -> tuple:
    """Eigenvalues (ascending) and sign-fixed g-orthonormal eigenvector columns
    of ``Ric v = lambda g v``, node by node over ``(..., 3, 3)`` stacks.

    The problem is reduced by the Cholesky factor L of g to the symmetric one
    of L^-1 Ric L^-T, whose eigenvectors W give the frame L^-T W. A node whose
    metric has no Cholesky factor raises DegenerateMetricError, at the first
    such node of a batched Point3.
    """
    try:
        chol = np.linalg.cholesky(g)
    except np.linalg.LinAlgError as exc:
        bad = [_no_cholesky(m) for m in np.reshape(g, (-1, 3, 3))]
        raise DegenerateMetricError(
            f"{label}: eigenproblem failed at {_first_flagged(p, bad)}: {exc}") from None
    inv_t = np.swapaxes(np.linalg.inv(chol), -2, -1)
    lam, w = np.linalg.eigh(np.swapaxes(inv_t, -2, -1) @ ric @ inv_t)
    vecs = inv_t @ w
    # sign rule: the first component of each column with |c| > 1e-12 is positive
    sizable = np.abs(vecs) > 1e-12
    lead = np.take_along_axis(vecs, sizable.argmax(axis=-2)[..., None, :], axis=-2)
    flip = (lead < 0) & sizable.any(axis=-2, keepdims=True)
    return lam, np.where(flip, -vecs, vecs)


def _no_cholesky(g: np.ndarray) -> bool:
    try:
        np.linalg.cholesky(g)
    except np.linalg.LinAlgError:
        return True
    return False


# (kind, pair, simple_index) by class code 2 * (low gap closed) + (high gap closed)
_CLASSES = ((ALL_DISTINCT, None, None), (TWO_EQUAL, (1, 2), 0),
            (TWO_EQUAL, (0, 1), 2), (ALL_EQUAL, None, None))


def _classify(lam: np.ndarray, tau_eig: float) -> np.ndarray:
    """Class codes into ``_CLASSES`` of ascending eigenvalue triples ``(..., 3)``."""
    thr = tau_eig * (1.0 + np.abs(lam).max(axis=-1))
    gaps = np.diff(lam, axis=-1)
    return 2 * (gaps[..., 0] < thr) + (gaps[..., 1] < thr)


def tod_identity_residuals(f: PotentialField, metric: MetricField, point,
                           static_tol: float = 1e-6) -> np.ndarray:
    """Residuals of the three eigenframe identities for a static potential.

    In an eigenframe (e1, e2, e3) with eigenvalues (L1, L2, L3) the identities
    read, cyclically,

        f (R33;1 - R31;3) = (L2 - L3) e1(f)

    and the function returns the three left-minus-right defects, as
    ``(..., 3)`` over the nodes of a batched Point3. The frame, f and grad f
    come from the static gate's pass; the gate, the Ricci derivative and the
    eigensolve each take one pass for the whole batch.
    """
    p = Point3.of(point)
    gate = require_static(f, metric, p, tol=static_tol)
    ric, dric, gamma = ricci_with_derivative(metric, p)

    # covariant derivative of Ricci: (grad Ric)[..., c, a, b] = d_c R_ab - corrections
    covd = (dric - np.einsum("...kca,...kb->...cab", gamma, ric)
            - np.einsum("...kcb,...ak->...cab", gamma, ric))
    bundle = gate.curvature
    lam, E = _eigenframes(bundle.ricci, bundle.metric_matrix, p, metric.label)
    P = np.einsum("...ai,...bj,...ck,...cab->...ijk", E, E, E, covd)  # R_ij;k in the frame
    fp = (gate.gradient[..., None, :] @ E)[..., 0, :]  # e_i(f)
    # identity i pairs the cyclic successors j = i + 1, k = i + 2:
    # f (R_kk;i - R_ki;k) = (L_j - L_k) e_i(f)
    i, j, k = [0, 1, 2], [1, 2, 0], [2, 0, 1]
    return (np.expand_dims(gate.f_value, -1) * (P[..., k, k, i] - P[..., k, i, k])
            - (lam[..., j] - lam[..., k]) * fp)


def quotient_residual(f: PotentialField, N: PotentialField, metric: MetricField, point,
                      static_tol: float = 1e-6) -> np.ndarray:
    """Defect of the Hessian law obeyed by the ratio of two static potentials.

    For Z = f/N on the region where N > 0 the law is
    N Hess Z + dN (x) dZ + dZ (x) dN = 0; the returned matrix is its left side.
    """
    p = Point3.of(point)
    n_val = N.value(p)
    if n_val <= 1e-10:
        raise ZeroPotentialError(f"{N.label}: denominator potential is not positive at {p.coords()}")
    require_static(f, metric, p, tol=static_tol)
    gate = require_static(N, metric, p, tol=static_tol)

    def zexpr(X1, X2, X3):
        return f.expr(X1, X2, X3) / N.expr(X1, X2, X3)

    _, dZ, hess_z = _taylor(zexpr, p, 2)
    Hz = _hess_g(hess_z, dZ, gate.curvature.gamma)
    dN = gate.gradient
    return n_val * Hz + np.outer(dN, dZ) + np.outer(dZ, dN)


@dataclass(frozen=True)
class GapRecord:
    point: Point3
    eigenvalues: np.ndarray
    kind: str
    pair: tuple | None
    simple_direction: np.ndarray | None


@dataclass(frozen=True)
class GapScanReport:
    tau_eig: float
    records: list

    def counts(self) -> dict:
        out = {ALL_DISTINCT: 0, TWO_EQUAL: 0, ALL_EQUAL: 0}
        for rec in self.records:
            out[rec.kind] += 1
        return out

    def to_json(self) -> dict:
        return {
            "tau_eig": self.tau_eig,
            "counts": self.counts(),
            "records": [
                {
                    "point": list(rec.point.coords()),
                    "eigenvalues": [float(v) for v in rec.eigenvalues],
                    "kind": rec.kind,
                    "pair": list(rec.pair) if rec.pair is not None else None,
                    "simple_direction": ([float(v) for v in rec.simple_direction]
                                         if rec.simple_direction is not None else None),
                }
                for rec in self.records
            ],
        }

    def to_csv_rows(self) -> list:
        rows = [["x1", "x2", "x3", "lam1", "lam2", "lam3", "kind", "pair"]]
        for rec in self.records:
            rows.append([
                f"{rec.point.x1:.17g}", f"{rec.point.x2:.17g}", f"{rec.point.x3:.17g}",
                f"{rec.eigenvalues[0]:.17g}", f"{rec.eigenvalues[1]:.17g}",
                f"{rec.eigenvalues[2]:.17g}", rec.kind,
                "" if rec.pair is None else f"{rec.pair[0]}-{rec.pair[1]}",
            ])
        return rows


def eigenvalue_gap_scan(metric: MetricField, points, tau_eig: float = 1e-6) -> GapScanReport:
    """Classify Ricci eigenvalue coincidence pointwise over a sample set.

    The sample set takes one batched curvature pass.
    """
    points = [Point3.of(q) for q in points]
    frames = ricci_eigenframe(metric, Point3.stack(points), tau_eig=tau_eig) if points else []
    records = []
    for point, ef in zip(points, frames):
        direction = None
        if ef.kind == TWO_EQUAL:
            direction = ef.frame[:, ef.simple_index].copy()
        records.append(GapRecord(point=point, eigenvalues=ef.eigenvalues,
                                 kind=ef.kind, pair=ef.pair, simple_direction=direction))
    return GapScanReport(tau_eig=tau_eig, records=records)
