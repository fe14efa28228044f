"""Scalar potential fields and the static-system residuals.

A potential is a scalar closure with the same genericity contract as metric
components: it must accept floats, coordinate arrays (a batch of points, as
the sphere drivers and the zero-set root scan pass them) or jets. The static
system under test is

    Hess_g f = f * Ric_g      and      Laplace_g f = 0

whose pointwise defect is reported by :func:`static_residual`. The Bochner
identity residual and the asymptotic linear-part fit live here too.
"""

from __future__ import annotations

import ast
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import jets
from .errors import ConfigError, NonConvergentError, NotStaticError, ZeroPotentialError
from .geometry import CurvatureBundle, MetricField, Point3, _first_flagged, curvature_at
from .quadrature import (SphereRule, aitken_limit, decay_exponent, require_geometric_tail,
                         sphere_rule)


@dataclass(frozen=True)
class PotentialField:
    """A scalar field on the chart."""

    expr: Callable
    label: str = "potential"

    def value(self, point):
        """Value at a point; an array over the nodes of a batched Point3."""
        return _taylor(self.expr, Point3.of(point), 0)[0]

    def gradient(self, point) -> np.ndarray:
        """Coordinate gradient, ``(..., 3)`` over the nodes of a batched Point3."""
        return _taylor(self.expr, Point3.of(point), 1)[1]

    def hessian(self, point) -> np.ndarray:
        """Coordinate second partials (no metric involved), ``(..., 3, 3)`` over a batch."""
        return _taylor(self.expr, Point3.of(point), 2)[2]


def _taylor(expr: Callable, p: Point3, depth: int) -> tuple:
    """A scalar expression and its first ``depth`` (at most 3) partials at p.

    The potential counterpart of the metric's Taylor data: seeds the
    coordinates, evaluates ``expr`` once and returns ``(value,)``,
    ``(value, grad)``, ``(value, grad, hess)`` or ``(value, grad, hess, d3)``
    as C-ordered float arrays ``jets.taylor`` reads out, with ``grad[..., i]``,
    ``hess[..., i, j]`` and ``d3[..., i, j, k]`` over the batch shape of p.
    The value is a Python float for a single point.
    """
    batch = getattr(p.x1, "shape", ())  # floats and numpy scalars have shape ()
    parts = jets.taylor([expr(*jets.seed(p.coords(), depth))], depth, batch)
    value, *rest = [a[..., 0].copy() for a in parts]
    return (value if batch else float(value), *rest)


def affine(a0: float, a1: float, a2: float, a3: float) -> PotentialField:
    """a0 + a1 x1 + a2 x2 + a3 x3; static on the flat metric."""

    def expr(X1, X2, X3):
        return a0 + a1 * X1 + a2 * X2 + a3 * X3

    return PotentialField(expr=expr, label="affine")


def schwarzschild_potential(mass: float) -> PotentialField:
    """(1 - m/2r) / (1 + m/2r), the bounded potential of the conformal slice."""
    m = float(mass)

    def expr(X1, X2, X3):
        r = jets.sqrt(X1 * X1 + X2 * X2 + X3 * X3)
        w = (0.5 * m) / r
        return (1.0 - w) / (1.0 + w)

    return PotentialField(expr=expr, label=f"schwarzschild_potential(m={m:g})")


### Expression grammar: + - * / ^, sqrt, ln, names x1 x2 x3 r, numbers

_BIN_OPS = {ast.Add: lambda a, b: a + b,
            ast.Sub: lambda a, b: a - b,
            ast.Mult: lambda a, b: a * b,
            ast.Div: lambda a, b: a / b}
_FUNCS = {"sqrt": jets.sqrt, "ln": jets.log}
_NAMES = ("x1", "x2", "x3", "r")


def _const_subtree(node) -> bool:
    return not any(isinstance(n, (ast.Name, ast.Call)) for n in ast.walk(node))


def _compile(node):
    """Validate an AST node and build its evaluator ``fn(env)``, env = (x1, x2, x3, r).

    The AST is walked once, here; evaluating the closures performs the same
    operations in the same order as walking the tree at every call would.
    """
    if isinstance(node, ast.Expression):
        return _compile(node.body)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            if not _const_subtree(node.right):
                raise ConfigError("exponents must be constants")
            base, expo = _compile(node.left), _compile(node.right)
            return lambda env: jets.power(base(env), expo(()))
        op = _BIN_OPS.get(type(node.op))
        if op is None:
            raise ConfigError(f"operator {type(node.op).__name__} not allowed")
        left, right = _compile(node.left), _compile(node.right)
        return lambda env: op(left(env), right(env))
    if isinstance(node, ast.UnaryOp):
        if not isinstance(node.op, (ast.USub, ast.UAdd)):
            raise ConfigError("only unary +/- allowed")
        operand = _compile(node.operand)
        if isinstance(node.op, ast.UAdd):
            return operand
        return lambda env: -operand(env)
    if isinstance(node, ast.Call):
        if not (isinstance(node.func, ast.Name) and node.func.id in _FUNCS):
            raise ConfigError("only sqrt() and ln() calls allowed")
        if len(node.args) != 1 or node.keywords:
            raise ConfigError("functions take exactly one argument")
        fn, arg = _FUNCS[node.func.id], _compile(node.args[0])
        return lambda env: fn(arg(env))
    if isinstance(node, ast.Name):
        if node.id not in _NAMES:
            raise ConfigError(f"unknown name {node.id!r}")
        return operator.itemgetter(_NAMES.index(node.id))
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ConfigError("only numeric constants allowed")
        try:
            c = float(node.value)
        except OverflowError:
            raise ConfigError("numeric constant too large for a float") from None
        return lambda env: c
    raise ConfigError(f"construct {type(node).__name__} not allowed")


def expression_potential(text: str, label: str | None = None) -> PotentialField:
    """Parse a potential from the small arithmetic grammar.

    The expression is validated and compiled into closures once; the returned
    potential evaluates on floats, coordinate arrays and jets alike.
    """
    try:
        tree = ast.parse(text.replace("^", "**"), "<potential>", "eval")
    except SyntaxError as exc:
        raise ConfigError(f"cannot parse potential {text!r}: {exc}") from None
    evaluate = _compile(tree)
    # sqrt has no jet derivative at the origin, so only build "r" when used
    uses_r = any(isinstance(n, ast.Name) and n.id == "r" for n in ast.walk(tree))

    def expr(X1, X2, X3):
        r = jets.sqrt(X1 * X1 + X2 * X2 + X3 * X3) if uses_r else None
        return evaluate((X1, X2, X3, r))

    return PotentialField(expr=expr, label=label if label is not None else text.strip())


### Residuals of the static system


@dataclass(frozen=True)
class StaticResidual:
    """The static system's defect and the one pass it was built from.

    For a batched Point3 every field carries the batch shape in front, and
    ``f_value``, ``laplacian_residual`` and ``combined_norm`` are arrays over
    the nodes; for one point they are floats.
    """

    point: Point3
    f_value: float
    tensor_residual: np.ndarray
    laplacian_residual: float
    gradient: np.ndarray            # f's coordinate gradient
    covariant_hessian: np.ndarray   # Hess_g f
    curvature: CurvatureBundle      # the metric's curvature at the point

    @property
    def combined_norm(self) -> float:
        norm = np.sqrt(_pair(self.tensor_residual, self.tensor_residual))
        out = norm + np.abs(self.laplacian_residual)
        return out if np.ndim(out) else float(out)


def _pair(a: np.ndarray, b: np.ndarray):
    """sum_ij a_ij b_ij over the trailing 3x3 slots, summed in np.tensordot's order."""
    return np.vecdot(a.reshape(a.shape[:-2] + (9,)), b.reshape(b.shape[:-2] + (9,)))


def _hess_g(hess: np.ndarray, grad: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Covariant Hessian from coordinate partials: hess_ij - Gamma^k_ij grad_k."""
    return hess - np.einsum("...kij,...k->...ij", gamma, grad)


def _norm_g(g: np.ndarray, grad: np.ndarray):
    """|grad|_g of a coordinate gradient against the metric matrix g.

    Stacked gradients and matrices give an array, in the order of the 1-D
    products grad @ inv(g) @ grad.
    """
    return _norm_ginv(np.linalg.inv(g), grad)


def _norm_ginv(ginv: np.ndarray, grad: np.ndarray):
    """``_norm_g`` from the inverse metric matrix ginv, with the same products."""
    out = np.sqrt(((grad[..., None, :] @ ginv) @ grad[..., :, None])[..., 0, 0])
    return out if np.ndim(out) else float(out)


def static_residual(f: PotentialField, metric: MetricField, point) -> StaticResidual:
    """Pointwise defect of the static system for (f, metric).

    A batched Point3 takes one curvature pass and one potential pass for all
    its nodes.
    """
    p = Point3.of(point)
    return _static_from(f, p, curvature_at(metric, p))


def _static_from(f: PotentialField, p: Point3, bundle: CurvatureBundle) -> StaticResidual:
    """The static system's defect at p, from a curvature pass already taken there."""
    fval, grad, hess = _taylor(f.expr, p, 2)
    cov_hess = _hess_g(hess, grad, bundle.gamma)
    tensor = cov_hess - np.asarray(fval)[..., None, None] * bundle.ricci
    lap = _pair(np.linalg.inv(bundle.metric_matrix), cov_hess)
    return StaticResidual(point=p, f_value=fval, tensor_residual=tensor,
                          laplacian_residual=lap if np.ndim(lap) else float(lap),
                          gradient=grad, covariant_hessian=cov_hess, curvature=bundle)


def _gate(res: StaticResidual, f: PotentialField, metric: MetricField, tol: float) -> StaticResidual:
    """``res``, or NotStaticError at its first node whose defect exceeds the gate."""
    combined = res.combined_norm
    bad = combined > tol * (1.0 + np.abs(res.f_value))
    if np.any(bad):
        worst = float(np.ravel(combined)[np.flatnonzero(bad)[0]])
        raise NotStaticError(
            f"{f.label} on {metric.label}: static residual {worst:.3e} "
            f"at {_first_flagged(res.point, bad)} exceeds gate {tol:g}*(1+|f|)")
    return res


def require_static(f: PotentialField, metric: MetricField, point, tol: float = 1e-6) -> StaticResidual:
    """``static_residual``, raising NotStaticError at the first node over the gate."""
    return _gate(static_residual(f, metric, point), f, metric, tol)


def bochner_residual(f: PotentialField, metric: MetricField, point, static_tol: float = 1e-6) -> float:
    """Defect of the gradient-norm identity satisfied by static potentials.

    Checks (1/2) Laplace |grad f|^2 = |Hess f|^2 + (1/2f) <grad f, grad |grad f|^2>
    at a point where f does not vanish. The connection, the metric with its
    partials and f's derivatives come from the static gate; the first two
    partials of phi = g^ij f_i f_j follow from them by the product rule, with
    d(g^-1) = -g^-1 (dg) g^-1. Takes one point; a batched Point3 raises
    ValueError.
    """
    p = Point3.of(point)
    if any(np.ndim(x) for x in p.coords()):
        raise ValueError("bochner_residual takes one point, not a batched Point3")
    # a vanishing f is reported before the gate runs, even where f has no
    # derivatives or the point is off the chart
    fval = f.value(p)
    if abs(fval) < 1e-10:
        raise ZeroPotentialError(f"{f.label}: potential vanishes at {p.coords()}")
    gate = require_static(f, metric, p, tol=static_tol)

    bundle = gate.curvature
    _, df, d2f, d3f = _taylor(f.expr, p, 3)
    ginv = np.linalg.inv(bundle.metric_matrix)
    a = np.einsum("ik,ckj->cij", ginv, bundle.dg)   # g^-1 d_c g
    dginv = -np.einsum("cik,kj->cij", a, ginv)      # d_c g^-1
    d2ginv = (np.einsum("dik,ckl,lj->cdij", a, a, ginv)
              + np.einsum("cik,dkl,lj->cdij", a, a, ginv)
              - np.einsum("ik,cdkl,lj->cdij", ginv, bundle.d2g, ginv))
    gf = ginv @ df                                  # g^ij f_j
    phi_grad = np.einsum("cij,i,j->c", dginv, df, df) + 2.0 * d2f @ gf
    phi_hess = (np.einsum("cdij,i,j->cd", d2ginv, df, df)
                + 2.0 * np.einsum("cij,id,j->cd", dginv, d2f, df)
                + 2.0 * np.einsum("dij,ic,j->cd", dginv, d2f, df)
                + 2.0 * d3f @ gf
                + 2.0 * np.einsum("ic,ij,jd->cd", d2f, ginv, d2f))
    lap_phi = float(np.tensordot(ginv, _hess_g(phi_hess, phi_grad, bundle.gamma)))

    H = gate.covariant_hessian
    hess_sq = float(np.einsum("ik,jl,ij,kl->", ginv, ginv, H, H))
    pairing = float(gate.gradient @ ginv @ phi_grad)
    return 0.5 * lap_phi - hess_sq - 0.5 * pairing / fval


### Asymptotic linear part


@dataclass(frozen=True)
class LinearPartFit:
    coefficients: np.ndarray      # limits of the averaged partials
    radii: np.ndarray
    averages: np.ndarray          # (n_radii, 3) sphere averages of grad f
    remainder_rms: np.ndarray     # (n_radii,) spread of grad f around the limit
    remainder_exponent: float | None


def fit_linear_part(f: PotentialField, metric: MetricField, radii: Sequence[float],
                    rule: SphereRule | None = None) -> LinearPartFit:
    """Estimate the linear part of a potential from sphere averages of its gradient.

    The averaged partials are extrapolated in the sphere radius; the scatter of
    the gradient around the limit gives the remainder decay exponent. Raises
    NonConvergentError when the averages show no Cauchy trend, and ValueError,
    before any sphere pass, for fewer than three distinct radii or when the
    last three are not geometric, as the extrapolation needs
    (``require_geometric_tail``). Each sphere's nodes go through one batched
    ``f.gradient`` call.
    """
    radii = np.array(sorted(float(r) for r in radii))
    if len(set(radii.tolist())) < 3:  # a set, as quadrature.inverse_power_fit counts
        raise ValueError(f"the linear part needs three distinct radii, got {radii.tolist()}")
    require_geometric_tail(radii)
    if rule is None:
        rule = sphere_rule()

    node_grads = []
    for r in radii:
        x = r * rule.directions
        node_grads.append(f.gradient(Point3(x[:, 0], x[:, 1], x[:, 2])))
    averages = np.array([
        (rule.weights[:, None] * grads).sum(axis=0) / (4.0 * np.pi)
        for grads in node_grads
    ])

    coeffs = np.array([aitken_limit(averages[:, i]) for i in range(3)])

    scale = 1.0 + np.abs(averages[-1]).max()
    diffs = np.abs(np.diff(averages, axis=0)).max(axis=1)
    for k in range(1, len(diffs)):
        if diffs[k] > 1.5 * diffs[k - 1] + 1e-13 * scale and diffs[k] > 1e-10 * scale:
            raise NonConvergentError(
                f"{f.label}: sphere-averaged gradient is not settling "
                f"(step {diffs[k]:.3e} after {diffs[k - 1]:.3e})")

    rms = []
    for grads in node_grads:
        dev = grads - coeffs
        rms.append(math.sqrt(float((rule.weights * (dev ** 2).sum(axis=1)).sum() / (4.0 * np.pi))))
    rms = np.array(rms)

    exponent = decay_exponent(radii, rms) if np.all(rms > 1e-14 * scale) else None
    return LinearPartFit(coefficients=coeffs, radii=radii, averages=averages,
                         remainder_rms=rms, remainder_exponent=exponent)
