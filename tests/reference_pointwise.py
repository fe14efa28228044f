"""Reference oracle for the differential tests of the batched paths.

A frozen copy of the pointwise code the library used before its curvature,
potential and zero-set layers became array-generic: nested-list jet
extraction, the explicit 3^4 loop assembler, quadrature drivers that visit one
node at a time, the recursive expression tree walker, the node-by-node
linear-part fit, and the per-line surface chart: a sample-by-sample root scan
refined by ``scipy.optimize.brentq``, tangents and sigma one line per call, and
curvature stencils and turning integrals built one point at a time. It runs in
plain Python arithmetic, so the batched paths can be checked against it entry
by entry.
It also keeps the static-gated identities as they were before they read the
static gate's curvature and potential derivatives: each evaluates them again
after the gate, as do the surface Christoffel loop and the geodesic transport
right-hand side with its separate Christoffel and curvature calls.
Test-only; the library never imports it.
"""

import ast
import math
from typing import Sequence

import numpy as np
from scipy.optimize import brentq

from staticpot import geometry, jets
from staticpot.errors import (ConfigError, CriticalOnZeroSetError, DomainError, MultiRootError,
                              NoRootError, MonotonicityError, NonConvergentError,
                              SingularMetricError, ZeroPotentialError)
from staticpot.geometry import (CurvatureBundle, MetricField, Point3, christoffel_at,
                                curvature_at, ricci_with_derivative)
from staticpot.identities import ricci_eigenframe
from staticpot.jets import peel_grad, peel_value, seed
from staticpot.potentials import (LinearPartFit, PotentialField, covariant_hessian,
                                  require_static)
from staticpot.quadrature import SphereRule, aitken_limit, radial_panels, sphere_rule
from staticpot.zeroset import ZeroSetLawReport, gaussian_curvature

_EIG_FLOOR = 1e-10


def taylor1(e):
    """Value and gradient of a depth-1 evaluation (entries at base level)."""
    return peel_value(e), [peel_grad(e, 0), peel_grad(e, 1), peel_grad(e, 2)]


def taylor2(e):
    """Value, gradient and Hessian of a depth-2 evaluation."""
    val = peel_value(peel_value(e))
    grad = [peel_value(peel_grad(e, i)) for i in range(3)]
    hess = [[peel_grad(peel_grad(e, i), j) for j in range(3)] for i in range(3)]
    return val, grad, hess


def _check_positive(g: np.ndarray, label: str, p: Point3) -> None:
    if not np.all(np.isfinite(g)):
        raise SingularMetricError(f"{label}: non-finite metric entries at {p.coords()}")
    if np.linalg.eigvalsh(0.5 * (g + g.T)).min() <= _EIG_FLOOR:
        raise SingularMetricError(f"{label}: metric not positive definite at {p.coords()}")


def _inv3(m):
    """Inverse and determinant of a 3x3 nested list via the adjugate."""
    c00 = m[1][1] * m[2][2] - m[1][2] * m[2][1]
    c01 = m[0][2] * m[2][1] - m[0][1] * m[2][2]
    c02 = m[0][1] * m[1][2] - m[0][2] * m[1][1]
    c10 = m[1][2] * m[2][0] - m[1][0] * m[2][2]
    c11 = m[0][0] * m[2][2] - m[0][2] * m[2][0]
    c12 = m[0][2] * m[1][0] - m[0][0] * m[1][2]
    c20 = m[1][0] * m[2][1] - m[1][1] * m[2][0]
    c21 = m[0][1] * m[2][0] - m[0][0] * m[2][1]
    c22 = m[0][0] * m[1][1] - m[0][1] * m[1][0]
    det = m[0][0] * c00 + m[0][1] * c10 + m[0][2] * c20
    return ([[c00 / det, c01 / det, c02 / det],
             [c10 / det, c11 / det, c12 / det],
             [c20 / det, c21 / det, c22 / det]], det)


def _christoffel(g, dg):
    """Gamma[k][i][j] from the metric and its first derivatives."""
    ginv, _ = _inv3(g)
    gamma = []
    for k in range(3):
        rows = []
        for i in range(3):
            row = []
            for j in range(3):
                acc = 0.0
                for l in range(3):
                    acc = acc + ginv[k][l] * (dg[i][l][j] + dg[j][l][i] - dg[l][i][j])
                row.append(0.5 * acc)
            rows.append(row)
        gamma.append(rows)
    return gamma, ginv


def _assemble_curvature(g, dg, d2g):
    """Christoffels, Riemann, Ricci and scalar curvature from metric jets.

    Layouts: dg[k][i][j] = d_k g_ij, d2g[k][l][i][j] = d_k d_l g_ij,
    riemann[d][a][b][c] = R^d_{abc} in the fixed sign convention.
    """
    gamma, ginv = _christoffel(g, dg)

    dginv = []
    for b in range(3):
        mat = []
        for k in range(3):
            row = []
            for l in range(3):
                acc = 0.0
                for s in range(3):
                    for t in range(3):
                        acc = acc - ginv[k][s] * dg[b][s][t] * ginv[t][l]
                row.append(acc)
            mat.append(row)
        dginv.append(mat)

    # dgamma[b][k][i][j] = d_b Gamma^k_{ij}
    dgamma = []
    for b in range(3):
        cube = []
        for k in range(3):
            rows = []
            for i in range(3):
                row = []
                for j in range(3):
                    acc = 0.0
                    for l in range(3):
                        sym = dg[i][l][j] + dg[j][l][i] - dg[l][i][j]
                        dsym = d2g[b][i][l][j] + d2g[b][j][l][i] - d2g[b][l][i][j]
                        acc = acc + dginv[b][k][l] * sym + ginv[k][l] * dsym
                    row.append(0.5 * acc)
                rows.append(row)
            cube.append(rows)
        dgamma.append(cube)

    riem = []
    for d in range(3):
        cube = []
        for a in range(3):
            rows = []
            for b in range(3):
                row = []
                for c in range(3):
                    acc = dgamma[b][d][a][c] - dgamma[c][d][a][b]
                    for k in range(3):
                        acc = acc + gamma[k][a][c] * gamma[d][b][k] - gamma[k][a][b] * gamma[d][c][k]
                    row.append(acc)
                rows.append(row)
            cube.append(rows)
        riem.append(cube)

    ric = []
    for a in range(3):
        row = []
        for c in range(3):
            acc = 0.0
            for d in range(3):
                acc = acc + riem[d][a][d][c]
            row.append(acc)
        ric.append(row)

    scal = 0.0
    for a in range(3):
        for c in range(3):
            scal = scal + ginv[a][c] * ric[a][c]

    return gamma, riem, ric, scal


def _components_taylor2(metric: MetricField, coords):
    """Metric matrix with first and second derivatives via depth-2 jets."""
    Xs = seed(coords, 2)
    comps = metric.components(Xs[0], Xs[1], Xs[2])
    g = [[0.0] * 3 for _ in range(3)]
    dg = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    d2g = [[[[0.0] * 3 for _ in range(3)] for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            val, grad, hess = taylor2(comps[i][j])
            g[i][j] = val
            for k in range(3):
                dg[k][i][j] = grad[k]
                for l in range(3):
                    d2g[k][l][i][j] = hess[k][l]
    return g, dg, d2g


def reference_curvature_at(metric: MetricField, point, check_domain: bool = True) -> CurvatureBundle:
    """Curvature of a metric field at a chart point (dual backend only)."""
    p = Point3.of(point)
    if check_domain and not metric.contains(p):
        raise DomainError(f"{metric.label}: point {p.coords()} outside chart domain")
    coords = p.coords()
    backend = "dual"
    g, dg, d2g = _components_taylor2(metric, coords)

    g_np = np.array(g, dtype=float)
    _check_positive(g_np, metric.label, p)
    gamma, riem, ric, scal = _assemble_curvature(g, dg, d2g)
    return CurvatureBundle(
        point=p,
        backend=backend,
        metric_matrix=g_np,
        gamma=np.array(gamma, dtype=float),
        riemann=np.array(riem, dtype=float),
        ricci=np.array(ric, dtype=float),
        scalar=float(scal),
    )


def reference_christoffel_at(metric: MetricField, point, check_domain: bool = True) -> np.ndarray:
    """Christoffel symbols Gamma^k_{ij} at a point (depth-1 jets only)."""
    p = Point3.of(point)
    if check_domain and not metric.contains(p):
        raise DomainError(f"{metric.label}: point {p.coords()} outside chart domain")
    Xs = seed(p.coords(), 1)
    comps = metric.components(Xs[0], Xs[1], Xs[2])
    g = [[0.0] * 3 for _ in range(3)]
    dg = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            val, grad = taylor1(comps[i][j])
            g[i][j] = val
            for k in range(3):
                dg[k][i][j] = grad[k]
    _check_positive(np.array(g, dtype=float), metric.label, p)
    gamma, _ = _christoffel(g, dg)
    return np.array(gamma, dtype=float)


def reference_ricci_with_derivative(metric: MetricField, point):
    """Ricci tensor, its coordinate derivative and the Christoffels at a point.

    Returns ``(ric, dric, gamma)`` with ``dric[c, a, b] = d_c Ric_ab``. The
    whole curvature assembly runs in depth-1 jet arithmetic on top of the
    depth-2 metric jets, so the derivative is exact.
    """
    p = Point3.of(point)
    if not metric.contains(p):
        raise DomainError(f"{metric.label}: point {p.coords()} outside chart domain")
    base = seed(p.coords(), 1)
    Xs = seed(base, 2)
    comps = metric.components(Xs[0], Xs[1], Xs[2])
    g = [[0.0] * 3 for _ in range(3)]
    dg = [[[0.0] * 3 for _ in range(3)] for _ in range(3)]
    d2g = [[[[0.0] * 3 for _ in range(3)] for _ in range(3)] for _ in range(3)]
    for i in range(3):
        for j in range(3):
            val, grad, hess = taylor2(comps[i][j])
            g[i][j] = val
            for k in range(3):
                dg[k][i][j] = grad[k]
                for l in range(3):
                    d2g[k][l][i][j] = hess[k][l]
    _check_positive(np.array([[peel_value(g[i][j]) for j in range(3)] for i in range(3)],
                             dtype=float), metric.label, p)
    gamma_j, _riem, ric_j, _scal = _assemble_curvature(g, dg, d2g)

    ric = np.zeros((3, 3))
    dric = np.zeros((3, 3, 3))
    gamma = np.zeros((3, 3, 3))
    for a in range(3):
        for b in range(3):
            e = ric_j[a][b]
            ric[a, b] = peel_value(e)
            for c in range(3):
                dric[c, a, b] = peel_grad(e, c)
    for k in range(3):
        for i in range(3):
            for j in range(3):
                gamma[k, i, j] = peel_value(gamma_j[k][i][j])
    return ric, dric, gamma

def reference_flux_integral(metric: MetricField, vector_fn, radius: float, rule: SphereRule) -> float:
    """Outward flux through a coordinate sphere, one node at a time; vector_fn(p)."""
    total = 0.0
    for d, w, tu, tp in zip(rule.directions, rule.weights, rule.tangent_u, rule.tangent_phi):
        p = Point3(radius * d[0], radius * d[1], radius * d[2])
        g = metric.matrix(p)
        Tu = radius * tu
        Tp = radius * tp
        h00 = Tu @ g @ Tu
        h01 = Tu @ g @ Tp
        h11 = Tp @ g @ Tp
        det_h = h00 * h11 - h01 * h01
        if det_h <= 0:
            raise SingularMetricError(f"degenerate induced area element at {p.coords()}")
        n = np.cross(Tp, Tu)  # outward co-normal up to scale
        ginv = np.linalg.inv(g)
        nn = n @ ginv @ n
        V = np.asarray(vector_fn(p), dtype=float)
        total += w * (V @ n) / math.sqrt(nn) * math.sqrt(det_h)
    return total


def reference_volume_integral(metric: MetricField, scalar_fn, r_inner: float, r_outer: float,
                              rule: SphereRule, n_panels: int = 16, nodes_per_panel: int = 8,
                              breakpoints=()) -> float:
    """Shell integral with the metric volume element, one node at a time; scalar_fn(p)."""
    rs, ws = radial_panels(r_inner, r_outer, n_panels, nodes_per_panel, breakpoints=breakpoints)
    total = 0.0
    for r, wr in zip(rs, ws):
        shell = 0.0
        for d, w in zip(rule.directions, rule.weights):
            p = Point3(r * d[0], r * d[1], r * d[2])
            g = metric.matrix(p)
            det_g = np.linalg.det(g)
            if det_g <= 0:
                raise SingularMetricError(f"non-positive volume element at {p.coords()}")
            shell += w * scalar_fn(p) * math.sqrt(det_g)
        total += wr * shell * r * r
    return total


def reference_sphere_average(fn, radius: float, rule: SphereRule) -> float:
    """Average of fn over the coordinate sphere, one node at a time; fn(p)."""
    total = 0.0
    for d, w in zip(rule.directions, rule.weights):
        total += w * fn(Point3(radius * d[0], radius * d[1], radius * d[2]))
    return total / (4.0 * np.pi)


### Expression grammar: the recursive tree walker

_BIN_OPS = {ast.Add: lambda a, b: a + b,
            ast.Sub: lambda a, b: a - b,
            ast.Mult: lambda a, b: a * b,
            ast.Div: lambda a, b: a / b}
_FUNCS = {"sqrt": jets.sqrt, "ln": jets.log}


def _eval_node(node, env):
    if isinstance(node, ast.Expression):
        return _eval_node(node.body, env)
    if isinstance(node, ast.BinOp):
        if isinstance(node.op, ast.Pow):
            base = _eval_node(node.left, env)
            expo = _eval_node(node.right, {})
            return jets.power(base, expo)
        return _BIN_OPS[type(node.op)](_eval_node(node.left, env), _eval_node(node.right, env))
    if isinstance(node, ast.UnaryOp):
        v = _eval_node(node.operand, env)
        return -v if isinstance(node.op, ast.USub) else v
    if isinstance(node, ast.Call):
        return _FUNCS[node.func.id](_eval_node(node.args[0], env))
    if isinstance(node, ast.Name):
        return env[node.id]
    if isinstance(node, ast.Constant):
        return float(node.value)
    raise ConfigError(f"construct {type(node).__name__} not allowed")


def reference_expression(text: str):
    """The tree-walking ``expr(X1, X2, X3)`` of a grammar expression (assumed valid)."""
    tree = ast.parse(text.replace("^", "**"), "<potential>", "eval")
    uses_r = any(isinstance(n, ast.Name) and n.id == "r" for n in ast.walk(tree))

    def expr(X1, X2, X3):
        env = {"x1": X1, "x2": X2, "x3": X3}
        if uses_r:
            env["r"] = jets.sqrt(X1 * X1 + X2 * X2 + X3 * X3)
        return _eval_node(tree, env)

    return expr


### Linear part, one gradient per node


def reference_fit_linear_part(f: PotentialField, metric: MetricField, radii: Sequence[float],
                              rule: SphereRule | None = None) -> LinearPartFit:
    radii = np.array(sorted(float(r) for r in radii))
    if len(radii) < 3:
        raise ValueError("need at least three radii")
    if rule is None:
        rule = sphere_rule()

    node_grads = []
    for r in radii:
        grads = np.array([f.gradient(Point3(*(r * d))) for d in rule.directions])
        node_grads.append(grads)
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

    exponent = None
    if np.all(rms > 1e-14 * scale):
        slope = np.polyfit(np.log(radii), np.log(rms), 1)[0]
        exponent = float(slope)
    return LinearPartFit(coefficients=coeffs, radii=radii, averages=averages,
                         remainder_rms=rms, remainder_exponent=exponent)


### Per-line surface chart: one certified root, scanned one sample at a time


def _line_value(chart, u: float, v: float, s: float) -> float:
    """f at the parameter s of one line, one scalar evaluation."""
    X = chart.embed(u, v, s)
    return float(jets.value(chart.f.expr(X[0], X[1], X[2])))


def _line_slope(chart, u: float, v: float, s: float) -> float:
    """df/ds at the parameter s of one line, one scalar evaluation."""
    X = chart.embed(u, v, jets.Jet(s, (1.0, 0.0, 0.0)))
    return float(peel_grad(chart.f.expr(X[0], X[1], X[2]), 0))


def reference_root(chart, u: float, v: float) -> float:
    """``SurfaceChart.root`` with its pointwise sign scan and no root cache."""
    lo, hi = chart.bracket(u, v)
    pair = None
    for _ in range(7):
        ss = np.linspace(lo, hi, 25)
        vals = [_line_value(chart, u, v, s) for s in ss]
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
                f"{chart.label}: {len(brackets)} sign changes on [{lo:g}, {hi:g}] "
                f"at (u, v) = ({u:g}, {v:g})")
        if brackets:
            pair = brackets[0]
            break
        mid, half = 0.5 * (lo + hi), hi - lo
        lo, hi = mid - half, mid + half
        if chart.param_floor is not None:
            lo = max(lo, chart.param_floor)
    if pair is None:
        raise NoRootError(f"{chart.label}: no sign change found near (u, v) = ({u:g}, {v:g})")

    if _line_value(chart, u, v, pair[0]) == 0.0:
        s = pair[0]
    elif _line_value(chart, u, v, pair[1]) == 0.0:
        s = pair[1]
    else:
        s = brentq(lambda t: _line_value(chart, u, v, t), pair[0], pair[1],
                   xtol=1e-13, rtol=8.9e-16, maxiter=200)
    for _ in range(3):
        fv = _line_value(chart, u, v, s)
        sl = _line_slope(chart, u, v, s)
        if fv == 0.0 or abs(sl) < 1e-14:
            break
        s -= fv / sl

    fv = _line_value(chart, u, v, s)
    if abs(fv) > chart.root_tol:
        raise NoRootError(
            f"{chart.label}: root certification failed, |f| = {abs(fv):.3e} "
            f"> {chart.root_tol:g} at (u, v) = ({u:g}, {v:g})")
    sl = _line_slope(chart, u, v, s)
    if sl < chart.slope_floor:
        raise MonotonicityError(
            f"{chart.label}: line slope {sl:.3e} below floor {chart.slope_floor:g} "
            f"at (u, v) = ({u:g}, {v:g})")
    return float(s)


def reference_root_jet(chart, u: float, v: float, depth: int):
    s0 = reference_root(chart, u, v)
    d = _line_slope(chart, u, v, s0)
    U, V = u, v
    for _ in range(depth):
        U = jets.Jet(U, (1.0, 0.0, 0.0))
        V = jets.Jet(V, (0.0, 1.0, 0.0))
    S = s0
    for _ in range(depth + 1):
        X = chart.embed(U, V, S)
        F = chart.f.expr(X[0], X[1], X[2])
        S = S - F / d
    return S


def reference_point_at(chart, u: float, v: float) -> Point3:
    s = reference_root(chart, u, v)
    X = chart.embed(u, v, s)
    return Point3(float(X[0]), float(X[1]), float(X[2]))


def reference_height_slopes(chart, u: float, v: float) -> np.ndarray:
    S = reference_root_jet(chart, u, v, 1)
    return np.array([float(peel_grad(S, 0)), float(peel_grad(S, 1))])


def reference_tangents(chart, u: float, v: float):
    S = reference_root_jet(chart, u, v, 1)
    U = jets.Jet(u, (1.0, 0.0, 0.0))
    V = jets.Jet(v, (0.0, 1.0, 0.0))
    X = chart.embed(U, V, S)
    Tu = np.array([float(peel_grad(X[i], 0)) for i in range(3)])
    Tv = np.array([float(peel_grad(X[i], 1)) for i in range(3)])
    return Tu, Tv


def reference_sigma_at(chart, u: float, v: float) -> np.ndarray:
    Tu, Tv = reference_tangents(chart, u, v)
    g = chart.metric.matrix(reference_point_at(chart, u, v))
    e = float(Tu @ g @ Tu)
    fm = float(Tu @ g @ Tv)
    gg = float(Tv @ g @ Tv)
    return np.array([[e, fm], [fm, gg]])


### Stencils of one sigma evaluation per chart point

_C1 = np.array([1.0, -8.0, 0.0, 8.0, -1.0]) / 12.0
_C2 = np.array([-1.0, 16.0, -30.0, 16.0, -1.0]) / 12.0


def reference_gaussian_curvature(chart, u: float, v: float, delta: float) -> float:
    S = np.array([[reference_sigma_at(chart, u + i * delta, v + j * delta)
                   for j in range(-2, 3)] for i in range(-2, 3)])
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


def reference_circle_turning(chart, radius: float, n_angles: int, d: float):
    """(turning integral, length, mean |kappa radius - 1|) one angle at a time."""
    w = 2.0 * np.pi / n_angles
    total = length = dev = 0.0
    for k in range(n_angles):
        lam = w * k
        cl, sl = math.cos(lam), math.sin(lam)
        u, v = radius * cl, radius * sl
        line_u = np.array([reference_sigma_at(chart, u + i * d, v) for i in range(-2, 3)])
        line_v = np.array([reference_sigma_at(chart, u, v + j * d) for j in range(-2, 3)])
        sig = line_u[2]
        gam = reference_surface_christoffel(sig, np.tensordot(_C1, line_u, axes=(0, 0)) / d,
                                            np.tensordot(_C1, line_v, axes=(0, 0)) / d)
        cp = np.array([-radius * sl, radius * cl])
        cpp = np.array([-radius * cl, -radius * sl])
        acc = cpp + np.einsum("kab,a,b->k", gam, cp, cp)
        speed2 = float(cp @ sig @ cp)
        num = cp[0] * acc[1] - cp[1] * acc[0]
        kappa = math.sqrt(float(np.linalg.det(sig))) * num / speed2 ** 1.5
        total += kappa * math.sqrt(speed2) * w
        length += math.sqrt(speed2) * w
        dev += abs(kappa * radius - 1.0) / n_angles
    return total, length, dev


### Static-gated identities, each evaluating again what the gate computed


def reference_tod_identity_residuals(f: PotentialField, metric: MetricField, point,
                                     static_tol: float = 1e-6) -> np.ndarray:
    p = Point3.of(point)
    require_static(f, metric, p, tol=static_tol)
    ef = ricci_eigenframe(metric, p)
    ric, dric, gamma = ricci_with_derivative(metric, p)

    # covariant derivative of Ricci: (grad Ric)[c, a, b] = d_c R_ab - corrections
    covd = dric - np.einsum("kca,kb->cab", gamma, ric) - np.einsum("kcb,ak->cab", gamma, ric)
    E = ef.frame
    P = np.einsum("ai,bj,ck,cab->ijk", E, E, E, covd)  # R_ij;k in the frame
    fp = E.T @ f.gradient(p)
    fval = f.value(p)
    lam = ef.eigenvalues

    return np.array([
        fval * (P[2, 2, 0] - P[2, 0, 2]) - (lam[1] - lam[2]) * fp[0],
        fval * (P[0, 0, 1] - P[0, 1, 0]) - (lam[2] - lam[0]) * fp[1],
        fval * (P[1, 1, 2] - P[1, 2, 1]) - (lam[0] - lam[1]) * fp[2],
    ])


def reference_bochner_residual(f: PotentialField, metric: MetricField, point,
                               static_tol: float = 1e-6) -> float:
    p = Point3.of(point)
    fval = f.value(p)
    if abs(fval) < 1e-10:
        raise ZeroPotentialError(f"{f.label}: potential vanishes at {p.coords()}")
    require_static(f, metric, p, tol=static_tol)

    def phi_expr(X1, X2, X3):
        # |grad f|^2 as a scalar field, generic over the coordinate type
        Ys = jets.seed((X1, X2, X3), 1)
        F = f.expr(Ys[0], Ys[1], Ys[2])
        fi = np.array([jets.peel_grad(F, i) for i in range(3)], dtype=object)
        ginv, _ = geometry._inv3(np.array(metric.components(X1, X2, X3), dtype=object))
        return np.einsum("ij,i,j->", ginv, fi, fi)

    Xs = jets.seed(p.coords(), 2)
    _, phi_grad_l, phi_hess_l = taylor2(phi_expr(Xs[0], Xs[1], Xs[2]))
    phi_grad = np.array([float(v) for v in phi_grad_l])
    phi_hess = np.array([[float(phi_hess_l[i][j]) for j in range(3)] for i in range(3)])

    gamma = christoffel_at(metric, p)
    g = metric.matrix(p)
    ginv = np.linalg.inv(g)
    lap_phi = float(np.tensordot(ginv, phi_hess - np.einsum("kij,k->ij", gamma, phi_grad)))

    H = covariant_hessian(f, metric, p)
    hess_sq = float(np.einsum("ik,jl,ij,kl->", ginv, ginv, H, H))
    grad_f = f.gradient(p)
    pairing = float(grad_f @ ginv @ phi_grad)
    return 0.5 * lap_phi - hess_sq - 0.5 * pairing / fval


def reference_quotient_residual(f: PotentialField, N: PotentialField, metric: MetricField, point,
                                static_tol: float = 1e-6) -> np.ndarray:
    p = Point3.of(point)
    n_val = N.value(p)
    if n_val <= 1e-10:
        raise ZeroPotentialError(f"{N.label}: denominator potential is not positive at {p.coords()}")
    require_static(f, metric, p, tol=static_tol)
    require_static(N, metric, p, tol=static_tol)

    def zexpr(X1, X2, X3):
        return f.expr(X1, X2, X3) / N.expr(X1, X2, X3)

    Z = PotentialField(expr=zexpr, label=f"({f.label})/({N.label})")
    Hz = covariant_hessian(Z, metric, p)
    dN = N.gradient(p)
    dZ = Z.gradient(p)
    return n_val * Hz + np.outer(dN, dZ) + np.outer(dZ, dN)


def _adapted_frame(f: PotentialField, metric: MetricField, chart, u: float, v: float):
    p = chart.point_at(u, v)
    g = metric.matrix(p)
    ginv = np.linalg.inv(g)
    grad = f.gradient(p)
    nu = ginv @ grad
    gn = math.sqrt(float(grad @ nu))
    if gn < 1e-8:
        raise CriticalOnZeroSetError(f"{f.label}: |grad f| degenerate at {p.coords()}")
    nu = nu / gn
    Tu, Tv = chart.tangents(u, v)
    t1 = Tu / math.sqrt(float(Tu @ g @ Tu))
    t2 = Tv - float(Tv @ g @ t1) * t1
    t2 = t2 / math.sqrt(float(t2 @ g @ t2))
    return p, g, nu, gn, t1, t2


def reference_zero_set_laws(f: PotentialField, metric: MetricField, chart,
                            samples, deltas, static_tol: float = 1e-6) -> ZeroSetLawReport:
    gns, tang, eig_res, gaps, ks, km2, kp3 = [], [], [], [], [], [], []
    for (u, v), d in zip(samples, deltas):
        p, g, nu, gn, t1, t2 = _adapted_frame(f, metric, chart, u, v)
        require_static(f, metric, p, tol=static_tol)
        ric = curvature_at(metric, p).ricci
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


def reference_surface_christoffel(sig: np.ndarray, d_u: np.ndarray, d_v: np.ndarray) -> np.ndarray:
    dsig = (d_u, d_v)
    inv = np.linalg.inv(sig)
    gam = np.zeros((2, 2, 2))
    for k in range(2):
        for a in range(2):
            for b in range(2):
                acc = 0.0
                for l in range(2):
                    acc += inv[k, l] * (dsig[a][l, b] + dsig[b][l, a] - dsig[l][a, b])
                gam[k, a, b] = 0.5 * acc
    return gam


### Geodesic right-hand side: Christoffels, then the curvature at the same point


def reference_ricci_quadratic(metric: MetricField, x: np.ndarray, v: np.ndarray) -> float:
    bundle = curvature_at(metric, Point3(x[0], x[1], x[2]), check_domain=False)
    return float(v @ bundle.ricci @ v)


def reference_geodesic_rhs(metric: MetricField, with_transport: bool):
    def rhs(t, y):
        x, v = y[0:3], y[3:6]
        gamma = christoffel_at(metric, Point3(x[0], x[1], x[2]), check_domain=False)
        acc = -np.einsum("kij,i,j->k", gamma, v, v)
        if not with_transport:
            return np.concatenate([v, acc])
        h = reference_ricci_quadratic(metric, x, v)
        return np.concatenate([v, acc, [y[7], h * y[6]]])

    return rhs
