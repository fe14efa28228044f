"""Differential tests: the batched surface chart against the per-line one.

The reference (``reference_pointwise``) solves one line per call with the
sample-by-sample scan and ``scipy.optimize.brentq``, and builds tangents,
sigma, curvature stencils and turning integrals one point at a time. The
batched chart solves every line of a stencil set in one array pass with the
lane-wise Brent port ``zeroset.brentq``; it must agree with the reference to
roundoff, fail with the reference's error of its first failing line, and the
port must reproduce scipy's iterates bit for bit.
"""

import math

import numpy as np
import pytest
from scipy.optimize import brentq as scipy_brentq

import staticpot as sp
from staticpot import zeroset

from .reference_pointwise import (reference_circle_turning, reference_gaussian_curvature,
                                  reference_height_slopes, reference_point_at, reference_root,
                                  reference_sigma_at, reference_tangents)
from .test_zeroset import warped_chart


def _suite_graph():
    # the zero_set_gauss_bonnet suite's graph at its default config
    f = sp.expression_potential("x1 + 0.5*ln(x2^2 + x3^2)", label="log graph")
    return sp.extract_zero_graph(f, sp.schwarzschild(2.0), sp.AnnulusRegion(30.0, 500.0),
                                 n_u=4, n_v=8, bracket=lambda u, v: (-8.0, 0.0))


def _log_graph():
    rng = np.random.default_rng(3)
    rho, ang = rng.uniform(40.0, 400.0, 12), rng.uniform(0.0, 2.0 * np.pi, 12)
    return _suite_graph().chart, np.stack([rho * np.cos(ang), rho * np.sin(ang)], axis=-1), 0.5


def _warped_strip():
    _, _, chart = warped_chart()
    rng = np.random.default_rng(4)
    return chart, np.stack([rng.uniform(1.0, 3.0, 12), rng.uniform(-3.0, 3.0, 12)], axis=-1), 0.02


def _horizon():
    comp = sp.extract_closed_component(sp.schwarzschild_potential(2.0),
                                       sp.schwarzschild(2.0, exterior_only=False),
                                       (0.0, 0.0, 0.0), s_bracket=(0.5, 1.6), n_theta=4, n_phi=8)
    rng = np.random.default_rng(5)
    return comp.chart, np.stack([rng.uniform(0.3, 2.8, 12), rng.uniform(0.0, 6.2, 12)], axis=-1), 0.02


CHARTS = [_log_graph, _warped_strip, _horizon]


def _close(a, b, rel=1e-14):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    scale = float(np.abs(b).max())
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= rel * scale))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # every failure mode must match, whatever it is
        return (type(exc), str(exc))


### Lane-wise Brent against scipy


def _cubic_lanes(n, seed):
    """Seeded monotone cubics with one bracketed root each, some nearly flat there."""
    rng = np.random.default_rng(seed)
    root = rng.uniform(-3.0, 3.0, n)
    slope = 10.0 ** rng.uniform(-8.0, 1.0, n)
    scale = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3.0, 3.0, n)
    a = root - rng.uniform(0.01, 4.0, n)
    b = root + rng.uniform(0.01, 4.0, n)
    flip = rng.random(n) < 0.5  # brackets given either way round
    a, b = np.where(flip, b, a), np.where(flip, a, b)

    def lane(k, x):
        t = x - root[k]
        return scale[k] * t * (t * t + slope[k])

    return a, b, lane


@pytest.mark.parametrize("kwargs", [{}, {"xtol": 1e-13, "rtol": 8.9e-16, "maxiter": 200},
                                    {"xtol": 1e-4, "rtol": 1e-10}])
def test_brentq_matches_scipy_bit_for_bit(kwargs):
    a, b, lane = _cubic_lanes(400, seed=17)
    calls = np.zeros(a.size, dtype=int)

    def f(x, lanes):
        np.add.at(calls, lanes, 1)
        return np.array([lane(k, t) for k, t in zip(lanes.tolist(), x.tolist())])

    got = zeroset.brentq(f, a, b, **kwargs)
    for k in range(a.size):
        want, info = scipy_brentq(lambda x: lane(k, x), a[k], b[k], full_output=True, **kwargs)
        assert got[k].tobytes() == np.float64(want).tobytes(), k
        assert calls[k] == info.function_calls, k  # a converged lane is never evaluated again


def test_brentq_takes_a_root_on_a_bracket_end():
    got = zeroset.brentq(lambda x, lanes: x * (x - 1.0), [0.0, -0.5, 0.5], [0.5, 0.0, 1.0])
    assert got.tolist() == [0.0, 0.0, 1.0]


def test_brentq_rejects_a_bracket_without_sign_change():
    with pytest.raises(ValueError, match=r"different signs \(bracket 1\)"):
        zeroset.brentq(lambda x, lanes: x * x - 1.0, [0.0, 2.0], [3.0, 4.0])


### Batched chart against the per-line chart


@pytest.mark.parametrize("build", CHARTS)
def test_chart_matches_per_line_reference(build):
    chart, uv, _ = build()
    u, v = uv[:, 0], uv[:, 1]
    assert _close(chart.roots(u, v), [reference_root(chart, a, b) for a, b in uv])
    p = chart.point_at(u, v)
    want = [reference_point_at(chart, a, b).coords() for a, b in uv]
    assert _close(np.stack(p.coords(), axis=-1), want)
    tu, tv = chart.tangents(u, v)
    want = [reference_tangents(chart, a, b) for a, b in uv]
    assert _close(tu, [w[0] for w in want]) and _close(tv, [w[1] for w in want])
    assert _close(chart.height_slopes(u, v), [reference_height_slopes(chart, a, b) for a, b in uv])
    assert _close(chart.sigma_at(u, v), [reference_sigma_at(chart, a, b) for a, b in uv])
    # a batch of one gives the scalar forms
    assert isinstance(chart.root(u[0], v[0]), float)
    assert chart.sigma_at(u[0], v[0]).shape == (2, 2)
    assert isinstance(chart.point_at(u[0], v[0]).x1, float)


@pytest.mark.parametrize("build", [_log_graph, _horizon])
def test_gaussian_curvature_matches_per_point_stencils(build):
    chart, uv, delta = build()
    uv = uv[:4]
    got = zeroset.gaussian_curvature(chart, uv[:, 0], uv[:, 1], delta)
    assert _close(got, [reference_gaussian_curvature(chart, a, b, delta) for a, b in uv])


def test_gaussian_curvature_on_warped_strip_within_stencil_roundoff():
    # the strip's metric and potential take x2 ** (4/3) and x2 ** (2/3): numpy's
    # array power and Python's float power differ in the last bit on some
    # inputs, so sigma agrees to 1e-14 while the second differences of the
    # curvature stencil scale such a last-bit difference by 1/delta^2
    chart, uv, delta = _warped_strip()
    uv = uv[:4]
    got = zeroset.gaussian_curvature(chart, uv[:, 0], uv[:, 1], delta)
    want = np.array([reference_gaussian_curvature(chart, a, b, delta) for a, b in uv])
    sig = max(float(np.abs(reference_sigma_at(chart, a, b)).max()) for a, b in uv)
    assert np.all(np.abs(got - want) <= 64.0 * np.finfo(float).eps * sig / delta ** 2)


def test_circle_turning_matches_per_angle_loop():
    graph = _suite_graph()
    for radius in (50.0, 200.0):
        got = sp.circle_turning(graph, radius, n_angles=16)
        want = reference_circle_turning(graph.chart, radius, 16,
                                        graph.region.stencil_delta(radius, 0.0))
        assert _close(got.turning_integral, want[0])
        assert _close(got.length, want[1])
        assert _close(got.mean_kappa_deviation, want[2])


def test_closed_component_area_and_curvature_match_per_point_loops():
    comp = sp.extract_closed_component(sp.schwarzschild_potential(2.0),
                                       sp.schwarzschild(2.0, exterior_only=False),
                                       (0.0, 0.0, 0.0), s_bracket=(0.5, 1.6), n_theta=4, n_phi=8)
    xi, wxi = np.polynomial.legendre.leggauss(3)
    wph = 2.0 * np.pi / 4
    area = total = 0.0
    for th, wt in zip(0.5 * math.pi * (xi + 1.0), 0.5 * math.pi * wxi):
        d = min(0.02, th / 3.0, (math.pi - th) / 3.0)
        for ph in 2.0 * np.pi * np.arange(4) / 4:
            dA = math.sqrt(float(np.linalg.det(reference_sigma_at(comp.chart, th, ph))))
            area += wt * wph * dA
            total += wt * wph * reference_gaussian_curvature(comp.chart, th, ph, d) * dA
    assert _close(comp.area(3, 4), area)
    assert _close(comp.curvature_integral(3, 4), total)


### A batch fails with its first failing line's error


def _graph_chart(text, bracket=(-1.0, 1.0), param_floor=None):
    return zeroset.SurfaceChart(sp.expression_potential(text), sp.euclidean(),
                                embed=lambda U, V, S: (S, U, V), bracket=lambda u, v: bracket,
                                label=f"graph[{text}]", param_floor=param_floor)


@pytest.mark.parametrize("text,lines,error", [
    ("x1 - x2", [(0.1, 0.0), (0.2, 0.5), (1000.0, 0.0), (2000.0, 1.0)], sp.NoRootError),
    ("(x1 - x2)*(x3 - x1)", [(0.5, 5.0), (0.2, -0.4), (0.3, 6.0), (0.1, -0.3)], sp.MultiRootError),
    ("x2*x1 - 0.1", [(2.0, 0.0), (0.3, 0.0), (1.5, 0.0), (0.2, 0.0)], sp.MonotonicityError),
    ("(x1 + x2)^0.5 - 1", [(8.5, 0.0), (1.0, 0.0), (8.7, 0.0), (2.0, 0.0)], sp.DomainError),
], ids=["no_root", "multi_root", "monotonicity", "domain"])
def test_batch_raises_the_first_failing_line(text, lines, error):
    bracket = (-8.0, 8.0) if error is sp.DomainError else (-1.0, 1.0)
    chart = _graph_chart(text, bracket)
    u, v = np.array(lines).T
    alone = [_outcome(chart.root, a, b) for a, b in lines]  # batches of one
    got = _outcome(chart.roots, u, v)
    if error is not sp.DomainError:  # the float scan reads nan as a sign
        assert alone == [_outcome(reference_root, chart, a, b) for a, b in lines]
    failed = [k for k, out in enumerate(alone) if isinstance(out, tuple)]
    assert len(failed) == 2 and alone[failed[0]][0] is error
    assert got == alone[failed[0]]
    bad = lines[failed[0]]
    assert f"(u, v) = ({bad[0]:g}, {bad[1]:g})" in got[1]


def test_widening_stops_at_param_floor_line_by_line():
    # each line widens its own bracket about its midpoint until it brackets
    # the root, and never scans below the floor
    chart = _graph_chart("x1 - x2", bracket=(1.0, 2.0), param_floor=0.5)
    scans = []
    embed = chart.embed

    def recording(U, V, S):
        if isinstance(S, np.ndarray) and S.ndim == 2:
            scans.extend(zip(np.ravel(U).tolist(), S[:, 0].tolist(), S[:, -1].tolist()))
        return embed(U, V, S)

    chart.embed = recording
    lines = [1.5, 0.7, 3.0, 9.0]
    got = chart.roots(np.array(lines), np.zeros(4))
    assert _close(got, lines)
    for u in lines:
        lo, hi, want = 1.0, 2.0, []
        while not lo <= u <= hi:
            want.append((lo, hi))
            mid, half = 0.5 * (lo + hi), hi - lo
            lo, hi = max(mid - half, 0.5), mid + half
        want.append((lo, hi))
        assert [(a, b) for w, a, b in scans if w == u] == want
    assert min(a for _, a, _ in scans) == 0.5

    chart.embed = embed
    with pytest.raises(sp.NoRootError, match=r"\(u, v\) = \(0.3, 0\)"):
        chart.roots(np.array([1.5, 0.3, 0.2]), np.zeros(3))  # roots below the floor
