"""Per-point cost of the metric-component jet layer, ``geometry._metric_taylor``,
and of the geodesic and gradient-flow stages built on single-point jets.

    python3 tools/layer_bench.py [--repeat 7]

Prints, for ``schwarzschild(1)`` and the two-term ``perturbed_as`` of
``perfbench/workloads.py``, the microseconds per point of one
``_metric_taylor`` call (seeding, component evaluation and read-out) at jet
depths 1, 2 and 3: once point by point, as an ODE stage calls it, over 200
points whose coordinates are numpy scalars of a state row, and once for a
batch of 1,000 points in one call. A second table gives the microseconds per
call of the transported geodesic's right-hand side,
``geodesics._rhs(metric, True)``, on 8-entry state rows at the same 200
points. A third table gives the microseconds per call of the gradient flow's
right-hand side, ``global_checks._flow_rhs``, at the same 200 points, for
the Schwarzschild potential on ``schwarzschild(1)`` and for the sink control
-(x1^2 + x2^2 + x3^2) on the flat metric, the flows of the ``flow_classify``
suite. A fourth table gives the microseconds per call of the metric's
positive-definiteness check, ``geometry._check_positive``, on the two metrics:
on one metric matrix, over the same 200 points, and on the batch of 1,000
matrices in one call. Points lie at r in [3, 6]. A fifth table gives the
microseconds per call of the zero-set curvatures: ``gaussian_curvature`` on
200 points of the horizon of ``schwarzschild(2)`` (one call),
``zero_set_laws`` on 3 horizon samples, and one 128-angle ``circle_turning``
at radius 100 on the graph of the ``zero_set_gauss_bonnet`` suite's default
config. A sixth table gives the microseconds per lockstep iteration (one
attempted step of the lanes still running, as ``ode.solve_ivp`` counts them)
of ``solve_curve_ode`` on the ``growth_bound`` suite's envelope problem,
u'' = s eps / t^2 u from u = u' = 1 at t = 1 to 1e4 with eps = 0.5 and one
scale s in [-1, 1] per lane, at 1, 6, 21 and 40 lanes: with the suite's 400
geometric ``t_eval`` points, and without ``t_eval``. It is the per-lane cost
of the solver's bookkeeping that a batch of transport equations pays. A
seventh table gives the microseconds per call of ``sphere_rule(32, 64)``, the
default rule, of ``sphere_rule(6, 12)`` and of ``radial_panels(2, 40, 18, 8)``:
cold, with the caches of ``quadrature.gauss_legendre`` and ``sphere_rule``
emptied before each call, and served from those caches. ``radial_panels`` is
not cached itself; only its Gauss-Legendre table is. Each
figure is the best of
``--repeat`` timed rounds, so it shows the layer's cost, not the host's noise. The library
is imported from ``src/`` of this checkout.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench.workloads import PERTURBATION  # noqa: E402
from staticpot import (cli, geodesics, geometry, global_checks, ode, potentials,  # noqa: E402
                       quadrature, zeroset)

N_SINGLE, N_BATCH = 200, 1000


def _points(n):
    rng = np.random.default_rng(3)
    d = rng.normal(size=(n, 3))
    return d / np.linalg.norm(d, axis=1)[:, None] * rng.uniform(3.0, 6.0, (n, 1))


def _best(fn, repeat):
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    metrics = {"schwarzschild(1)": geometry.schwarzschild(1.0),
               "perturbed_as(2 terms)": geometry.perturbed_as(1.0, PERTURBATION)}
    rows = list(_points(N_SINGLE))
    batch = tuple(_points(N_BATCH).T.copy())
    print(f"{'metric':<24}{'depth':>6}{'single us/pt':>15}{'batch-1000 us/pt':>19}")
    for name, metric in metrics.items():
        for depth in (1, 2, 3):
            def single():
                for y in rows:
                    geometry._metric_taylor(metric, (y[0], y[1], y[2]), depth)

            def batched():
                geometry._metric_taylor(metric, batch, depth)

            one = _best(single, args.repeat) / N_SINGLE * 1e6
            many = _best(batched, args.repeat) / N_BATCH * 1e6
            print(f"{name:<24}{depth:>6}{one:>15.2f}{many:>19.3f}")
    rng = np.random.default_rng(5)
    states = [np.concatenate([x, rng.normal(size=3), rng.normal(size=2)]) for x in rows]
    print(f"\n{'metric':<24}{'transport stage us':>21}")
    for name, metric in metrics.items():
        rhs = geodesics._rhs(metric, True)

        def stages():
            for y in states:
                rhs(0.0, y)

        print(f"{name:<24}{_best(stages, args.repeat) / N_SINGLE * 1e6:>21.2f}")
    flows = {"schwarzschild(1)": (metrics["schwarzschild(1)"],
                                  potentials.schwarzschild_potential(1.0)),
             "euclidean sink": (geometry.euclidean(), potentials.expression_potential(
                 "-(x1*x1 + x2*x2 + x3*x3)", label="sink control"))}
    print(f"\n{'metric':<24}{'flow stage us':>21}")
    for name, (metric, f) in flows.items():
        rhs = global_checks._flow_rhs(metric, f)

        def stages():
            for y in rows:
                rhs(0.0, y)

        print(f"{name:<24}{_best(stages, args.repeat) / N_SINGLE * 1e6:>21.2f}")
    nodes = geometry.Point3(*batch)
    print(f"\n{'metric':<24}{'check single us':>21}{'check batch-1000 us':>21}")
    for name, metric in metrics.items():
        mats = [(metric.matrix(p), p) for p in (geometry.Point3(*y) for y in rows)]
        g_batch = metric.matrix(nodes)

        def single():
            for g, p in mats:
                geometry._check_positive(g, metric.label, p)

        def batched():
            geometry._check_positive(g_batch, metric.label, nodes)

        one = _best(single, args.repeat) / N_SINGLE * 1e6
        print(f"{name:<24}{one:>21.2f}{_best(batched, args.repeat) * 1e6:>21.1f}")
    _zero_set_table(args.repeat)
    _curve_batch_table(args.repeat)
    _rule_table(args.repeat)
    return 0


def _zero_set_table(repeat):
    g = geometry.schwarzschild(2.0, exterior_only=False)
    f = potentials.schwarzschild_potential(2.0)
    horizon = zeroset.extract_closed_component(f, g, (0.0, 0.0, 0.0), s_bracket=(0.5, 1.6))
    rng = np.random.default_rng(5)
    th, ph = rng.uniform(0.3, 2.8, N_SINGLE), rng.uniform(0.0, 2.0 * np.pi, N_SINGLE)
    samples = [(0.8, 1.0), (1.5, 2.0), (2.0, 4.0)]
    graph = zeroset.extract_zero_graph(
        potentials.expression_potential(cli._GRAPH_EXPR), geometry.schwarzschild(2.0),
        zeroset.AnnulusRegion(30.0, 500.0), (-8.0, 0.0), n_u=4, n_v=8)
    calls = {
        f"gaussian_curvature, {N_SINGLE} pts":
            lambda: zeroset.gaussian_curvature(horizon.chart, th, ph),
        "zero_set_laws, 3 samples":
            lambda: zeroset.zero_set_laws(f, g, horizon.chart, samples),
        "circle_turning, 128 angles": lambda: zeroset.circle_turning(graph, 100.0, 128),
    }
    print(f"\n{'zero-set call':<32}{'us per call':>13}")
    for name, call in calls.items():
        print(f"{name:<32}{_best(call, repeat) * 1e6:>13.0f}")


def _iterations(solve):
    """Lockstep iterations of the solves ``solve()`` makes: one stage store each."""
    count = [0]
    store = ode._stage_store

    def counted(k, n):
        count[0] += 1
        return store(k, n)

    ode._stage_store = counted
    try:
        solve()
    finally:
        ode._stage_store = store
    return count[0]


def _curve_batch_table(repeat):
    eps, t0, t1 = 0.5, 1.0, 1e4
    ts = np.geomspace(t0, t1, 400)
    scales = np.random.default_rng(7).uniform(-1.0, 1.0, 40)
    print(f"\n{'curve lanes':<12}{'steps':>7}{'t_eval us/step':>16}{'steps':>7}"
          f"{'no t_eval us/step':>19}")
    for lanes in (1, 6, 21, 40):
        def solve(t_eval):
            return lambda: geodesics.solve_curve_ode(
                lambda t, k: scales[k] * eps / (t * t), np.ones(lanes), np.ones(lanes),
                t0, t1, t_eval=t_eval)

        row = f"{lanes:<12}"
        for t_eval, width in ((ts, 16), (None, 19)):
            steps = _iterations(solve(t_eval))
            row += f"{steps:>7}{_best(solve(t_eval), repeat) / steps * 1e6:>{width}.1f}"
        print(row)


def _rule_table(repeat, n_cold=20, n_cached=2000):
    calls = {"sphere_rule(32, 64)": lambda: quadrature.sphere_rule(32, 64),
             "sphere_rule(6, 12)": lambda: quadrature.sphere_rule(6, 12),
             "radial_panels(2, 40, 18, 8)": lambda: quadrature.radial_panels(2.0, 40.0, 18, 8)}

    def cold(call):
        for _ in range(n_cold):
            quadrature.gauss_legendre.cache_clear()
            quadrature._sphere_rule.cache_clear()
            call()

    def cached(call):
        for _ in range(n_cached):
            call()

    print(f"\n{'quadrature rule':<32}{'cold us':>11}{'cached us':>11}")
    for name, call in calls.items():
        one = _best(lambda: cold(call), repeat) / n_cold * 1e6
        call()
        many = _best(lambda: cached(call), repeat) / n_cached * 1e6
        print(f"{name:<32}{one:>11.1f}{many:>11.2f}")


if __name__ == "__main__":
    sys.exit(main())
