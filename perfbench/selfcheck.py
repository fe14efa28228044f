"""Self-tests of the benchmark's own machinery.

    python3 perfbench/selfcheck.py

Checks the self-time arithmetic on synthetic nested spans, that the per-layer
metric names match BENCHMARK.json, that a traced shell_quadrature pass counts
exactly the radial_panels x sphere_rule quadrature nodes and reproduces the
untraced output, and that uninstalling the tracer restores every patched
attribute, also after tracing the shipped integral_identities suite (about a
minute), whose 54,432 volume + 976 flux nodes it checks. Exits 0 when every
check passes.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracer  # noqa: E402
import workloads  # noqa: E402
from staticpot import cli, geometry, potentials, zeroset  # noqa: E402

FAILURES = []
OUT = os.path.join(ROOT, ".bench_out", "selfcheck")


def check(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}{': ' + detail if detail else ''}")
    if not ok:
        FAILURES.append(name)


def check_self_times():
    # A covers [0, 10] with children B [1, 4], C [5, 6] and D [7, 9.5];
    # E [2, 3] is a grandchild under B.
    spans = [(4, 1, "E", 2.0, 3.0), (1, 0, "B", 1.0, 4.0), (2, 0, "C", 5.0, 6.0),
             (3, 0, "D", 7.0, 9.5), (0, -1, "A", 0.0, 10.0)]
    got = tracer.self_times(spans)
    want = {0: 3.5, 1: 2.0, 2: 1.0, 3: 2.5, 4: 1.0}
    check("self time on synthetic nested spans", got == want, f"got {got}")

    spans = [(0, -1, "quadrature.volume_integral", 0.0, 4.0),
             (1, 0, "geometry.curvature_at", 0.5, 1.5),
             (2, 0, "geometry.matrix", 1.5, 2.0),
             (3, -1, "geometry.curvature_at", 5.0, 6.0)]
    counts = {"quadrature.volume_integral.nodes": 1, "quadrature.flux_integral.nodes": 0}
    got = tracer.layer_metrics(spans, Counter(counts))
    ok = (got["geometry.curvature_at.calls"] == 2 and got["geometry.curvature_at.self_s"] == 2.0
          and got["quadrature.volume_integral.self_s"] == 2.5
          and got["geometry.metric_evals_per_node"] == 2.0)
    check("layer metrics on synthetic spans", ok, "" if ok else json.dumps(got))


def check_metric_names():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
    check("per-layer metrics match BENCHMARK.json", declared == tracer.LAYER_METRICS)


def _snapshot():
    owners = [m for n, m in sys.modules.items() if n == "staticpot" or n.startswith("staticpot.")]
    owners += [geometry.MetricField, potentials.PotentialField, zeroset.SurfaceChart]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def _traced(run, *args):
    t = tracer.Tracer()
    before = _snapshot()
    t.install()
    try:
        patched = sum(1 for k, v in _snapshot().items() if before.get(k) is not v)
        result = run(*args)
    finally:
        t.uninstall()
    after = _snapshot()
    restored = after.keys() == before.keys() and all(after[k] is v for k, v in before.items())
    return result, t.take(), patched, restored


def check_shell_trace():
    wl = workloads.WORKLOADS["shell_quadrature"]
    inputs = workloads.make_inputs("shell_quadrature", 1)
    plain = wl.run_pass(inputs, OUT, lambda: None)
    traced, layers, patched, restored = _traced(wl.run_pass, inputs, OUT, lambda: None)
    volume, flux = workloads.shell_node_counts(inputs["mass"])
    got = (layers["quadrature.volume_integral.nodes"], layers["quadrature.flux_integral.nodes"])
    check("shell_quadrature traced nodes = radial_panels x sphere_rule", got == (volume, flux),
          f"traced {got}, expected {(volume, flux)}")
    check("shell_quadrature metric evaluations per node",
          layers["geometry.metric_evals_per_node"] > 0, str(layers["geometry.metric_evals_per_node"]))
    check("traced pass reproduces the untraced output",
          traced.fingerprint == plain.fingerprint and traced.failed == plain.failed == 0)
    check("tracer patched the library while installed", patched >= 20, f"{patched} attributes")
    check("tracer removed every wrapper", restored)


def check_default_config():
    defaults = cli.SUITES["integral_identities"][0]
    npol, naz = int(defaults["n_polar"]), int(defaults["n_azimuth"])
    shell = (float(defaults["r_inner"]), float(defaults["r_outer"]), (npol, naz),
             int(defaults["n_panels"]), int(defaults["nodes_per_panel"]))
    # the refinement guard and the capacity balance of cli._suite_integral_identities
    refine = [(float(defaults["r_inner"]), 10.0, rule, 8, 6) for rule in ((6, 12), (12, 24))]
    expected = workloads.shell_node_counts(
        float(defaults["mass"]), balances=[shell] + refine, capacity=(60.0, (6, 12), 26, 10))
    check("default config node formula", expected == (54432, 976), str(expected))
    report, layers, _, restored = _traced(cli.run_suite, "integral_identities", {},
                                          os.path.join(OUT, "default"), 0)
    got = (layers["quadrature.volume_integral.nodes"], layers["quadrature.flux_integral.nodes"])
    check("default integral_identities traced nodes", got == expected and report["passed"],
          f"traced {got}, expected {expected}")
    print(f"default config: metric_evals_per_node {layers['geometry.metric_evals_per_node']}, "
          f"curvature_at self {layers['geometry.curvature_at.self_s']:.2f} s")
    check("tracer removed every wrapper after the suite", restored)


def main():
    os.makedirs(OUT, exist_ok=True)
    try:
        check_self_times()
        check_metric_names()
        check_shell_trace()
        check_default_config()
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
