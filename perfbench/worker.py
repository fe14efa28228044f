"""One workload in one fresh process; started by run.py, not by hand.

Modes:
  setup  import staticpot, generate the seeded inputs, exit (run.py times it);
  run    one warm-up pass, then untraced passes until --seconds have been
         measured; reports pass times, host speed probes, work units and
         peak memory;
  trace  as run for half of --seconds, then traced passes for the other
         half; reports per-layer metrics and writes the spans to --out.

Every pass is checked: the workload's own checks, and a fingerprint of all
its output that must match the warm-up pass byte for byte. The result is one
JSON object on the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time


def _timed_passes(workload, inputs, out_dir, seconds, deadline, probes, after_pass):
    """Run passes until ``seconds`` are measured; at least one, none past deadline.

    Probe time is left out of each pass; ``after_pass(result)`` runs outside
    the timed region.
    """
    walls, cpus = [], []
    while not walls or sum(walls) < seconds:
        if walls and time.monotonic() + max(walls) > deadline:
            break
        mark = len(probes.times)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        result = workload.run_pass(inputs, out_dir, probes)
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        walls.append(wall - probes.spent(mark))
        cpus.append(cpu - probes.spent(mark))
        after_pass(result)
    return walls, cpus


def _account(result, reference, totals):
    totals["attempted"] += result.attempted + 1
    totals["failed"] += result.failed
    totals["problems"].extend(result.problems)
    if result.fingerprint != reference:
        totals["failed"] += 1
        totals["problems"].append("output differs from the first pass with the same seed")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--budget", type=float, default=150.0,
                        help="start no pass that would end after this many seconds")
    parser.add_argument("--out", required=True, help="directory for outputs and spans")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + args.budget

    import workloads  # imports staticpot
    from hostspeed import Probes

    workload = workloads.WORKLOADS[args.workload]
    inputs = workloads.make_inputs(args.workload, args.seed)
    if args.mode == "setup":
        return 0

    suite_dir = os.path.join(args.out, "suites")
    os.makedirs(suite_dir, exist_ok=True)
    probes = Probes()
    first = workload.run_pass(inputs, suite_dir, probes)  # warm-up, and the reference output
    totals = {"attempted": first.attempted, "failed": first.failed,
              "problems": list(first.problems)}
    seconds = args.seconds if args.mode == "run" else args.seconds / 2.0

    def account(result):
        _account(result, first.fingerprint, totals)

    probes.times.clear()
    walls, cpus = _timed_passes(workload, inputs, suite_dir, seconds, deadline, probes, account)
    out = {"units": first.units, "unit": workload.unit, "walls": walls, "cpus": cpus,
           "probes": list(probes.times)}

    if args.mode == "run":
        out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        from tracer import Tracer, median_metrics

        tracer = Tracer()
        per_pass = []

        def take(result):
            per_pass.append(tracer.take())
            account(result)

        tracer.install()
        try:
            traced_walls, _ = _timed_passes(workload, inputs, suite_dir, seconds,
                                            deadline, probes, take)
        finally:
            tracer.uninstall()
        spans_path = os.path.join(args.out, "spans.jsonl")
        tracer.write(spans_path)
        layers = median_metrics(per_pass)
        layers["process.cpu_s"] = statistics.mean(cpus)
        layers["tracing.overhead_s"] = (statistics.mean(traced_walls)
                                        - statistics.mean(walls))
        out.update(layers=layers, traced_walls=traced_walls, spans=spans_path)

    out.update(attempted=totals["attempted"], failed=totals["failed"])
    for problem in totals["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
