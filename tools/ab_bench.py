"""A/B benchmark of two checkouts: alternating perfbench runs, one summary file.

    python3 tools/ab_bench.py --parent DIR --change DIR --seeds 301-310 \\
        [--claim zeroset_flow:wall_s] --out BENCH_<n>.json

For each workload of ``BENCHMARK.json`` and each seed, runs ``python3
perfbench/run.py --workload W --seed S --seconds N``, N being the benchmark's
``run_seconds``, once in the parent checkout and once in the change checkout,
each from its own tree. The order alternates over the pairs: at an
even pair index the parent runs first, at an odd one the change. Each run's
end-to-end metrics are read off the JSON line that ``run.py`` prints last.
Before the first pair, each checkout makes one short run (the first workload
at the first seed, 1 s) that is discarded; the output file does not record
it. With ``PYTHONDONTWRITEBYTECODE=1`` set, no run writes bytecode caches, so
this warm-up compiles nothing for later runs and warms only the OS file
cache: every run's ``setup_s`` includes compiling the library.

The output file holds, per workload and side, the median and inclusive
quartiles of every end-to-end metric that ``BENCHMARK.json`` declares, the
number of pairs in which the change is better (by that metric's direction),
a verdict against the metric's ``BENCHMARK.json`` bound (``verdict``), failed
runs, the largest fail ratio, and every run's values in seed order (null where
a run printed no result). ``--claim`` adds a summary of one
workload's metric. A run that fails (exit code not 0, or an output check that
failed) counts in ``failed_runs``; the statistics are taken over the pairs in
which neither run failed.

Nothing in ``perfbench/`` is imported or changed: it is only run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import numpy

SIDES = ("parent", "change")


def _seeds(text):
    """``"301-310"`` or ``"7,23,31"`` as a list of ints."""
    if "-" in text and "," not in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def _revision(tree):
    proc = subprocess.run(["git", "-C", tree, "rev-parse", "--short", "HEAD"],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else os.path.basename(os.path.abspath(tree))


def _run(tree, workload, seed, seconds):
    """One run.py run in ``tree``: its JSON result, or None when it failed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=tree, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _quartiles(values):
    """Inclusive (q1, median, q3) of the values."""
    if len(values) == 1:
        return values * 3
    return tuple(statistics.quantiles(values, n=4, method="inclusive"))


def _summary(values):
    q1, median, q3 = _quartiles(values)
    return {"median": round(median, 6), "q1": round(q1, 6), "q3": round(q3, 6)}


def _better(better, a, b):
    """Whether value b is better than value a, ``better`` being "lower" or "higher"."""
    return b < a if better == "lower" else b > a


def verdict(parent, change, better, bound):
    """One metric's verdict on the change's runs against the parent's.

    ``worse``: the change's median is worse than the parent's by more than
    ``bound``, relative to the parent's median. ``unresolved``: not worse, but
    the parent's interquartile range exceeds ``bound`` times its median, and
    not every change run beats every parent run. ``ok`` otherwise.
    """
    q1, median, q3 = _quartiles(parent)
    loss = statistics.median(change) - median
    if better == "higher":
        loss = -loss
    if loss > bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median) and not all(_better(better, a, b)
                                                 for a in parent for b in change):
        return "unresolved"
    return "ok"


def _workload(parent, change, workload, seeds, seconds, directions, bounds):
    runs = {m: {side: [] for side in SIDES} for m in directions}
    complete = {m: {side: [] for side in SIDES} for m in directions}
    failed_runs, fail_ratio_max, pairs = 0, 0.0, 0
    for i, seed in enumerate(seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        results = {}
        for side in order:
            tree = parent if side == "parent" else change
            results[side] = res = _run(tree, workload, seed, seconds)
            if res is None or not res["correct"]:
                failed_runs += 1
            if res is not None:
                fail_ratio_max = max(fail_ratio_max, res["failed"] / res["attempted"])
            print(f"{workload} seed {seed} {side}: "
                  + ("failed" if res is None else
                     ", ".join(f"{m} {res['metrics'][m]['value']:.6g}" for m in directions)),
                  flush=True)
        values = {side: None if res is None else
                  {m: round(res["metrics"][m]["value"], 6) for m in directions}
                  for side, res in results.items()}
        for m in directions:
            for side in SIDES:
                runs[m][side].append(None if values[side] is None else values[side][m])
        if any(r is None or not r["correct"] for r in results.values()):
            continue
        pairs += 1
        for m in directions:
            for side in SIDES:
                complete[m][side].append(values[side][m])
    entry = {"seeds": seeds, "pairs": pairs, "failed_runs": failed_runs,
             "fail_ratio_max": fail_ratio_max}
    if pairs:
        entry["change_better_pairs"] = {
            m: sum(_better(directions[m], a, b)
                   for a, b in zip(complete[m]["parent"], complete[m]["change"]))
            for m in directions}
        entry["verdict"] = {m: verdict(complete[m]["parent"], complete[m]["change"],
                                       directions[m], bounds[m])
                            for m in directions}
        for side in SIDES:
            entry[side] = {m: _summary(complete[m][side]) for m in directions}
    entry["runs"] = runs
    return entry


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="checkout of the parent commit")
    parser.add_argument("--change", required=True, help="checkout of the change")
    parser.add_argument("--seeds", required=True, help="e.g. 301-310 or 7,23,31")
    parser.add_argument("--claim", default=None, help="WORKLOAD:METRIC to summarise")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    with open(os.path.join(args.change, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = [w["name"] for w in bench["workloads"]]
    seconds = bench["run_seconds"]
    seeds = _seeds(args.seeds)
    if args.claim:
        claim_workload, claim_metric = args.claim.split(":")
        if claim_workload not in workloads or claim_metric not in directions:
            parser.error(f"--claim {args.claim}: not a benchmarked workload and metric")

    out = {
        "description": (
            "perfbench/run.py end-to-end metrics, parent commit against this change, "
            "alternating pairs (even pair index: parent first; odd: change first), each "
            "side run from its own copy of the tree, one run per side and seed. Quartiles "
            "are inclusive; change_better_pairs counts pairs where the change's value is "
            "better, over the pairs in which neither run failed. verdict judges each metric "
            "against its BENCHMARK.json bound: worse (median worse than the parent's by "
            "more than the bound, relative), unresolved (not worse, but the parent's "
            "interquartile range exceeds the bound times its median and not every change "
            "run beats every parent run) or ok. runs lists each side's "
            "values in seed order, null where a run printed no result. Written by "
            "tools/ab_bench.py."),
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds}",
        "host": (f"{os.cpu_count()} cores, Python {platform.python_version()}, numpy "
                 f"{numpy.__version__}; wall_s is host-speed normalised by perfbench, "
                 "setup_s is raw seconds"),
        "parent": _revision(args.parent),
        "workloads": {},
    }
    for tree in (args.parent, args.change):  # warm-up, discarded
        _run(tree, workloads[0], seeds[0], 1)
    for workload in workloads:
        out["workloads"][workload] = _workload(args.parent, args.change, workload, seeds,
                                               seconds, directions, bounds)
    if args.claim:
        entry = out["workloads"][claim_workload]
        out["claim"] = {"workload": claim_workload, "metric": claim_metric,
                        "pairs": entry["pairs"]}
        if entry["pairs"]:
            parent, change = entry["parent"][claim_metric], entry["change"][claim_metric]
            out["claim"].update(parent_median=parent["median"], change_median=change["median"],
                                parent_q1=parent["q1"], parent_q3=parent["q3"],
                                change_better_pairs=entry["change_better_pairs"][claim_metric])
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(out, fh, indent=1)
        fh.write("\n")
    for workload, entry in out["workloads"].items():
        for m in directions:
            if entry["pairs"]:
                print(f"{workload:<20} {m:<12} parent {entry['parent'][m]['median']:>12.6g} "
                      f"change {entry['change'][m]['median']:>12.6g} "
                      f"better {entry['change_better_pairs'][m]}/{entry['pairs']} "
                      f"{entry['verdict'][m]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
