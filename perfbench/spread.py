"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py [--seeds 1-10] [--traced-seed N] [--out FILE]

For each workload of BENCHMARK.json and each seed this runs
``perfbench/run.py --trace 0`` for its ``run_seconds`` and collects the
end-to-end metrics; it prints the median, the quartiles and the quartile
spread (q3 - q1) / median of each, and the bound from BENCHMARK.json that the
spread must stay under. ``--traced-seed`` adds one traced run per
workload. ``--out`` writes every run, the summary and the machine (CPU count,
Python, numpy, scipy) as JSON; perfbench/baseline.json was written this way.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _machine():
    import numpy
    import scipy

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": model, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def summarize(values, bound):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "bound": bound}


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    report = {"machine": _machine(), "seconds": seconds, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = {}
        for seed in _seeds(args.seeds):
            result = _run(workload, seed, seconds, 0)
            runs[seed] = result
            values = ", ".join(f"{k} {v['value']:.6g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed}: correct {result['correct']}, fail_ratio "
                  f"{result['failed'] / result['attempted']:g} ({result['failed']} of "
                  f"{result['attempted']}), {values}", flush=True)
        entry = {"runs": runs, "summary": {}}
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs.values()]
            s = entry["summary"][name] = summarize(values, bound)
            print(f"  {name:<12} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}"
                  f"  spread {s['spread']:.4f}  (bound {bound}, target < {bound / 3:.4f})",
                  flush=True)
        if args.traced_seed is not None:
            entry["traced"] = _run(workload, args.traced_seed, seconds, 1)
        report["workloads"][workload] = entry
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
