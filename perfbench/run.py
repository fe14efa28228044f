"""staticpot benchmark: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The library is imported from ``src/`` of this
checkout. Each workload runs in fresh worker processes: one process, BLAS
threads pinned to 1, no ``--parallel``. With ``--trace 0`` the end-to-end
metrics are printed (set-up time, seconds per pass, work per second, peak
memory, failure ratio); with ``--trace 1`` a separate traced run prints the
per-layer metrics. Every output is checked. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Workloads and metrics are described in perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from hostspeed import NOMINAL_S

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("shell_quadrature", "pointwise_dense", "zeroset_flow", "geodesic_transport")
SETUP_REPEATS = 7   # timed fresh interpreters per run, after one untimed warm-up
RUN_BUDGET_S = 170  # every run must end within 180 s


def _child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def _worker(mode, args, out_dir, timeout):
    """Run worker.py to completion; return its JSON result (None in setup mode)."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--budget", str(max(1.0, timeout - 10.0)),
           "--out", out_dir]
    proc = subprocess.run(cmd, cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    if mode == "setup":
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tail(samples):
    """Highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) >= 10 * 100:
            return f"p{p} {statistics.quantiles(samples, n=100)[p - 1]:.6g}"
    return f"no tail percentile: {n} samples, need 20"


def _timing_note(samples, what):
    return f"{len(samples)} {what}; median {statistics.median(samples):.6g}, {_tail(samples)}"


def _end_to_end(args, out_dir, deadline):
    _worker("setup", args, out_dir, deadline - time.monotonic())  # fills bytecode caches
    # raw seconds: a few host speed probes beside a 1 s set-up scatter more
    # than the set-up itself, so scaling it would only add noise
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        _worker("setup", args, out_dir, deadline - time.monotonic())
        setups.append(time.perf_counter() - start)
    res = _worker("run", args, out_dir, deadline - time.monotonic())
    run_speed = NOMINAL_S / statistics.mean(res["probes"])
    # seconds per pass at the host's nominal speed (hostspeed.py), as the mean
    # over the window: the host's speed drifts between levels for seconds at a
    # time, and a median of a few passes would jump between them
    raw_wall = statistics.mean(res["walls"])
    wall = raw_wall * run_speed
    rows = [
        ("setup_s", statistics.median(setups), "s",
         _timing_note(setups, "fresh interpreters (import staticpot + seeded inputs)")),
        ("wall_s", wall, "s", f"raw mean {raw_wall:.6g} s x host speed {run_speed:.4f}; "
         + _timing_note(res["walls"], "untraced passes")),
        ("work_per_s", res["units"] / wall, "1/s",
         f"{res['units']} {res['unit']} per pass / wall_s"),
        ("peak_rss_mb", res["peak_rss_kb"] / 1024.0, "MB", "peak resident memory of the worker"),
    ]
    return res, rows


def _per_layer(args, out_dir, deadline):
    res = _worker("trace", args, out_dir, deadline - time.monotonic())
    sys.path.insert(0, HERE)
    from tracer import LAYER_METRICS

    return res, [(name, res["layers"][name], unit, "") for name, unit, _ in LAYER_METRICS]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    if not os.path.isfile(os.path.join(ROOT, "src", "staticpot", "__init__.py")):
        print(f"no library sources under {os.path.join(ROOT, 'src')}; run from a "
              "staticpot checkout", file=sys.stderr)
        return 2

    out_dir = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    try:
        res, rows = (_per_layer if args.trace else _end_to_end)(args, out_dir, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(out_dir, "suites"), ignore_errors=True)

    mode = "traced per-layer run" if args.trace else "untraced end-to-end run"
    print(f"workload {args.workload}, seed {args.seed}, {mode}, {args.seconds} s measured, "
          f"1 process, BLAS threads 1")
    for name, value, unit, note in rows:
        print(f"  {name:<48} {value:>14.6g} {unit:<6} {note}")
    fail_ratio = res["failed"] / res["attempted"]
    print(f"  {'fail_ratio':<48} {fail_ratio:>14.6g} {'ratio':<6} "
          f"{res['failed']} failed of {res['attempted']} operations")
    if args.trace:
        print(f"  {len(res['traced_walls'])} traced passes; spans in "
              f"{os.path.relpath(res['spans'], ROOT)}")
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows}
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
