"""Fingerprint of one perfbench pass per workload and seed.

    python3 tools/pass_fingerprints.py [--seeds 7,11,23,31]

For each workload of ``perfbench/workloads.py`` and each seed, builds the
seeded inputs, runs one pass into a temporary directory and prints
``<sha256 of the pass fingerprint>  failed=<n>  <workload> seed<k>``. The
fingerprint is what the benchmark compares between passes: the suites'
``report.json`` bytes, the shell quadrature's results, or the geodesic
trajectories. Two checkouts whose passes produce the same bytes print the
same lines, so comparing the output of a change with that of its parent shows
whether any workload's output moved. The library is imported from ``src/`` of
this checkout; nothing under ``perfbench/`` is changed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile

# pin BLAS to one thread before numpy loads, as the benchmark's workers do
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench import workloads  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="7,11,23,31",
                        help="comma-separated benchmark seeds")
    args = parser.parse_args(argv)
    seeds = [int(s) for s in args.seeds.split(",")]
    with tempfile.TemporaryDirectory() as tmp:
        for name, workload in workloads.WORKLOADS.items():
            for seed in seeds:
                inputs = workloads.make_inputs(name, seed)
                out = os.path.join(tmp, f"{name}-seed{seed}")
                os.makedirs(out)
                with contextlib.redirect_stdout(io.StringIO()):
                    res = workload.run_pass(inputs, out, lambda: None)
                digest = hashlib.sha256(res.fingerprint).hexdigest()
                print(f"{digest}  failed={res.failed}  {name} seed{seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
