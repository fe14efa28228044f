"""Digest of every suite's reports: one sha256 line per report.json and CSV.

    python3 tools/report_digest.py

Runs all verification suites at seeds 0, 1 and 2 into a temporary directory,
with the library imported from ``src/`` of this checkout, and prints
``<sha256>  seed<k>/<suite>/<file>`` for each ``report.json`` and CSV, sorted
by path. ``timing.json`` holds wall-clock times and is skipped. Two checkouts
whose outputs are byte-identical print the same lines, so comparing the output
of a change with that of its parent shows whether any reported number moved.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

# pin BLAS to one thread before numpy loads, so reductions run in one order
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from staticpot.cli import SUITES, run_suite  # noqa: E402

SEEDS = (0, 1, 2)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for seed in SEEDS:
            for suite in sorted(SUITES):
                with contextlib.redirect_stdout(io.StringIO()):
                    run_suite(suite, {}, os.path.join(tmp, f"seed{seed}", suite), seed=seed)
        lines = []
        for root, _, files in os.walk(tmp):
            for name in files:
                if name == "report.json" or name.endswith(".csv"):
                    path = os.path.join(root, name)
                    with open(path, "rb") as fh:
                        digest = hashlib.sha256(fh.read()).hexdigest()
                    lines.append((os.path.relpath(path, tmp), digest))
    for rel, digest in sorted(lines):
        print(f"{digest}  {rel}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
