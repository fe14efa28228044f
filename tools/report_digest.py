"""Digest of every suite's reports and of ``dump-curvature``: one line per output.

    python3 tools/report_digest.py

Runs all verification suites at seeds 0, 1 and 2 into a temporary directory,
with the library imported from ``src/`` of this checkout, and prints
``<sha256>  seed<k>/<suite>/<file>`` for each ``report.json`` and CSV, sorted
by path. ``timing.json`` holds wall-clock times and is skipped. Then it runs
fixed ``dump-curvature`` invocations through ``cli.main``, with stdout and
stderr captured: the flat and the mass-2 Schwarzschild metric with each
backend at three points, and two points that the Schwarzschild chart refuses.
It prints ``<sha256>  dump-curvature/<metric>-<backend>/curvature.csv`` for
each table and ``exit=<code>  <sha256 of stderr>  dump-curvature/refuse-<point>``
for each refusal.

Two checkouts whose outputs are byte-identical print the same lines, so
comparing the output of a change with that of its parent shows whether any
reported number moved. To compare with a parent whose copy of this file is
older, run this file with the parent's ``src/`` on the path, for instance
from a copy of it placed in the parent's ``tools/``.
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

from staticpot.cli import SUITES, main as cli_main, run_suite  # noqa: E402

SEEDS = (0, 1, 2)
DUMP_POINTS = "3,1,0;4,-2,1;10,5,-7"
DUMP_METRICS = ("euclidean", "schwarzschild:mass=2")
REFUSED_POINTS = ("0.5,0,0", "1e155,0,0")  # inside the horizon; squared radius overflows


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def dump_curvature_lines(tmp: str) -> list:
    """One line per fixed ``dump-curvature`` invocation, its outputs written under ``tmp``."""
    runs = [(f"{m.replace(':', '-')}-{b}", m, DUMP_POINTS, b)
            for m in DUMP_METRICS for b in ("dual", "fd")]
    runs += [(f"refuse-{p}", "schwarzschild:mass=2", p, "dual") for p in REFUSED_POINTS]
    lines = []
    for label, metric, points, backend in runs:
        out = os.path.join(tmp, "dump-curvature", label)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli_main(["dump-curvature", "--metric", metric, "--points", points,
                             "--backend", backend, "--out", out])
        if code == 0:
            with open(os.path.join(out, "curvature.csv"), "rb") as fh:
                lines.append(f"{_sha256(fh.read())}  dump-curvature/{label}/curvature.csv")
        else:
            lines.append(f"exit={code}  {_sha256(err.getvalue().encode())}  "
                         f"dump-curvature/{label}")
    return lines


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
                        lines.append((os.path.relpath(path, tmp), _sha256(fh.read())))
        for rel, digest in sorted(lines):
            print(f"{digest}  {rel}")
        for line in dump_curvature_lines(tmp):
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
