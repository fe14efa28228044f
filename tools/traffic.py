"""Statements of ``src/staticpot`` that no shipped traffic executes.

    python3 tools/traffic.py

Traces, with ``sys.settrace``, every line of ``src/staticpot`` that runs while
this checkout's shipped traffic runs, from the first import of the library on:

- the 11 verification suites at their defaults, seed 0;
- one pass of each ``perfbench`` workload at seed 7, built as
  ``tools/pass_fingerprints.py`` builds it (nothing under ``perfbench/`` is
  changed);
- the ``dump-curvature`` runs of ``tools/report_digest.py``.

Then it prints, for each module, ``<module>: <k> of <n> statements never run``
and one line per statement that never ran, ``<path>:<line>  <source>``. A
statement that never ran is printed once, with the count of statements it
holds; a ``def`` that ran but whose body never did is printed as
``<def line>  [body never runs: <k> statements]``. A statement is a node of
the module's syntax tree that compiles to bytecode, so a function's
docstring and ``pass`` are not counted, and it has run when any line of its own (its header
for a compound statement) has. Error branches that no default config reaches
are listed too: the output answers "does anything shipped run this?", not
"is this dead?".
"""

from __future__ import annotations

import ast
import contextlib
import importlib
import io
import os
import sys
import tempfile
import threading

# pin BLAS to one thread before numpy loads, as the benchmark's workers do
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
ROOT = os.path.realpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
PACKAGE = os.path.join(ROOT, "src", "staticpot")
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "tools"))
sys.path.insert(0, ROOT)

WORKLOAD_SEED = 7


class LineTrace:
    """The (file, line) pairs of ``PACKAGE`` that run while it is installed."""

    def __init__(self):
        self.hits = {}     # real path -> set of line numbers
        self._mine = {}    # co_filename -> real path under PACKAGE, or None

    def _local(self, frame, event, arg):
        if event == "line":
            self.hits[self._mine[frame.f_code.co_filename]].add(frame.f_lineno)
        return self._local

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        path = self._mine.get(name, 0)
        if path == 0:
            real = os.path.realpath(name)
            path = self._mine[name] = real if os.path.dirname(real) == PACKAGE else None
        if path is None:
            return None
        self.hits.setdefault(path, set()).add(frame.f_lineno)
        return self._local

    @contextlib.contextmanager
    def installed(self):
        sys.settrace(self._global)
        threading.settrace(self._global)
        try:
            yield self
        finally:
            sys.settrace(None)
            threading.settrace(None)


def run_traffic(tmp: str) -> None:
    """The suites, one pass per workload and the ``dump-curvature`` runs."""
    cli = importlib.import_module("staticpot.cli")
    for suite in sorted(cli.SUITES):
        with contextlib.redirect_stdout(io.StringIO()):
            cli.run_suite(suite, {}, os.path.join(tmp, "suites", suite), seed=0)
    workloads = importlib.import_module("perfbench.workloads")
    for name, workload in workloads.WORKLOADS.items():
        out = os.path.join(tmp, "workloads", name)
        os.makedirs(out)
        with contextlib.redirect_stdout(io.StringIO()):
            workload.run_pass(workloads.make_inputs(name, WORKLOAD_SEED), out, lambda: None)
    importlib.import_module("report_digest").dump_curvature_lines(tmp)


def _code_lines(code) -> set:
    """Lines that carry bytecode in ``code`` and every code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _blocks(node) -> list:
    """The statement lists nested directly in a statement, in source order."""
    out = []
    for name in ("body", "handlers", "orelse", "finalbody"):
        out += getattr(node, name, None) or []
    return out


def _own_lines(node) -> range:
    """The lines a statement answers for: all of a simple one, the header of a compound one."""
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    children = _blocks(node)
    end = children[0].lineno if children else node.end_lineno + 1
    return range(start, max(end, start + 1))


def tally(nodes, executable: set, hit: set, reports: list) -> tuple:
    """``(statements, statements run)`` of a statement list; appends
    ``(line, note)`` to ``reports`` for each outermost statement or body that
    never ran."""
    count = ran = 0
    for node in nodes:
        own = set(_own_lines(node))
        here = 1 if own & executable else 0
        nested = []
        inner, inner_ran = tally(_blocks(node), executable, hit, nested)
        count += here + inner
        # a header without a line event of its own ran if its body did
        if own & hit or inner_ran:
            ran += here + inner_ran
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not inner_ran:
                reports.append((node.lineno, f"[body never runs: {inner} statements]"))
            else:
                reports += nested
        elif here + inner:
            reports.append((node.lineno, f"[{here + inner} statements]" if inner else ""))
    return count, ran


def main() -> int:
    trace = LineTrace()
    with tempfile.TemporaryDirectory() as tmp, trace.installed():
        run_traffic(tmp)
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        reports = []
        total, ran = tally(ast.parse(source).body, _code_lines(compile(source, path, "exec")),
                           trace.hits.get(path, set()), reports)
        rel = os.path.relpath(path, ROOT)
        print(f"{rel}: {total - ran} of {total} statements never run")
        for line, note in reports:
            print(f"  {rel}:{line}  {lines[line - 1].strip()}  {note}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
