"""The traffic tool's reading of a traced module: which statements never ran.

``tools/traffic.py`` is loaded from its file, as a script outside the package;
its ``tally`` is fed a small module and the lines a trace of one call saw.
"""

import ast
import importlib.util
import sys
import textwrap
from pathlib import Path

TRAFFIC = Path(__file__).resolve().parents[1] / "tools" / "traffic.py"

SOURCE = textwrap.dedent('''\
    import math


    def used(x):
        if x > 0:
            return x
        raise ValueError(
            "negative")


    def unused(x):
        """A function's docstring has no bytecode of its own."""
        y = x + 1
        return y
    ''')


def _load_traffic():
    spec = importlib.util.spec_from_file_location("traffic", TRAFFIC)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _trace(code, call):
    """The lines of ``code``'s file that run while ``call`` runs."""
    hits = set()

    def tracer(frame, event, arg):
        if frame.f_code.co_filename == code.co_filename:
            hits.add(frame.f_lineno)
            return tracer
        return None

    before = sys.gettrace()
    sys.settrace(tracer)
    try:
        call()
    finally:
        sys.settrace(before)
    return hits


def test_tally_reports_an_unreached_branch_and_a_body_that_never_runs():
    traffic = _load_traffic()
    code = compile(SOURCE, "<traffic-sample>", "exec")
    namespace = {}
    hits = _trace(code, lambda: (exec(code, namespace), namespace["used"](2.0)))
    reports = []
    total, ran = traffic.tally(ast.parse(SOURCE).body, traffic._code_lines(code), hits, reports)
    # the import, the two defs, the if, both returns, the raise and the assignment
    assert (total, ran) == (8, 5)
    assert reports == [(7, ""), (11, "[body never runs: 2 statements]")]
