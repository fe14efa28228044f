"""The benchmark tracer still finds every library name it wraps.

``perfbench/tracer.py`` wraps library functions and methods by name for the
traced benchmark runs. A rename or deletion in the library would break those
runs without failing any library test, so this test installs the tracer, as
``perfbench/selfcheck.py`` does, and checks that it patched the library and
that uninstalling restores every attribute. The tracer module is loaded from
its file and not modified.
"""

import importlib.util
import sys
from pathlib import Path

from staticpot import cli, geometry, potentials, zeroset  # noqa: F401  cli: the tracer wraps run_suite

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot():
    owners = [m for n, m in sys.modules.items() if n == "staticpot" or n.startswith("staticpot.")]
    owners += [geometry.MetricField, potentials.PotentialField, zeroset.SurfaceChart]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_tracer_installs_and_uninstalls_cleanly():
    tracer = _load_tracer().Tracer()
    before = _snapshot()
    tracer.install()
    try:
        patched = sum(1 for k, v in _snapshot().items() if before.get(k) is not v)
    finally:
        tracer.uninstall()
    after = _snapshot()
    assert patched >= 20
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
