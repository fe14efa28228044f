"""Start-up cost: importing staticpot loads no scipy.

scipy is needed only by the ODE drivers (``solve_ivp``), which import it at
their first call; the zero-set root solver is a numpy port of Brent's method.
Each check runs in a fresh interpreter, since the test process itself has scipy
loaded.
"""

import json
import os
import subprocess
import sys

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# suites that use no ODE driver
SCIPY_FREE_SUITES = ["euclidean_affine", "schwarzschild_static", "tod_identities",
                     "conformal_double", "huisken_yau", "mass_fit",
                     "zero_set_gauss_bonnet", "anisotropy_limit"]


def _run(code):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_import_loads_no_scipy():
    loaded = _run("import json, sys\n"
                  "import staticpot, staticpot.cli\n"
                  "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    assert loaded == []


def test_pointwise_suites_run_without_scipy(tmp_path):
    result = _run("import json, os, sys\n"
                  "from staticpot import cli\n"
                  f"passed = {{s: cli.run_suite(s, {{}}, os.path.join({str(tmp_path)!r}, s))['passed']\n"
                  f"          for s in {SCIPY_FREE_SUITES!r}}}\n"
                  "print(json.dumps([passed, 'scipy' in sys.modules]))")
    passed, scipy_loaded = result
    assert passed == {s: True for s in SCIPY_FREE_SUITES}
    assert not scipy_loaded


@pytest.mark.parametrize("call", [
    "staticpot.solve_curve_ode(lambda t: 0.0, 1.0, 0.0, 0.0, 1.0)",
], ids=["solve_ivp"])
def test_solvers_load_scipy_at_first_call(call):
    before, after = _run("import json, sys\n"
                         "import staticpot, staticpot.zeroset\n"
                         "before = 'scipy' in sys.modules\n"
                         f"{call}\n"
                         "print(json.dumps([before, 'scipy' in sys.modules]))")
    assert (before, after) == (False, True)
