"""Start-up cost and run time without scipy: staticpot never loads it.

The ODE drivers run on ``ode.solve_ivp``, a numpy port of scipy's DOP853, and
the zero-set root solver on ``zeroset.brentq``, a numpy port of Brent's method;
scipy is a test-only dependency. Each check runs in a fresh interpreter, since
the test process itself has scipy loaded.
"""

import json
import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SCIPY_FREE_SUITES = ["euclidean_affine", "schwarzschild_static", "tod_identities",
                     "conformal_double", "huisken_yau", "mass_fit",
                     "zero_set_gauss_bonnet", "anisotropy_limit", "growth_bound",
                     "integral_identities", "flow_classify"]


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


def test_import_builds_no_quadrature_rule():
    sizes = _run("import json\n"
                 "import staticpot, staticpot.cli\n"
                 "from staticpot import quadrature\n"
                 "print(json.dumps([quadrature.gauss_legendre.cache_info().currsize,\n"
                 "                  quadrature._sphere_rule.cache_info().currsize]))")
    assert sizes == [0, 0]


def test_suites_run_without_scipy(tmp_path):
    result = _run("import json, os, sys\n"
                  "from staticpot import cli\n"
                  f"passed = {{s: cli.run_suite(s, {{}}, os.path.join({str(tmp_path)!r}, s))['passed']\n"
                  f"          for s in {SCIPY_FREE_SUITES!r}}}\n"
                  "print(json.dumps([passed, 'scipy' in sys.modules]))")
    passed, scipy_loaded = result
    assert passed == {s: True for s in SCIPY_FREE_SUITES}
    assert not scipy_loaded


def test_ode_drivers_load_no_scipy():
    loaded = _run("import json, sys\n"
                  "import staticpot\n"
                  "from staticpot import geometry, global_checks, potentials\n"
                  "staticpot.solve_curve_ode(lambda t, lanes: 0.0, 1.0, 0.0, 0.0, 1.0)\n"
                  "g = geometry.schwarzschild(1.0)\n"
                  "start = staticpot.launch_state(g, (4.0, 0.0, 0.0), (0.0, 1.0, 0.0))\n"
                  "staticpot.integrate_geodesic(g, start, 2.0, n_samples=10, transport=True)\n"
                  "global_checks.flow_classify(potentials.schwarzschild_potential(1.0), g,\n"
                  "                            (3.0, 0.0, 0.0), global_checks.FlowBudget(r_escape=20.0))\n"
                  "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))")
    assert loaded == []
