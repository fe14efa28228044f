"""The A/B tool's verdict on one end-to-end metric against its benchmark bound.

``tools/ab_bench.py`` is loaded from its file, as a script outside the package.
"""

import importlib.util
from pathlib import Path

import pytest

AB_BENCH = Path(__file__).resolve().parents[1] / "tools" / "ab_bench.py"


def _load_ab_bench():
    spec = importlib.util.spec_from_file_location("ab_bench", AB_BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


verdict = _load_ab_bench().verdict


def test_a_setup_rise_beyond_its_bound_is_worse():
    # zeroset_flow setup_s medians of a refused change: +39 % against a 25 % bound
    assert verdict([0.2754], [0.3826], "lower", 0.25) == "worse"


@pytest.mark.parametrize("parent, change, better, expected", [
    # within the bound, parent quartiles tight
    ([1.00, 1.01, 1.02, 1.03], [1.10, 1.11, 1.12, 1.13], "lower", "ok"),
    # a throughput that fell by more than the bound
    ([10.0, 10.1, 10.2, 10.3], [7.0, 7.1, 7.2, 7.3], "higher", "worse"),
    # parent spread wider than the bound: not worse, but not shown unchanged
    ([0.4, 1.0, 1.0, 1.6], [1.1, 1.1, 1.1, 1.1], "lower", "unresolved"),
    # the same spread, but every change run beats every parent run
    ([0.4, 1.0, 1.0, 1.6], [0.3, 0.3, 0.3, 0.3], "lower", "ok"),
])
def test_verdict_rules(parent, change, better, expected):
    assert verdict(parent, change, better, 0.25) == expected
