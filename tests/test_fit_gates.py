"""The extrapolation fits refuse the inputs they cannot fit.

``quadrature.inverse_power_fit`` (a + b/x + c/x^2) and
``quadrature.decay_exponent`` (a log-log slope) are the one place each fit is
made. The library entry points that use them refuse too few samples with
ValueError, the way the CLI refuses them at set-up, and on valid inputs give
the bits of the ``lstsq`` and ``polyfit`` calls they replace. The two that
extrapolate with Aitken's delta-squared refuse radii whose last three are not
geometric (``quadrature.require_geometric_tail``).
"""

import math
import warnings

import numpy as np
import pytest

import staticpot as sp
from staticpot import quadrature

SMALL_RULE = quadrature.sphere_rule(6, 12)


@pytest.fixture(scope="module")
def graph():
    f = sp.expression_potential("x1 + 0.5*ln(x2^2 + x3^2)", label="log graph")
    return sp.extract_zero_graph(f, sp.schwarzschild(2.0), sp.AnnulusRegion(50.0, 1000.0),
                                 n_u=4, n_v=8, bracket=(-10.0, 2.0))


@pytest.mark.parametrize("heights", [[100.0, 200.0], [100.0, 100.0, 200.0], [140.0]])
def test_anisotropy_limit_needs_three_distinct_heights(graph, heights):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="three distinct abscissae"):
            sp.anisotropy_limit(sp.schwarzschild(2.0), graph, heights)


@pytest.mark.parametrize("radii", [[100.0], [100.0, 100.0]])
def test_gauss_bonnet_limit_needs_two_distinct_radii(graph, radii):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="two distinct radii"):
            sp.gauss_bonnet_limit(graph, radii, n_angles=32)


@pytest.mark.parametrize("radii", [[50.0, 100.0, 490.0], [25.0, 50.0, 100.0, 300.0],
                                   [50.0, 100.0, 100.0]])
def test_gauss_bonnet_limit_needs_geometric_radii(graph, radii, monkeypatch):
    # Aitken's delta-squared of a 1/r error is exact on geometric radii only;
    # 50, 100, 490 extrapolated 6.689862 against 2 pi. Refused before any circle
    circles = []
    monkeypatch.setattr(sp.zeroset, "circle_turning", lambda *a, **k: circles.append(a))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="needs geometric radii, the last three in one "
                                             "ratio: got"):
            sp.gauss_bonnet_limit(graph, radii, n_angles=32)
    assert circles == []


def test_linear_part_needs_geometric_radii_before_any_sphere_pass(monkeypatch):
    calls = []
    gradient = sp.PotentialField.gradient
    monkeypatch.setattr(sp.PotentialField, "gradient",
                        lambda self, p: calls.append(p) or gradient(self, p))
    with pytest.raises(ValueError, match=r"geometric radii, the last three in one ratio: "
                                         r"got 50, 100, 490"):
        sp.fit_linear_part(sp.schwarzschild_potential(2.0), sp.schwarzschild(2.0),
                           [490.0, 50.0, 100.0, 20.0], rule=SMALL_RULE)
    assert calls == []


def test_geometric_tail_tolerance():
    # the last three ascending radii, in one ratio to a relative 1e-6
    for radii in ([50.0, 100.0, 200.0], [1.0, 50.0, 100.0, 200.0], np.geomspace(50, 400, 8),
                  np.geomspace(50, 400, 8)[::2], [100.0, 200.0], [100.0], [400.0, 200.0, 100.0],
                  [50.0, 100.0, 200.0 * (1 + 9e-7)]):
        quadrature.require_geometric_tail(radii)
    for radii in ([50.0, 100.0, 200.0 * (1 + 2e-6)], [0.0, 100.0, 200.0], [-1.0, 1.0, -1.0],
                  [50.0, 100.0, math.nan]):
        with pytest.raises(ValueError, match="geometric radii"):
            quadrature.require_geometric_tail(radii)


@pytest.mark.parametrize("window", [(-5.0, 400.0), (0.0, 400.0), (400.0, 50.0), (50.0, 50.0)])
def test_mass_fit_needs_a_positive_increasing_window(window):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="0 < lo < hi"):
            sp.fit_mass_expansion(sp.schwarzschild_potential(2.0), sp.schwarzschild(2.0),
                                  window=window, rule=SMALL_RULE)


def test_linear_part_needs_two_distinct_radii_for_its_exponent():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="three distinct radii"):
            sp.fit_linear_part(sp.schwarzschild_potential(2.0), sp.schwarzschild(2.0),
                               [50.0, 50.0, 50.0], rule=SMALL_RULE)


def test_linear_part_refuses_two_distinct_radii_before_any_sphere_pass(monkeypatch):
    calls = []
    gradient = sp.PotentialField.gradient
    monkeypatch.setattr(sp.PotentialField, "gradient",
                        lambda self, p: calls.append(p) or gradient(self, p))
    with pytest.raises(ValueError, match=r"three distinct radii, got \[50\.0, 50\.0, 100\.0\]"):
        sp.fit_linear_part(sp.schwarzschild_potential(2.0), sp.schwarzschild(2.0),
                           [100.0, 50.0, 50.0], rule=SMALL_RULE)
    assert calls == []
    sp.fit_linear_part(sp.schwarzschild_potential(2.0), sp.schwarzschild(2.0),
                       [50.0, 100.0, 200.0], rule=SMALL_RULE)
    assert len(calls) == 3   # the probe sees one pass per sphere


def test_inverse_power_fit_is_the_lstsq_it_replaces():
    x = np.array([100.0, 140.0, 200.0, 280.0, 400.0, 560.0, 800.0])
    y = 6.0 + 3.0 / x - 40.0 / x ** 2 + 1e-9 * np.sin(x)
    design = np.column_stack([np.ones_like(x), 1.0 / x, 1.0 / x ** 2])
    coef, resid, cond = quadrature.inverse_power_fit(x, y)
    expected = np.linalg.lstsq(design, y, rcond=None)[0]
    assert coef.tolist() == expected.tolist()
    assert resid.tolist() == (y - design @ expected).tolist()
    assert cond == float(np.linalg.cond(design))


def test_inverse_power_fit_gates_the_condition_number():
    x = np.array([1e6, 1.0000001e6, 1.0000002e6])
    with pytest.raises(sp.IllConditionedFitError, match="condition number"):
        quadrature.inverse_power_fit(x, np.ones(3))


def test_decay_exponent_is_the_polyfit_it_replaces():
    radii = np.array([50.0, 100.0, 200.0])
    values = np.array([0.02, 0.0101, 0.00498])
    expected = float(np.polyfit(np.log(radii), np.log(values), 1)[0])
    assert quadrature.decay_exponent(radii, values) == expected
    assert quadrature.decay_exponent(radii, np.array([0.02, 0.0, 0.01])) == -np.inf
    assert quadrature.decay_exponent(radii, np.array([0.02, np.nan, 0.01])) == -np.inf
