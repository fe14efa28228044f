"""The chart is one function: membership is the sign of ``boundary_margin``.

The membership table pins the verdicts of every chart family at its floor,
where a band or a rounding decides, on single points and on one batch. The
half-space cases build a chart from its margin alone, as every caller does, and
check that the metric, the gradient flow and the geodesic integrator all stop at
its edge.
"""

import dataclasses
import math
import re

import numpy as np
import pytest

import staticpot as sp
from staticpot import geometry
from staticpot.errors import DomainError, DomainExitError
from staticpot.geometry import PerturbationTerm, Point3


def _flat(x1, x2, x3):
    return [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def _half_space():
    """Flat space on x1 > 0.5."""
    return sp.generic_metric(_flat, boundary_margin=lambda p: p.x1 - 0.5, label="half space")


def _bumpy():
    """perturbed_as with its derived floor at r = 1: max(|m|, 2 sqrt(0.25), 1e-3)."""
    return sp.perturbed_as(1.0, [PerturbationTerm(0, 0, 0.25)])


_CYCLE = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]   # x = Q y, exact in floats
_TURN = [[math.cos(0.3), -math.sin(0.3), 0.0], [math.sin(0.3), math.cos(0.3), 0.0],
         [0.0, 0.0, 1.0]]
_ABOVE_ONE = float(np.nextafter(1.0, 2.0))

# (chart, its points, the verdict at each): True inside, False outside
MEMBERSHIP = {
    "schwarzschild(2)": (lambda: sp.schwarzschild(2.0),
                         [(1.0, 0, 0), (1.0 * (1 + 5e-13), 0, 0), (1.0 * (1 + 1e-11), 0, 0)],
                         [False, False, True]),
    "schwarzschild(2, full)": (lambda: sp.schwarzschild(2.0, exterior_only=False),
                               [(0.0, 0, 0), (1e-3, 0, 0)],
                               [False, True]),
    "schwarzschild(-1)": (lambda: sp.schwarzschild(-1.0),
                          [(0.5, 0, 0), (0.5 * (1 + 5e-13), 0, 0), (0.5 * (1 + 1e-11), 0, 0)],
                          [False, False, True]),
    "perturbed_as": (_bumpy,
                     [(1.0, 0, 0), (_ABOVE_ONE, 0, 0), (0, -1.0, 0), (0, 0, _ABOVE_ONE)],
                     [False, True, False, True]),
    "perturbed_as+cycled": (lambda: sp.rotate_chart(_bumpy(), _CYCLE),
                            [(0, 0, 1.0), (0, 0, _ABOVE_ONE), (1.0, 0, 0), (_ABOVE_ONE, 0, 0)],
                            [False, True, False, True]),
    "perturbed_as+turned": (lambda: sp.rotate_chart(_bumpy(), _TURN),
                            [(0.999, 0, 0), (1.001, 0, 0), (0, -0.999, 0), (0, 0, 1.001)],
                            [False, True, False, True]),
    "half space": (_half_space,
                   [(0.5, 0, 0), (float(np.nextafter(0.5, 1.0)), 0, 0), (0.0, 9, 9), (2.0, -3, 4)],
                   [False, True, False, True]),
}


def _inside(metric, point) -> bool:
    try:
        geometry._require_inside(metric, Point3.of(point))
    except DomainError:
        return False
    return True


@pytest.mark.parametrize("name", sorted(MEMBERSHIP))
def test_membership_table(name):
    build, points, verdicts = MEMBERSHIP[name]
    assert [_inside(build(), p) for p in points] == verdicts


@pytest.mark.parametrize("name", sorted(MEMBERSHIP))
def test_batched_margin_sign_matches_the_table(name):
    build, points, verdicts = MEMBERSHIP[name]
    metric, batch = build(), Point3.stack(points)
    assert (np.asarray(metric.boundary_margin(batch)) > 0.0).tolist() == verdicts
    first_out = tuple(float(x) for x in points[verdicts.index(False)])
    with pytest.raises(DomainError, match=re.escape(str(first_out))):
        geometry._require_inside(metric, batch)


@pytest.mark.parametrize("r, verdict", [(0.5, False), (0.5 * (1 + 5e-13), False), (0.6, True)])
def test_conformal_double_keeps_the_chart(r, verdict):
    f, metric = sp.schwarzschild_potential(1.0), sp.schwarzschild(1.0)
    for sign in (1, -1):
        if verdict:
            assert math.isfinite(sp.conformal_double_scalar(f, metric, sign, Point3(r, 0.0, 0.0)))
        else:
            with pytest.raises(DomainError):
                sp.conformal_double_scalar(f, metric, sign, Point3(r, 0.0, 0.0))


def test_half_space_metric_refuses_a_point_outside():
    with pytest.raises(DomainError, match=r"\(0\.0, 0\.0, 0\.0\) outside chart domain"):
        _half_space().matrix((0.0, 0.0, 0.0))


def test_flow_leaving_the_half_space_exits_the_boundary():
    f, budget = sp.affine(0.0, -1.0, 0.0, 0.0), sp.FlowBudget(r_escape=25.0, t_max=1e4)
    trace = sp.flow_classify(f, _half_space(), (2.0, 0.0, 0.0), budget)
    assert trace.classification == sp.EXIT_BOUNDARY
    assert trace.limit_estimate is None
    np.testing.assert_allclose(trace.samples[-1].position, [0.5, 0.0, 0.0], atol=1e-9)
    with pytest.raises(DomainError):
        sp.flow_classify(f, _half_space(), (0.4, 0.0, 0.0), budget)


def test_geodesic_leaving_the_half_space_raises_domain_exit():
    g = _half_space()
    start = sp.launch_state(g, (2.0, 0.0, 0.0), (-1.0, 0.0, 0.0))
    with pytest.raises(DomainExitError, match=r"at t=1\.5, position \(0\.5"):
        sp.integrate_geodesic(g, start, 5.0)
    with pytest.raises(DomainError):
        sp.launch_state(g, (0.4, 0.0, 0.0), (1.0, 0.0, 0.0))


def test_chart_has_one_field_and_no_second_knob():
    assert [f.name for f in dataclasses.fields(sp.MetricField)] == [
        "label", "components", "boundary_margin"]
    with pytest.raises(TypeError):
        sp.perturbed_as(1.0, [], r_min=2.0)
    with pytest.raises(TypeError):   # a metric is its components: no declared decay
        sp.generic_metric(_flat, tau=0.6)
    with pytest.raises(TypeError):   # nor a declared mass
        sp.generic_metric(_flat, mass=2.0)
    with pytest.raises(TypeError):   # a positional closure cannot bind to the margin
        sp.generic_metric(_flat, 1.0, lambda p: p.x1 - 0.5)
    assert _inside(sp.generic_metric(_flat), (1e300, -1e300, 0.0))
