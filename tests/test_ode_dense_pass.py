"""The deferred ``t_eval`` output of ``ode.solve_ivp``, against scipy.

The solver keeps the interpolant rows of every step that passes ``t_eval``
points and evaluates all those points in one ``_dense`` call after the loop.
Each lane must still be scipy's solve of that system alone, bit for bit, in
the cases where the output of a step is cut short or ends the span: a lane
stopped by a terminal event inside a step that also passes points, a lane
that fails on a too-small step, and lanes whose last point is t1.
"""

import numpy as np
import pytest

import staticpot as sp
from staticpot import ode

from .test_ode import _assert_lane_is_scipys, _deadline, _scipy

# u' = a u^2 + v, v' = g per lane, stopped when u falls through -1e-3 (u^2 is
# u * u in both forms: numpy's array and scalar squares may round apart):
#   0: a ball thrown up, stopped by the event inside a step passing points;
#   1: u' = u^2 from u = 1 blows up at t = 1, and the step size fails;
#   2, 3: reach t1 = 2, the last t_eval point; lane 3 rises through the
#         event's zero, which counts falling crossings only.
A = np.array([0.0, 1.0, 0.0, 0.0])
G = np.array([-9.81, 0.0, 0.5, 1.0])
Y0 = np.array([[0.0, 3.0], [1.0, 0.0], [1.0, 0.2], [-1.0, 0.5]])
T_EVAL = np.linspace(0.0, 2.0, 81)
TOLS = dict(rtol=1e-10, atol=1e-12)


def _fun(t, y, lanes):
    return np.column_stack((A[lanes] * (y[:, 0] * y[:, 0]) + y[:, 1],
                            np.broadcast_to(G[lanes], t.shape)))


def _height(t, y, lanes):
    return y[:, 0] + 1e-3


def _lane_fun(k):
    return lambda t, y: [A[k] * (y[0] * y[0]) + y[1], G[k]]


def _solve():
    with _deadline(60):
        return ode.solve_ivp(_fun, (0.0, 2.0), Y0, t_eval=T_EVAL, events=[(_height, -1)],
                             **TOLS)


def test_four_lanes_with_shared_t_eval_match_scipy():
    sol = _solve()
    for k, lane in enumerate(sol.lanes):
        ref = _scipy(_lane_fun(k), (0.0, 2.0), Y0[k], t_eval=T_EVAL,
                     events=[(lambda t, y: y[0] + 1e-3, -1)], **TOLS)
        _assert_lane_is_scipys(lane, ref)
    assert [lane.status for lane in sol.lanes] == [1, -1, 0, 0]
    assert sol.nfev == sum(lane.nfev for lane in sol.lanes)
    assert sol.lanes[2].t[-1] == sol.lanes[3].t[-1] == 2.0 == T_EVAL[-1]
    # lane 0's terminal step passes t_eval points before its root: the step
    # scipy takes there without the event runs from start to end over them
    steps = _scipy(_lane_fun(0), (0.0, 2.0), Y0[0], **TOLS).t
    root = sol.lanes[0].t_events[0][0]
    start, end = steps[np.searchsorted(steps, root) - 1], steps[np.searchsorted(steps, root)]
    inside = T_EVAL[(T_EVAL > start) & (T_EVAL <= root)]
    assert len(inside) >= 2 and end > root
    assert sol.lanes[0].t[-1] == inside[-1]


def test_one_dense_pass_per_solve(monkeypatch):
    # every t_eval point of every lane takes one _dense call; each event-root
    # search adds one per objective evaluation and one per lane it stops
    calls, objective_calls = [], []
    dense, brentq = ode._dense, ode.brentq

    def counted_dense(*args):
        calls.append(len(args[-1]))
        return dense(*args)

    def counted_brentq(fn, *args, **kwargs):
        def counted(*a):
            objective_calls.append(1)
            return fn(*a)
        return brentq(counted, *args, **kwargs)

    monkeypatch.setattr(ode, "_dense", counted_dense)
    monkeypatch.setattr(ode, "brentq", counted_brentq)

    sol = _solve()
    stopped = sum(lane.status == 1 for lane in sol.lanes)
    assert stopped == 1 and objective_calls
    assert len(calls) == 1 + len(objective_calls) + stopped
    assert calls[-1] == sum(len(lane.t) for lane in sol.lanes)

    # without events, one call evaluates the whole batch's output
    calls.clear()
    objective_calls.clear()
    scales = np.linspace(-1.0, 1.0, 21)
    ts = np.geomspace(1.0, 1e4, 400)
    curves = sp.solve_curve_ode(lambda t, lanes: scales[lanes] * 0.5 / (t * t), np.ones(21),
                                np.ones(21), 1.0, 1e4, t_eval=ts)
    assert calls == [21 * 400] and not objective_calls
    assert all(len(curves[k][0]) == 400 for k in range(21))

    # and without t_eval, none
    calls.clear()
    ode.solve_ivp(lambda t, y, lanes: -y, (0.0, 1.0), [[1.0], [2.0]])
    assert calls == []


@pytest.mark.parametrize("n_lanes", [1, 3])
def test_points_at_every_step_end_match_scipy(n_lanes):
    # t_eval at scipy's own step ends: each point is the last one its step
    # passes, at x = 1 of the interpolant
    steps = _scipy(_lane_fun(2), (0.0, 2.0), Y0[2], **TOLS).t
    sol = ode.solve_ivp(lambda t, y, lanes: _fun(t, y, np.full_like(lanes, 2)), (0.0, 2.0),
                        np.repeat(Y0[2:3], n_lanes, axis=0), t_eval=steps[1:], **TOLS)
    ref = _scipy(_lane_fun(2), (0.0, 2.0), Y0[2], t_eval=steps[1:], **TOLS)
    for lane in sol.lanes:
        _assert_lane_is_scipys(lane, ref)
