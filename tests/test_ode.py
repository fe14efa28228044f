"""Differential tests: the lane-wise DOP853 port against scipy.integrate.solve_ivp.

Each lane of ``ode.solve_ivp`` must take the steps scipy takes on that system
alone, so every comparison is exact: t, y, t_events, y_events, status, message
and the per-lane nfev, bit for bit. The references are the scalar systems the
drivers solved with scipy before the port. scipy is used by this test only.
"""

import contextlib
import math
import signal

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp
from scipy.integrate._ivp import dop853_coefficients as scipy_tables

import staticpot as sp
from staticpot import geodesics, geometry, global_checks, ode, potentials
from staticpot.geometry import Point3


class _Timeout(Exception):
    pass


@contextlib.contextmanager
def _deadline(seconds):
    """Fail instead of hanging: a step-size loop that never ends raises here."""
    def expire(signum, frame):
        raise _Timeout(f"no result after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _bits(a):
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


def _assert_lane_is_scipys(lane, ref):
    assert lane.status == ref.status
    assert lane.message == ref.message
    assert lane.nfev == ref.nfev
    assert _bits(lane.t) == _bits(ref.t)
    assert _bits(lane.y) == _bits(ref.y)
    if ref.t_events is None:
        assert lane.t_events is None and lane.y_events is None
        return
    assert len(lane.t_events) == len(ref.t_events)
    for mine, theirs in zip(lane.t_events, ref.t_events):
        assert _bits(mine) == _bits(theirs)
    for mine, theirs in zip(lane.y_events, ref.y_events):
        assert _bits(mine) == _bits(theirs)


def _scipy(fun, t_span, y0, events=(), **kwargs):
    """scipy's DOP853 on one scalar system; events as (event, direction) pairs."""
    scipy_events = []
    for event, direction in events:
        def ev(t, y, event=event):
            return event(t, y)
        ev.terminal, ev.direction = True, direction
        scipy_events.append(ev)
    return scipy_solve_ivp(fun, t_span, y0, method="DOP853", events=scipy_events or None,
                           **kwargs)


def test_tables_are_scipys():
    for name in ("N_STAGES", "N_STAGES_EXTENDED", "INTERPOLATOR_POWER"):
        assert getattr(ode, name) == getattr(scipy_tables, name)
    for name in ("C", "A", "B", "E3", "E5", "D"):
        assert _bits(getattr(ode, name)) == _bits(getattr(scipy_tables, name)), name


### The growth envelope family: 20 lanes with t_eval


@pytest.mark.parametrize("eps, r0, t_end", [(0.5, 1.0, 1e4), (0.1, 1.0, 1e4),
                                            (0.5, 2.0, 1e5), (3.0, 1.0, 1e3)])
def test_envelope_family_matches_scipy(eps, r0, t_end):
    rng = np.random.default_rng(int(eps * 10 + r0 + t_end))
    scales = np.array([rng.uniform(-1.0, 1.0) for _ in range(20)])
    ts = np.geomspace(r0, t_end, 400)
    sol = ode.solve_ivp(
        lambda t, y, lanes: np.column_stack((y[:, 1], scales[lanes] * eps / (t * t) * y[:, 0])),
        (r0, t_end), np.ones((20, 2)), rtol=1e-12, atol=1e-14, t_eval=ts)
    curves = sp.solve_curve_ode(lambda t, lanes: scales[lanes] * eps / (t * t),
                                np.ones(20), np.ones(20), r0, t_end, t_eval=ts)
    for lane, (c_ts, c_us, c_slopes), s in zip(sol.lanes, curves, scales):
        ref = _scipy(lambda t, y, s=s: [y[1], s * eps / (t * t) * y[0]], (r0, t_end),
                     [1.0, 1.0], rtol=1e-12, atol=1e-14, t_eval=ts)
        _assert_lane_is_scipys(lane, ref)
        assert _bits(c_ts) == _bits(ref.t)
        assert _bits(c_us) == _bits(ref.y[0]) and _bits(c_slopes) == _bits(ref.y[1])
    assert sol.nfev == sum(lane.nfev for lane in sol.lanes)
    assert isinstance(sol.nfev, int)


def test_one_lane_without_t_eval_matches_scipy():
    # growth_bound's tail_slope_bounded problem, with the scalar power per lane
    h = lambda t, lanes: 0.5 * np.array([x ** (-2.75) for x in t])
    [lane] = ode.solve_ivp(lambda t, y, lanes: np.column_stack((y[:, 1], h(t, lanes) * y[:, 0])),
                           (1.0, 1e6), [[1.0, 1.0]], rtol=1e-12, atol=1e-14).lanes
    ref = _scipy(lambda t, y: [y[1], 0.5 * t ** (-2.75) * y[0]], (1.0, 1e6), [1.0, 1.0],
                 rtol=1e-12, atol=1e-14)
    _assert_lane_is_scipys(lane, ref)
    [(ts, us, slopes)] = sp.solve_curve_ode(h, 1.0, 1.0, 1.0, 1e6)
    assert _bits(ts) == _bits(ref.t) and _bits(slopes) == _bits(ref.y[1])


### Step control: rejections, failures, direction

# an oscillator whose frequency jumps at t = 1: the steps across the jump are rejected
JUMPS = np.array([1e2, 1e4, 3e3])


def _jump_rhs(t, y, lanes):
    return np.column_stack((y[:, 1], -(1.0 + JUMPS[lanes] * (t > 1.0)) * y[:, 0]))


def _jump_scalar(k):
    return lambda t, y: [y[1], -(1.0 + JUMPS[k] * (t > 1.0)) * y[0]]


def test_rejected_steps_match_scipy():
    sol = ode.solve_ivp(_jump_rhs, (0.0, 3.0), [[1.0, 0.0]] * 3, rtol=1e-9, atol=1e-12)
    for k, lane in enumerate(sol.lanes):
        ref = _scipy(_jump_scalar(k), (0.0, 3.0), [1.0, 0.0], rtol=1e-9, atol=1e-12)
        _assert_lane_is_scipys(lane, ref)
        steps = len(ref.t) - 1
        assert (ref.nfev - 2) // 12 > steps   # some attempts were rejected


def test_too_small_step_fails_as_scipy_does():
    # y' = y^2 blows up at t = 1/y0: lanes 0 and 1 fail, lane 2 reaches t = 2
    y0 = np.array([[1.0], [0.8], [-1.0]])
    with _deadline(60):   # a rejected step clamped back up to min_step would never fail
        sol = ode.solve_ivp(lambda t, y, lanes: y * y, (0.0, 2.0), y0, rtol=1e-10, atol=1e-12)
    for lane, start in zip(sol.lanes, y0[:, 0]):
        ref = _scipy(lambda t, y: y * y, (0.0, 2.0), [start], rtol=1e-10, atol=1e-12)
        _assert_lane_is_scipys(lane, ref)
    assert [lane.status for lane in sol.lanes] == [-1, -1, 0]
    assert sol.lanes[0].t_stop == sol.lanes[0].t[-1]


@pytest.mark.parametrize("with_t_eval", [False, True])
def test_backward_integration_matches_scipy(with_t_eval):
    t_eval = np.linspace(3.0, 0.0, 31) if with_t_eval else None
    sol = ode.solve_ivp(_jump_rhs, (3.0, 0.0), [[1.0, 0.0]] * 3, rtol=1e-9, atol=1e-12,
                        t_eval=t_eval)
    for k, lane in enumerate(sol.lanes):
        ref = _scipy(_jump_scalar(k), (3.0, 0.0), [1.0, 0.0], rtol=1e-9, atol=1e-12,
                     t_eval=t_eval)
        _assert_lane_is_scipys(lane, ref)


def test_lanes_stop_at_their_own_events():
    # a ball thrown up at three speeds, stopped when it falls back through 0
    v0 = np.array([1.0, 3.0, 10.0])
    fun = lambda t, y, lanes: np.column_stack((y[:, 1], np.full(len(t), -9.81)))
    height = lambda t, y, lanes: y[:, 0] + 1e-3
    sol = ode.solve_ivp(fun, (0.0, 5.0), np.column_stack((np.zeros(3), v0)), rtol=1e-10,
                        atol=1e-12, t_eval=np.linspace(0.0, 5.0, 51), events=[(height, -1)])
    for lane, v in zip(sol.lanes, v0):
        ref = _scipy(lambda t, y: [y[1], -9.81], (0.0, 5.0), [0.0, v], rtol=1e-10, atol=1e-12,
                     t_eval=np.linspace(0.0, 5.0, 51),
                     events=[(lambda t, y: y[0] + 1e-3, -1)])
        _assert_lane_is_scipys(lane, ref)
        assert lane.status == 1 and lane.t_stop == lane.t_events[0][0]


### The drivers: every call they make is checked against scipy


class _Differential:
    """Stands in for ``solve_ivp`` in a driver module and checks each lane of
    every call against scipy on the same one-lane functions."""

    def __init__(self):
        self.calls = 0

    def __call__(self, fun, t_span, y0, rtol, atol, t_eval=None, events=()):
        sol = ode.solve_ivp(fun, t_span, y0, rtol=rtol, atol=atol, t_eval=t_eval,
                            events=events)
        for k, lane in enumerate(sol.lanes):
            pick = np.array([k])
            ref = _scipy(lambda t, y: np.broadcast_to(fun(np.array([t]), np.asarray(y)[None], pick),
                                                      (1, len(y)))[0],
                         t_span, np.asarray(y0, dtype=float)[k], rtol=rtol, atol=atol,
                         t_eval=t_eval,
                         events=[(lambda t, y, ev=ev: float(np.ravel(
                             ev(np.array([t]), np.asarray(y)[None], pick))[0]), d)
                                 for ev, d in events])
            _assert_lane_is_scipys(lane, ref)
        self.calls += 1
        return sol


@pytest.mark.parametrize("case, expected", [
    ("escape", global_checks.ESCAPE_TO_END),
    ("critical", global_checks.CONVERGE_CRITICAL),
    ("boundary", global_checks.EXIT_BOUNDARY),
])
def test_flow_classify_outcomes_match_scipy(case, expected, monkeypatch):
    spy = _Differential()
    monkeypatch.setattr(global_checks, "solve_ivp", spy)
    if case == "escape":
        f, metric, start = (potentials.schwarzschild_potential(1.0), geometry.schwarzschild(1.0),
                            Point3(3.0, 1.0, 0.5))
        budget = global_checks.FlowBudget(r_escape=200.0)
    elif case == "critical":
        f, metric, start = (potentials.expression_potential("-(x1*x1 + x2*x2 + x3*x3)"),
                            geometry.euclidean(), Point3(1.0, 0.0, 0.0))
        budget = global_checks.FlowBudget(r_escape=50.0, t_max=50.0)
    else:   # descending the Schwarzschild potential runs into the horizon boundary
        f, metric, start = (potentials.expression_potential(
            "-(1 - 0.5/sqrt(x1*x1 + x2*x2 + x3*x3)) / (1 + 0.5/sqrt(x1*x1 + x2*x2 + x3*x3))"),
            geometry.schwarzschild(1.0), Point3(2.0, 0.5, 0.0))
        budget = global_checks.FlowBudget(r_escape=200.0)
    trace = global_checks.flow_classify(f, metric, start, budget)
    assert trace.classification == expected
    assert spy.calls == 1


def test_geodesic_chart_exit_matches_scipy(monkeypatch):
    spy = _Differential()
    monkeypatch.setattr(geodesics, "solve_ivp", spy)
    g = geometry.schwarzschild(1.0)
    start = sp.launch_state(g, (3.0, 0.2, 0.0), (-1.0, 0.0, 0.0))
    with pytest.raises(sp.DomainExitError, match="left the chart"):
        sp.integrate_geodesic(g, start, 10.0, transport=True)
    assert spy.calls == 1


def test_transported_geodesic_matches_scipy(monkeypatch):
    spy = _Differential()
    monkeypatch.setattr(geodesics, "solve_ivp", spy)
    g = geometry.perturbed_as(1.0, [geometry.PerturbationTerm(0, 1, 0.3, (1, 0, 0))])
    start = sp.launch_state(g, (4.0, 1.0, 0.5), (0.3, 1.0, 0.2), f_value=0.5, f_slope=0.1)
    traj = sp.integrate_geodesic(g, start, 8.0, n_samples=40, transport=True)
    assert len(traj.states) == 41 and spy.calls == 1


### Failures of the curve equation


def test_failing_batch_raises_its_lowest_failing_lane():
    # lanes 1 and 3 overflow; the batch raises lane 1's error, as a lone solve of it does
    coeffs = np.array([0.1, 1e300, 0.2, 1e299])
    ts = np.geomspace(1.0, 1e4, 50)
    with pytest.raises(sp.StepFailureError) as batch:
        sp.solve_curve_ode(lambda t, lanes: coeffs[lanes] / (t * t), np.ones(4), np.ones(4),
                           1.0, 1e4, t_eval=ts)
    with pytest.raises(sp.StepFailureError) as alone:
        sp.solve_curve_ode(lambda t, lanes: coeffs[1] / (t * t), 1.0, 1.0, 1.0, 1e4, t_eval=ts)
    assert str(batch.value) == str(alone.value)
    assert str(batch.value).startswith("transport equation failed at t = ")


@pytest.mark.parametrize("t0, t1, y0", [(0.0, math.nan, 1.0), (math.inf, 1.0, 1.0),
                                        (0.0, -math.inf, 1.0), (0.0, 1.0, math.nan)])
def test_non_finite_span_or_start_is_rejected(t0, t1, y0):
    # a NaN span used to send the step-size loop round forever
    with _deadline(20), pytest.raises(ValueError, match="finite"):
        sp.solve_curve_ode(lambda t, lanes: 0.0, y0, 0.0, t0, t1)


def test_solver_is_bound_where_the_tracer_finds_it():
    # perfbench's tracer rebinds geodesics.solve_ivp in every module that holds it,
    # and reads the total nfev off its result
    assert global_checks.solve_ivp is geodesics.solve_ivp
    sol = geodesics.solve_ivp(lambda t, y, lanes: -y, (0.0, 1.0), [[1.0], [2.0]])
    assert isinstance(sol.nfev, int) and sol.nfev == sum(lane.nfev for lane in sol.lanes)
