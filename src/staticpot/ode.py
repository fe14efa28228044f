"""DOP853 on many independent systems at once: a numpy port of scipy's solve_ivp.

``solve_ivp`` advances L independent systems ("lanes") of n equations in
lockstep with the explicit Runge-Kutta pair of order 8(5,3) of Dormand and
Prince (Hairer, Norsett & Wanner, *Solving Ordinary Differential Equations I*,
2nd ed., Springer 1993, sec. II.10), with the step control, initial step,
dense output and event location of ``scipy.integrate.solve_ivp(method=
"DOP853")``. Each lane keeps its own t, step size, rejected-step flag,
``t_eval`` cursor and event state, so each lane takes the steps scipy takes on
that system alone and returns its results bit for bit: the same per-lane
``nfev``, ``t``, ``y``, events and status. A finished or failed lane is frozen
and no longer evaluated.

Bit identity rests on doing each lane's arithmetic in scipy's order with the
same kernels: stage sums are ``np.matmul`` on the ``(lanes, n, stages)``
transposed view (the BLAS call ``np.dot`` makes on one lane), RMS norms are
``sqrt(vecdot(x, x))`` as ``np.linalg.norm`` computes them, and every
fractional power is the scalar power lane by lane (``_pow``).

The Butcher, error and interpolation tables below are copied from scipy's
``scipy/integrate/_ivp/dop853_coefficients.py``, distributed under this licence:

    Copyright (c) 2001-2002 Enthought, Inc. 2003, SciPy Developers.
    All rights reserved.

    Redistribution and use in source and binary forms, with or without
    modification, are permitted provided that the following conditions are met:

    1. Redistributions of source code must retain the above copyright notice,
       this list of conditions and the following disclaimer.
    2. Redistributions in binary form must reproduce the above copyright
       notice, this list of conditions and the following disclaimer in the
       documentation and/or other materials provided with the distribution.
    3. Neither the name of the copyright holder nor the names of its
       contributors may be used to endorse or promote products derived from
       this software without specific prior written permission.

    THIS SOFTWARE IS PROVIDED BY THE COPYRIGHT HOLDERS AND CONTRIBUTORS "AS IS"
    AND ANY EXPRESS OR IMPLIED WARRANTIES, INCLUDING, BUT NOT LIMITED TO, THE
    IMPLIED WARRANTIES OF MERCHANTABILITY AND FITNESS FOR A PARTICULAR PURPOSE
    ARE DISCLAIMED. IN NO EVENT SHALL THE COPYRIGHT HOLDER OR CONTRIBUTORS BE
    LIABLE FOR ANY DIRECT, INDIRECT, INCIDENTAL, SPECIAL, EXEMPLARY, OR
    CONSEQUENTIAL DAMAGES (INCLUDING, BUT NOT LIMITED TO, PROCUREMENT OF
    SUBSTITUTE GOODS OR SERVICES; LOSS OF USE, DATA, OR PROFITS; OR BUSINESS
    INTERRUPTION) HOWEVER CAUSED AND ON ANY THEORY OF LIABILITY, WHETHER IN
    CONTRACT, STRICT LIABILITY, OR TORT (INCLUDING NEGLIGENCE OR OTHERWISE)
    ARISING IN ANY WAY OUT OF THE USE OF THIS SOFTWARE, EVEN IF ADVISED OF THE
    POSSIBILITY OF SUCH DAMAGE.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

import numpy as np

from .zeroset import brentq

### DOP853 tables (scipy's dop853_coefficients, see the module docstring)

N_STAGES = 12
N_STAGES_EXTENDED = 16
INTERPOLATOR_POWER = 7

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0,
              1.0,
              0.1,
              0.2,
              0.777777777777777777777777777778])

A = np.zeros((N_STAGES_EXTENDED, N_STAGES_EXTENDED))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

A[13, 0] = 5.61675022830479523392909219681e-2
A[13, 6] = 2.53500210216624811088794765333e-1
A[13, 7] = -2.46239037470802489917441475441e-1
A[13, 8] = -1.24191423263816360469010140626e-1
A[13, 9] = 1.5329179827876569731206322685e-1
A[13, 10] = 8.20105229563468988491666602057e-3
A[13, 11] = 7.56789766054569976138603589584e-3
A[13, 12] = -8.298e-3

A[14, 0] = 3.18346481635021405060768473261e-2
A[14, 5] = 2.83009096723667755288322961402e-2
A[14, 6] = 5.35419883074385676223797384372e-2
A[14, 7] = -5.49237485713909884646569340306e-2
A[14, 10] = -1.08347328697249322858509316994e-4
A[14, 11] = 3.82571090835658412954920192323e-4
A[14, 12] = -3.40465008687404560802977114492e-4
A[14, 13] = 1.41312443674632500278074618366e-1

A[15, 0] = -4.28896301583791923408573538692e-1
A[15, 5] = -4.69762141536116384314449447206
A[15, 6] = 7.68342119606259904184240953878
A[15, 7] = 4.06898981839711007970213554331
A[15, 8] = 3.56727187455281109270669543021e-1
A[15, 12] = -1.39902416515901462129418009734e-3
A[15, 13] = 2.9475147891527723389556272149
A[15, 14] = -9.15095847217987001081870187138

B = A[N_STAGES, :N_STAGES]
A_ROWS = [A[s, :s] for s in range(N_STAGES_EXTENDED)]   # stage s sums the earlier stages
C_COLUMN = C[:, None]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1

# First 3 coefficients are computed separately.
D = np.zeros((INTERPOLATOR_POWER - 3, N_STAGES_EXTENDED))
D[0, 0] = -0.84289382761090128651353491142e+1
D[0, 5] = 0.56671495351937776962531783590
D[0, 6] = -0.30689499459498916912797304727e+1
D[0, 7] = 0.23846676565120698287728149680e+1
D[0, 8] = 0.21170345824450282767155149946e+1
D[0, 9] = -0.87139158377797299206789907490
D[0, 10] = 0.22404374302607882758541771650e+1
D[0, 11] = 0.63157877876946881815570249290
D[0, 12] = -0.88990336451333310820698117400e-1
D[0, 13] = 0.18148505520854727256656404962e+2
D[0, 14] = -0.91946323924783554000451984436e+1
D[0, 15] = -0.44360363875948939664310572000e+1

D[1, 0] = 0.10427508642579134603413151009e+2
D[1, 5] = 0.24228349177525818288430175319e+3
D[1, 6] = 0.16520045171727028198505394887e+3
D[1, 7] = -0.37454675472269020279518312152e+3
D[1, 8] = -0.22113666853125306036270938578e+2
D[1, 9] = 0.77334326684722638389603898808e+1
D[1, 10] = -0.30674084731089398182061213626e+2
D[1, 11] = -0.93321305264302278729567221706e+1
D[1, 12] = 0.15697238121770843886131091075e+2
D[1, 13] = -0.31139403219565177677282850411e+2
D[1, 14] = -0.93529243588444783865713862664e+1
D[1, 15] = 0.35816841486394083752465898540e+2

D[2, 0] = 0.19985053242002433820987653617e+2
D[2, 5] = -0.38703730874935176555105901742e+3
D[2, 6] = -0.18917813819516756882830838328e+3
D[2, 7] = 0.52780815920542364900561016686e+3
D[2, 8] = -0.11573902539959630126141871134e+2
D[2, 9] = 0.68812326946963000169666922661e+1
D[2, 10] = -0.10006050966910838403183860980e+1
D[2, 11] = 0.77771377980534432092869265740
D[2, 12] = -0.27782057523535084065932004339e+1
D[2, 13] = -0.60196695231264120758267380846e+2
D[2, 14] = 0.84320405506677161018159903784e+2
D[2, 15] = 0.11992291136182789328035130030e+2

D[3, 0] = -0.25693933462703749003312586129e+2
D[3, 5] = -0.15418974869023643374053993627e+3
D[3, 6] = -0.23152937917604549567536039109e+3
D[3, 7] = 0.35763911791061412378285349910e+3
D[3, 8] = 0.93405324183624310003907691704e+2
D[3, 9] = -0.37458323136451633156875139351e+2
D[3, 10] = 0.10409964950896230045147246184e+3
D[3, 11] = 0.29840293426660503123344363579e+2
D[3, 12] = -0.43533456590011143754432175058e+2
D[3, 13] = 0.96324553959188282948394950600e+2
D[3, 14] = -0.39177261675615439165231486172e+2
D[3, 15] = -0.14972683625798562581422125276e+3

### Step control (scipy's rk.py, common.py and ivp.py)

EPS = np.finfo(float).eps
SAFETY = 0.9
MIN_FACTOR = 0.2   # smallest step decrease
MAX_FACTOR = 10    # largest step increase
ERROR_EXPONENT = -1 / 8   # -1 / (error estimator order 7 + 1)

FAILED, FINISHED, TERMINATED, RUNNING = -1, 0, 1, 2
MESSAGES = {FAILED: "Required step size is less than spacing between numbers.",
            FINISHED: "The solver successfully reached the end of the integration interval.",
            TERMINATED: "A termination event occurred."}


@dataclass(frozen=True)
class Lane:
    """One system's result, as scipy's ``OdeResult`` gives it."""

    t: np.ndarray          # (m,) output times
    y: np.ndarray          # (n, m) states at those times
    t_events: list | None  # per event, the array of its terminal root (0 or 1 entries)
    y_events: list | None  # per event, the states at those roots
    status: int            # -1 step too small, 0 reached t1, 1 terminal event
    message: str
    nfev: int              # right-hand-side evaluations of this lane
    t_stop: float          # t1, the terminal root, or the t a failed lane could not step past

    @property
    def success(self) -> bool:
        return self.status >= 0


@dataclass(frozen=True)
class Solution:
    lanes: list   # one Lane per row of y0
    nfev: int     # right-hand-side evaluations over all lanes


def _power(x: float, p: float) -> float:
    """``x ** p`` as scipy takes it on numpy scalars: the C pow, and inf on
    overflow or for 0 to a negative power. numpy's array power differs in the
    last bit on a few percent of inputs, so powers are taken lane by lane."""
    try:
        return x ** p
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _ratio(a: float, b: float) -> float:
    """``a / b`` as numpy's float64 scalars divide: ±inf, or nan for a = 0 or
    nan, when b = 0, where Python raises ZeroDivisionError."""
    if b:
        return a / b
    return math.nan if a == 0 or a != a else math.copysign(math.inf, a) * math.copysign(1.0, b)


def _rms(x: np.ndarray) -> list:
    """RMS norm of each row, as scipy's ``norm`` computes it on one row."""
    return (np.sqrt(np.vecdot(x, x)) / x.shape[1] ** 0.5).tolist()


def _stage_store(k: int, n: int) -> np.ndarray:
    """Stage storage for k lanes: K[s] holds stage s (lanes, n). K is a view of
    lane-major memory, so each lane's stages form scipy's (stages, n) array."""
    return np.empty((k, N_STAGES_EXTENDED, n)).transpose(1, 0, 2)


def _take(K: np.ndarray, sel) -> np.ndarray:
    """The lanes ``sel`` of stage storage, in lane-major memory again."""
    return K.transpose(1, 0, 2)[sel].transpose(1, 0, 2)


def _sums(K: np.ndarray):
    """``sums(s, w)``: each lane's first s stages weighted by w.

    This is scipy's ``np.dot(K[:s].T, w)`` on each lane: that BLAS call on the
    same column-major (n, s) layout, through ``np.dot`` for one lane (the lower
    overhead) and ``np.matmul`` over the lanes otherwise. A stage-major layout
    would hand the BLAS another leading dimension, and other roundings.
    """
    if K.shape[1] == 1:
        K1 = K[:, 0]
        return lambda s, w: np.dot(K1[:s].T, w)
    KT = K.transpose(1, 2, 0)
    return lambda s, w: np.matmul(KT[:, :, :s], w)


def _dense(F: np.ndarray, t_old: np.ndarray, h: np.ndarray, y_old: np.ndarray,
           t: np.ndarray) -> np.ndarray:
    """scipy's ``Dop853DenseOutput`` at the times ``t``: one row of F, t_old, h
    and y_old per time, or a single row for all of them."""
    x = ((t - t_old) / h)[:, None]
    rx = 1 - x
    y = np.zeros((len(t), F.shape[2]))
    for i in range(INTERPOLATOR_POWER):
        y += F[:, INTERPOLATOR_POWER - 1 - i]
        y *= rx if i % 2 else x
    return y + y_old


def solve_ivp(fun, t_span, y0, rtol: float = 1e-3, atol: float = 1e-6, t_eval=None,
              events=()) -> Solution:
    """DOP853 from ``t_span[0]`` to ``t_span[1]`` on each row of ``y0`` (L, n).

    ``fun(t, y, lanes)`` returns the (k, n) derivatives at the (k,) times ``t``
    and (k, n) states ``y`` of the lanes ``lanes`` (indices into the rows of
    ``y0``). ``events`` holds ``(event, direction)`` pairs; ``event(t, y,
    lanes)`` returns (k,) values, and a lane stops at the first zero crossing
    in ``direction`` (+1 rising, -1 falling, 0 either) of any event: every
    event is terminal. ``t_eval``, shared by the lanes, selects the output
    times; without it each lane reports its accepted steps.

    Each lane's step control is scipy's scalar code on Python floats; the
    stages, error estimate and dense output are array passes over the lanes
    attempting a step. Raises ValueError for a non-finite or empty span, a
    non-finite ``y0``, or a ``t_eval`` outside or against the span.
    """
    t0, t1 = map(float, t_span)
    y0 = np.array(y0, dtype=float)
    if y0.ndim != 2:
        raise ValueError("`y0` must hold one state per lane, shape (lanes, n).")
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"integration span ({t0:g}, {t1:g}) must be finite")
    if not np.isfinite(y0).all():
        raise ValueError("All components of the initial state `y0` must be finite.")
    if t1 == t0:
        raise ValueError(f"empty integration span: t1 = t0 = {t0:g}")
    n_lanes, n = y0.shape
    direction = 1.0 if t1 > t0 else -1.0
    rtol = max(rtol, 100 * EPS)   # scipy raises a too small rtol to this, with a warning
    if t_eval is not None:
        t_eval = np.asarray(t_eval, dtype=float)
        if t_eval.ndim != 1:
            raise ValueError("`t_eval` must be 1-dimensional.")
        if np.any(t_eval < min(t0, t1)) or np.any(t_eval > max(t0, t1)):
            raise ValueError("Values in `t_eval` are not within `t_span`.")
        if np.any(direction * np.diff(t_eval) <= 0):
            raise ValueError("Values in `t_eval` are not properly sorted.")
        # points passed at t: forward, those at or before t; backward, at or after
        ascending = (t_eval if direction > 0 else t_eval[::-1]).tolist()
        m = len(ascending)
        passed = ((lambda t: bisect_right(ascending, t)) if direction > 0 else
                  (lambda t: m - bisect_left(ascending, t)))
        emitted = [0] * n_lanes

    every = np.arange(n_lanes)

    def call(t, y, lanes):   # fun's value as (k, n); the stages store it into K directly
        return np.broadcast_to(np.asarray(fun(t, y, lanes), dtype=float), y.shape)

    def values(event, t, y, lanes):   # a one-lane event may return a scalar
        return np.asarray(event(t, y, lanes), dtype=float).reshape(t.shape).tolist()

    # State: t, y and f are replaced, never written in place, as views of them
    # serve as the old state through a step.
    t = np.full(n_lanes, t0)
    y = y0.copy()
    f = call(t, y, every)
    h_abs = _initial_step(call, t0, y, f, t1, direction, rtol, atol, every)
    nfev = [2] * n_lanes
    status = [RUNNING] * n_lanes
    retry = [False] * n_lanes    # the lane's last attempt was rejected
    t_stop = t.tolist()
    if events:
        dirs = [float(d) for _, d in events]
        g = [list(v) for v in zip(*(values(ev, t, y0, every) for ev, _ in events))]
        t_events = [[[] for _ in events] for _ in range(n_lanes)]
        y_events = [[[] for _ in events] for _ in range(n_lanes)]
    # output points as chunks of (lanes, times, states), sorted by lane at the end
    chunks = [] if t_eval is not None else [(every, t, y0)]

    run = list(range(n_lanes))
    while run:
        # each running lane's attempt, set up as scipy's _step_impl does
        ix = slice(None) if len(run) == n_lanes else np.array(run)
        go, hs, t_news = [], [], []
        for lane, t_l in zip(run, t[ix].tolist()):
            h_l = h_abs[lane]
            min_step = 10 * abs(math.nextafter(t_l, direction * math.inf) - t_l)
            if not retry[lane] and h_l < min_step:
                h_l = min_step
            if h_l < min_step:   # a rejected step shrank below the spacing of t
                status[lane] = FAILED
                t_stop[lane] = t_l
                continue
            t_new = t_l + h_l * direction
            if direction * (t_new - t1) > 0:
                t_new = t1
            go.append(lane)
            hs.append(t_new - t_l)
            t_news.append(t_new)
        if len(go) < len(run):
            run = go
            if not go:
                break
            ix = np.array(go)
        k = len(go)
        lanes = every[ix]
        ti, yi, fi = t[ix], y[ix], f[ix]
        h, t_new = np.array(hs), np.array(t_news)
        hc = h[:, None]
        tc = C_COLUMN * h + ti   # stage times t + c h

        K = _stage_store(k, n)
        sums = _sums(K)
        K[0] = fi
        for s in range(1, N_STAGES):
            dy = sums(s, A_ROWS[s]) * hc
            K[s] = fun(tc[s], yi + dy, lanes)
        y_new = yi + hc * sums(N_STAGES, B)
        K[N_STAGES] = fun(ti + h, y_new, lanes)
        f_new = K[N_STAGES]

        scale = atol + np.maximum(np.abs(yi), np.abs(y_new)) * rtol
        err5 = sums(N_STAGES + 1, E5) / scale
        err3 = sums(N_STAGES + 1, E3) / scale
        sq5, sq3 = np.vecdot(err5, err5).tolist(), np.vecdot(err3, err3).tolist()
        ok = []
        for j, lane in enumerate(go):
            nfev[lane] += N_STAGES
            # np.linalg.norm(err) ** 2, as scipy takes it
            err5_2, err3_2 = _power(math.sqrt(sq5[j]), 2), _power(math.sqrt(sq3[j]), 2)
            h_l = abs(hs[j])
            if err5_2 == 0 and err3_2 == 0:
                error_norm = 0.0
            else:
                error_norm = _ratio(h_l * err5_2, math.sqrt((err5_2 + 0.01 * err3_2) * n))
            if error_norm < 1:
                if error_norm == 0:
                    factor = MAX_FACTOR
                else:
                    factor = min(MAX_FACTOR, SAFETY * _power(error_norm, ERROR_EXPONENT))
                if retry[lane]:
                    factor = min(1, factor)
                retry[lane] = False
                ok.append(j)
            else:
                factor = max(MIN_FACTOR, SAFETY * _power(error_norm, ERROR_EXPONENT))
                retry[lane] = True
            h_abs[lane] = h_l * factor
        if not ok:
            continue

        # the accepted steps
        if len(ok) == k:
            acc, acc_ix = go, ix
        else:
            sel = np.array(ok)
            ti, yi, fi, h, t_new, y_new, f_new = (
                x[sel] for x in (ti, yi, fi, h, t_new, y_new, f_new))
            K = _take(K, sel)
            acc = [go[j] for j in ok]
            acc_ix = np.array(acc)
        if isinstance(acc_ix, slice):
            t, y, f = t_new, y_new, f_new
        else:
            t, y, f = t.copy(), y.copy(), f.copy()
            t[acc_ix], y[acc_ix], f[acc_ix] = t_new, y_new, f_new
        t_out = t_new.tolist()
        for lane, t_l in zip(acc, t_out):
            if direction * (t_l - t1) >= 0:
                status[lane] = FINISHED
                t_stop[lane] = t_l
        # the dense output is needed where an event fired or t_eval points were passed
        fired = [None] * len(acc)
        if events:
            g_new = list(zip(*(values(ev, t_new, y_new, every[acc_ix]) for ev, _ in events)))
            for j, lane in enumerate(acc):   # scipy's find_active_events
                fired[j] = [e for e, (a, b, d) in enumerate(zip(g[lane], g_new[j], dirs))
                            if (a <= 0 and b >= 0 and d >= 0) or (a >= 0 and b <= 0 and d <= 0)]
                g[lane] = g_new[j]
        if t_eval is not None:
            upto = [passed(t_l) for t_l in t_out]
        dj = [j for j, lane in enumerate(acc)
              if fired[j] or (t_eval is not None and upto[j] > emitted[lane])]
        y_out = y_new
        if dj:
            # dense output of those steps: three more stages each
            if len(dj) == len(acc):
                d_ix, Kd, td, yd, hd, fd, ynd, fnd, tnd = (
                    acc_ix, K, ti, yi, h, fi, y_new, f_new, t_new)
            else:
                sel = np.array(dj)
                d_ix = np.array([acc[j] for j in dj])
                td, yd, hd, fd, ynd, fnd, tnd = (
                    x[sel] for x in (ti, yi, h, fi, y_new, f_new, t_new))
                Kd = _take(K, sel)
            for j in dj:
                nfev[acc[j]] += N_STAGES_EXTENDED - N_STAGES - 1
            sums = _sums(Kd)
            hdc = hd[:, None]
            for s in range(N_STAGES + 1, N_STAGES_EXTENDED):
                dy = sums(s, A_ROWS[s]) * hdc
                Kd[s] = fun(td + C[s] * hd, yd + dy, every[d_ix])
            F = np.empty((len(dj), INTERPOLATOR_POWER, n))
            delta = ynd - yd
            F[:, 0] = delta
            F[:, 1] = hdc * fd - delta
            F[:, 2] = 2 * delta - hdc * (fnd + fd)
            F[:, 3:] = hd[:, None, None] * (np.dot(D, Kd[:, 0]) if len(dj) == 1 else
                                            np.matmul(D, Kd.transpose(1, 0, 2)))
            span = tnd - td   # scipy's DenseOutput.h
            row = {j: r for r, j in enumerate(dj)}

            def dense_at(rows, times):   # rows: one per time, or a one-row slice for all
                return _dense(F[rows], td[rows], span[rows], yd[rows], times)

            hits = [j for j in dj if fired[j]]
            if hits:   # locate the roots, as scipy's solve_event_equation does with brentq
                y_out = y_new.copy()
                roots = {}
                for e, (ev, _) in enumerate(events):
                    js = [j for j in hits if e in fired[j]]
                    if not js:
                        continue
                    rows = np.array([row[j] for j in js])
                    owners = np.array([acc[j] for j in js])
                    found = brentq(lambda x, q: ev(x, dense_at(rows[q], x), owners[q]),
                                   td[rows], tnd[rows], xtol=4 * EPS, rtol=4 * EPS)
                    roots.update(((j, e), r) for j, r in zip(js, found.tolist()))
                for j in hits:   # a lane stops at its first root: every event is terminal
                    lane_roots = np.array([roots[j, e] for e in fired[j]])
                    first = np.argsort(lane_roots if direction > 0 else -lane_roots)[0]
                    e, root = fired[j][first], float(lane_roots[first])
                    y_root = dense_at(slice(row[j], row[j] + 1), np.array([root]))[0]
                    lane = acc[j]
                    t_events[lane][e].append(root)
                    y_events[lane][e].append(y_root)
                    status[lane] = TERMINATED
                    t_stop[lane] = t_out[j] = root
                    y_out[j] = y_root
                    if t_eval is not None:
                        upto[j] = passed(root)

            if t_eval is not None:   # each lane's points passed in this step
                spans = [(row[j], lane, emitted[lane], upto[j])
                         for j, lane in enumerate(acc) if upto[j] > emitted[lane]]
                for _, lane, _, b in spans:
                    emitted[lane] = b
                if len(spans) == 1:
                    r, lane, a, b = spans[0]
                    tq = t_eval[a:b]
                    chunks.append((lane, tq, dense_at(slice(r, r + 1), tq)))
                elif spans:
                    counts = [b - a for _, _, a, b in spans]
                    tq = t_eval[np.concatenate([np.arange(a, b) for _, _, a, b in spans])]
                    chunks.append((np.repeat([lane for _, lane, _, _ in spans], counts), tq,
                                   dense_at(np.repeat([r for r, _, _, _ in spans], counts), tq)))
        if t_eval is None:
            chunks.append((every[acc_ix], t_new if y_out is y_new else np.array(t_out), y_out))
        run = [lane for lane in run if status[lane] == RUNNING]

    lanes_of = np.concatenate([np.broadcast_to(c[0], c[1].shape) for c in chunks]
                              or [np.zeros(0, dtype=int)])
    order = np.argsort(lanes_of, kind="stable")
    ts = np.concatenate([c[1] for c in chunks] or [np.zeros(0)])[order]
    ys = np.concatenate([c[2] for c in chunks] or [np.zeros((0, n))])[order]
    bounds = np.searchsorted(lanes_of[order], np.arange(n_lanes + 1))
    return Solution(lanes=[Lane(
        t=ts[bounds[k]:bounds[k + 1]], y=ys[bounds[k]:bounds[k + 1]].T,
        t_events=[np.asarray(x) for x in t_events[k]] if events else None,
        y_events=[np.asarray(x) for x in y_events[k]] if events else None,
        status=status[k], message=MESSAGES[status[k]], nfev=nfev[k], t_stop=t_stop[k])
        for k in range(n_lanes)], nfev=sum(nfev))


def _initial_step(call, t0, y0, f0, t1, direction, rtol, atol, lanes) -> list:
    """scipy's ``select_initial_step`` on each lane (Hairer, Norsett & Wanner, II.4)."""
    interval = abs(t1 - t0)
    scale = atol + np.abs(y0) * rtol
    d0, d1 = _rms(y0 / scale), _rms(f0 / scale)
    h0 = [min(1e-6 if a < 1e-5 or b < 1e-5 else 0.01 * a / b, interval)
          for a, b in zip(d0, d1)]
    h0_arr = np.array(h0)
    f1 = call(t0 + h0_arr * direction, y0 + (h0_arr * direction)[:, None] * f0, lanes)
    d2 = [_ratio(d, h) for d, h in zip(_rms((f1 - f0) / scale), h0)]
    return [min(100 * h, max(1e-6, h * 1e-3) if a <= 1e-15 and b <= 1e-15 else
                _power(_ratio(0.01, max(a, b)), 1 / 8), interval)
            for h, a, b in zip(h0, d1, d2)]
