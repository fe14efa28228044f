"""Host speed probe, for timings on a host whose speed drifts.

On the shared 2-core reference host one and the same pass takes between 1x
and 1.5x its fastest time, in phases that last from seconds to minutes, and a
pure-Python loop drifts the same way. Pass times are therefore reported at the
host's nominal speed: measured seconds times ``NOMINAL_S`` over the mean probe
time taken in the same window, with probes run between the library calls of
every pass so that they sample the same phases. The raw seconds are printed
beside every normalized value.

The probe is small-object float arithmetic shaped like the jets layer, written
here so that no change to the library can change it.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.025  # probe time on the reference host at its typical speed


class _Jet:
    __slots__ = ("val", "grad")

    def __init__(self, val, grad):
        self.val = val
        self.grad = grad

    def __add__(self, other):
        g, h = self.grad, other.grad
        return _Jet(self.val + other.val, (g[0] + h[0], g[1] + h[1], g[2] + h[2]))

    def __mul__(self, other):
        u, v, g, h = self.val, other.val, self.grad, other.grad
        return _Jet(u * v, (g[0] * v + u * h[0], g[1] * v + u * h[1], g[2] * v + u * h[2]))


def probe() -> float:
    """Seconds taken by one fixed unit of work."""
    zero = _Jet(0.0, (0.0, 0.0, 0.0))
    start = time.perf_counter()
    for i in range(200):
        x = _Jet(_Jet(1.0 + 1e-3 * i, (1.0, 0.0, 0.0)),
                 (_Jet(1.0, (0.0, 0.0, 0.0)), zero, zero))
        y = x
        for _ in range(10):
            y = y * x + x
    return time.perf_counter() - start


class Probes:
    """Probe times collected between library calls, and the time they took."""

    def __init__(self):
        self.times = []

    def __call__(self):
        self.times.append(probe())

    def spent(self, since=0):
        return sum(self.times[since:])
