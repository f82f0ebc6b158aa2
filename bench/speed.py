"""Machine speed, measured with a fixed kernel next to the timed work.

Other tenants of a shared host slow this process by up to about 1.5x for
tens of seconds at a time, which moves a 30 s run's wall time by 20 % or
more.  The benchmark therefore scales every timed interval by the speed the
machine ran at meanwhile: ``CAL_NOMINAL_S / calibrate()``, averaged over
samples taken during the interval.  ``calibrate()`` is a scalar RK4-like
loop in plain Python, like the program's hot loops, but shares no code with
tubeint, so a change to the program cannot change it.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

CAL_NOMINAL_S = 1.0e-3   # calibrate() on the reference machine at its fastest
SAMPLE_EVERY_S = 0.2


def calibrate() -> float:
    """Seconds for a fixed scalar RK4-like loop that shares no code with tubeint."""
    start = time.perf_counter()
    x, v, h = 0.3, 0.0, 1e-3
    for k in range(2500):
        t = k * h
        a1x, a1v = v, -x - 0.5 * x * x + 0.1 * math.cos(t)
        x2 = x + 0.5 * h * a1x
        a2x, a2v = v + 0.5 * h * a1v, -x2 - 0.5 * x2 * x2 + 0.1 * math.cos(t + 0.5 * h)
        x += 0.5 * h * (a1x + a2x)
        v += 0.5 * h * (a1v + a2v)
    return time.perf_counter() - start


class SpeedSampler:
    """Samples the machine speed during a timed interval.

    Every SAMPLE_EVERY_S of wall time a SIGALRM
    handler runs ``calibrate()`` (about 1 ms) in this thread, between
    bytecodes of whatever job is running.  ``speed`` is the mean of
    CAL_NOMINAL_S / sample, so wall time x speed estimates the pass's time at
    the reference speed.  The handler's own time is reported in ``spent``, for
    the caller to leave out of the interval.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self._sample(None, None)   # at least one sample, even for a short pass
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def speed(self) -> float:
        return statistics.fmean(CAL_NOMINAL_S / c for c in self.samples)
