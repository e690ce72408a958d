"""Machine-speed sampling: a tiny fixed kernel timed all through a pass.

The benchmark's host is shared, and its speed drifts by up to half, in phases
from a second to minutes long, while a process's CPU time stays close to its
wall time. Pass times therefore follow the machine, not only the program.
`Sampler` runs `tick`, a quarter of a millisecond of fixed work that uses
nothing of osruq (scalar Python, small numpy products and reductions, one
64 x 64 matrix product), from a SIGALRM handler every `INTERVAL_S` of wall
time while a pass runs. The handler's time is taken out of the pass time, and
`at_reference_speed` scales what is left by the ticks' harmonic mean: the
program's progress at a moment is inversely proportional to the tick time
then.

A tick runs between bytecodes of the main thread, so a long call into C (a
large BLAS product, `json.dumps` of a bundle) delays the next tick, and the
call is weighted by the speed measured around it.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Seconds one tick takes at reference speed, about its median on the machine
# that the reference figures in README.md come from. It only fixes the scale
# of the normalised times; any fixed value would serve.
REF_TICK_S = 0.2e-3
INTERVAL_S = 0.025
# ticks timed before each set-up sample, which runs in a child process
SETUP_TICKS = 400

_RNG = np.random.default_rng(20240826)
_GALLERY = _RNG.standard_normal((300, 16))
_PROBE = _RNG.standard_normal(16)
_SQUARE = _RNG.standard_normal((64, 64))


def tick() -> float:
    """Wall seconds of one run of the fixed kernel."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(600):
        acc += (i * 0.5) % 7.0
    for _ in range(15):
        scores = _GALLERY @ _PROBE
        acc += float(np.log(np.exp(scores - scores.max()).sum()))
    _SQUARE @ _SQUARE
    return time.perf_counter() - t0


def ticks(n: int) -> list:
    return [tick() for _ in range(n)]


def at_reference_speed(seconds: float, tick_times) -> float:
    """`seconds` as they would read at reference speed, given the tick times
    taken while they ran."""
    return seconds * REF_TICK_S / statistics.harmonic_mean(tick_times)


class Sampler:
    """While active, times a tick every INTERVAL_S of wall time.

    `tick_times` holds the ticks, and `handler_s` the wall time spent in the
    handler, which the caller takes out of the time it measures.
    """

    def __init__(self):
        self.tick_times = []
        self.handler_s = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        self.tick_times.append(tick())
        self.handler_s += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.tick_times:  # shorter than one interval
            self.tick_times.append(tick())
        return False
