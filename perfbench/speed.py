"""Correction of measured times for the machine's speed at the moment.

The benchmark runs on machines shared with other work.  There, other load
slows this process by up to half, for stretches of seconds to minutes, and
a whole run can fall into such a stretch.  To compare runs made at
different moments, every time is scaled to a fixed machine speed:

* ``probe()`` times a fixed pure-Python loop (tuples, a dict and integers,
  like the program's own inner loops, but no polytutte code, so no change
  to the program can change it);
* ``SpeedProbe`` runs that probe every ``PERIOD_S`` seconds from a SIGALRM
  handler while the workload runs, so long operations are sampled too;
* ``SpeedProbe.corrected(start, end)`` takes the interval's wall time minus
  the probes inside it, times (``NOMINAL_PROBE_S`` over the median time of
  the probes within ``WINDOW_S`` of the interval) to the power
  ``ELASTICITY``.

A reported time is therefore an estimate of the time the operation takes
when the probe, run from the timer signal, takes ``NOMINAL_PROBE_S``: its
typical time on the machine the bounds were set on (an x86-64 Xeon with two
cores, Python 3.11).  Any change to the program's own speed shows in full.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
from time import perf_counter

NOMINAL_PROBE_S = 0.0019
# How much the workload slows per unit of probe slowdown, on a log scale:
# fitted over 14 passes of rank-files, where it left a 2% spread of pass
# times against 9% uncorrected (0.6 to 0.9 fitted about as well).
ELASTICITY = 0.75
PERIOD_S = 0.1
WINDOW_S = 0.3  # probes this close to an interval give its speed


def probe() -> float:
    """Seconds taken by a fixed loop of interpreter work.

    The loop keeps a small working set and runs with the garbage collector
    off, so that its time depends on the machine and not on how many
    objects the workload holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table: dict = {}
        total = 0
        for i in range(4000):
            key = (i & 63, i % 7)
            table[key] = table.get(key, 0) + i
            total += key[1] * 3 - i
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Samples the machine speed from a timer signal while a workload runs."""

    def __init__(self):
        self.times: list[float] = []  # when each probe ran
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        at = perf_counter()
        self.durations.append(probe())
        self.times.append(at)

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._sample(None, None)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample(None, None)

    def corrected(self, start: float, end: float) -> float:
        """Time of [start, end] at the nominal speed, probes excluded."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_left(self.times, end)
        busy = sum(self.durations[lo:hi])
        near = self.durations[
            bisect.bisect_left(self.times, start - WINDOW_S) : bisect.bisect_right(self.times, end + WINDOW_S)
        ]
        return (end - start - busy) * (NOMINAL_PROBE_S / statistics.median(near)) ** ELASTICITY
