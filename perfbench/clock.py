"""Timing in reference seconds.

The machines this benchmark runs on can share their cores with other tenants,
and the same interpreter-bound work takes up to 1.8 times longer when a
neighbour is busy; the slow and fast spells last from seconds to minutes.
So while a run is timed, a fixed probe (exact rational arithmetic and dict
updates, the kind of work the library does) runs every PROBE_INTERVAL_S
from a SIGALRM handler, and a timed interval is reported as

    (wall time - probe time inside it) * mean(PROBE_REF_S / probe time)

over the probes taken during the interval, probe time being the probe's CPU
time: the time the interval would have taken at the speed at which the
probe takes PROBE_REF_S.  The probe runs in the benchmark process and
touches nothing of the program's.  The raw wall times are kept in the run's
details.
"""

from __future__ import annotations

import bisect
import os
import signal
import time
from fractions import Fraction

PROBE_INTERVAL_S = 0.1
PROBE_REF_S = 0.0025


def probe():
    acc = {}
    third = Fraction(1, 3)
    for i in range(1, 240):
        v = Fraction(i, 7) * third + Fraction(1, i)
        acc[i % 17] = acc.get(i % 17, 0) + v
    return acc


def pin():
    """Keep this process and its children on one core, so that the probes
    measure the speed of the core the timed work runs on."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


class Clock:
    """Samples the probe while running; converts intervals to reference
    seconds.  An optional deadline kills a child process that outlives it
    (the handler is the only thing that runs while the benchmark waits)."""

    def __init__(self):
        self.at = []      # probe start times
        self.took = []    # probe durations
        self.child = None
        self.deadline = None
        self._old = None

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        c0 = time.process_time()
        probe()
        self.at.append(t0)
        # CPU time, not wall time: on the shared core a child may hold the
        # CPU for part of the probe, which says nothing about the speed
        self.took.append(time.process_time() - c0)
        if self.child is not None and self.deadline is not None and t0 > self.deadline:
            self.child.kill()

    def reference_s(self, t0: float, t1: float) -> float:
        """Reference seconds of the interval [t0, t1] of perf_counter time
        (CLOCK_MONOTONIC, the same in every process).  The benchmark and its
        children share one core (see ``pin``), so every probe inside the
        interval took its time from the work being timed."""
        lo, hi = bisect.bisect_left(self.at, t0), bisect.bisect_right(self.at, t1)
        took = self.took[lo:hi]
        if not took:  # shorter than one probe interval: use the nearest probes
            took = self.took[max(0, lo - 2):lo + 2] or [PROBE_REF_S]
            busy = 0.0
        else:
            busy = sum(took)
        speed = sum(PROBE_REF_S / d for d in took) / len(took)
        return (t1 - t0 - busy) * speed
