"""A clock that runs at the speed of the machine as it is at each moment.

The benchmark shares a small machine with other tenants, whose load can
make every process on it run up to twice as slow for tens of seconds at a
time.  A plain timer then measures the neighbours as much as the program.
:class:`ReferenceClock` samples that slowdown about ten times a second by
timing a fixed loop of ``Fraction`` sums and dict stores, the kind of work
that fills the program's time.  It then advances by the wall time that
has passed, scaled by ``REFERENCE_S`` over that loop's recent time, so a
reading is the time the work would have taken on the machine with the
loop at its reference speed.  The samples themselves are not counted.
"""

from __future__ import annotations

import gc
import signal
import statistics
from contextlib import contextmanager
from fractions import Fraction
from time import perf_counter

# About the seconds the reference loop takes between the program's calls
# on a quiet 2-vCPU Xeon virtual machine.  It sets only the scale of all
# times, which it keeps near wall seconds.
REFERENCE_S = 0.0008
PERIOD_S = 0.1
WINDOW = 3


def reference_loop() -> float:
    """Seconds one run of the fixed reference loop takes."""
    start = perf_counter()
    total, seen = Fraction(0), {}
    for i in range(1, 330):
        total += Fraction(1, i % 97 + 1)
        seen[total.numerator % 1000, i % 7] = total
    return perf_counter() - start


class ReferenceClock:
    """Reads in reference seconds.  Call :meth:`ticking` to sample the
    machine's speed in the background while the clock is read."""

    def __init__(self):
        self._loops = [self._loop() for _ in range(WINDOW)]
        self._scale = REFERENCE_S / statistics.median(self._loops)
        self._ticks = 0.0
        self._mark = perf_counter()

    @staticmethod
    def _loop() -> float:
        # The loop's garbage must not set off a collection of the
        # program's objects here, where its time would not be counted.
        enabled = gc.isenabled()
        gc.disable()
        try:
            return reference_loop()
        finally:
            if enabled:
                gc.enable()

    def sample(self, *_signal) -> None:
        """Time the reference loop once and advance the clock to now;
        the time since the last sample is scaled by the mean of the scales
        before and after it."""
        start = perf_counter()
        self._loops = self._loops[1:] + [self._loop()]
        end = perf_counter()
        scale = REFERENCE_S / statistics.median(self._loops)
        self._ticks += (start - self._mark) * (self._scale + scale) / 2
        self._scale, self._mark = scale, end

    def now(self) -> float:
        # Read the wall clock first: a sample that interrupts this line
        # then moves the reading by the sample's own length, not by the
        # whole period.
        wall = perf_counter()
        return self._ticks + (wall - self._mark) * self._scale

    @contextmanager
    def ticking(self):
        """Sample every ``PERIOD_S`` seconds of wall time while inside."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
