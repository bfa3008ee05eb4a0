"""The host's speed, sampled by a fixed reference loop between timed calls.

On a shared host the same code runs up to 1.8x slower from one second to
the next, and the drift over minutes moves a whole run's times by 15-20 %.
A reference loop of the benchmark's own, run for a few milliseconds every
INTERVAL_S, slows down with the host: dividing a call's time by the loop's
time around it cancels the host's speed and keeps the program's.  A scaled
second is a second on a host where the loop takes REFERENCE_S.

In process, a timer signal runs the loop inside long calls too, and the
caller takes the loop's time (spent_s) out of the call's.  Around a child
process, which goes on running meanwhile, the loop runs between calls only.

The loop does pure-Python integer, dict and list work, as bigsurf does, and
runs with the garbage collector off, so that the program's heap does not
change its time.  A change to the program moves scaled and raw times alike.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import signal
import statistics
from time import perf_counter
from typing import Iterator

REFERENCE_S = 0.010  # the loop's time at this host's usual speed
INTERVAL_S = 0.2  # a sample at least this often while a run is timed
WINDOW_S = 0.3  # samples this close to a call set its scale


def reference_loop() -> int:
    """Fixed work, about REFERENCE_S on a 2-vCPU x86 cloud host."""
    total, table = 0, {}
    for i in range(68000):
        total += i * i % 7
        table[i & 1023] = total
    ordered = sorted(range(26000), key=lambda x: -x)
    return total + ordered[0] + len(table)


class SpeedMeter:
    """Samples of the reference loop's time, and the scale they give."""

    def __init__(self) -> None:
        self.mids: list[float] = []
        self.times: list[float] = []
        self.spent_s = 0.0
        self._sampling = False

    def sample(self) -> None:
        if self._sampling:
            return
        self._sampling = True
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            reference_loop()
            t1 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.mids.append((t0 + t1) / 2)
        self.times.append(t1 - t0)
        self.spent_s += perf_counter() - t0
        self._sampling = False

    def due(self) -> None:
        """Sample if the last sample is older than INTERVAL_S."""
        if not self.mids or perf_counter() - self.mids[-1] >= INTERVAL_S:
            self.sample()

    @contextlib.contextmanager
    def ticking(self) -> Iterator[None]:
        """Sample every INTERVAL_S on a timer signal, inside calls too."""
        previous = signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """REFERENCE_S over the median loop time around [start, end]: the
        samples within WINDOW_S of it, and at least the last one before and
        the first one after it."""
        lo = bisect.bisect_left(self.mids, start - WINDOW_S)
        hi = bisect.bisect_right(self.mids, end + WINDOW_S)
        lo = min(lo, max(bisect.bisect_left(self.mids, start) - 1, 0))
        hi = max(hi, min(bisect.bisect_right(self.mids, end) + 1, len(self.mids)))
        if lo >= hi:
            raise ValueError("no speed sample taken")
        return REFERENCE_S / statistics.median(self.times[lo:hi])

    def median_s(self) -> float:
        return statistics.median(self.times)


class NoMeter:
    """A meter that takes no samples, for untimed passes."""

    spent_s = 0.0

    def due(self) -> None:
        pass

    def sample(self) -> None:
        pass
