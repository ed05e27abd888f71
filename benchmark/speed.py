"""Times in reference seconds, so that a busy host does not move them.

The machines this benchmark runs on are shared: for seconds at a time a
process may run at half speed, and a whole 30-second run may fall into a
slow stretch.  A plain wall time then moves by tens of percent between runs
of the same code.  So each measured process samples its own speed with
``calibrate``, a fixed piece of exact rational arithmetic like the work
wpvol does, and every timed interval is converted to reference seconds:

    (interval - calibration time inside it) * mean(REFERENCE_NS / sample)

over the samples taken during the interval or within a quarter second of
it, where the host's speed has barely changed.
A reference second is a second at the speed at which ``calibrate`` takes
REFERENCE_NS, about full speed on a 2.1 GHz Xeon core.  The mean of the
inverse durations is the mean speed, and a sample stretched by a context
switch barely lowers it.
"""

from __future__ import annotations

import signal
import time
from fractions import Fraction

REFERENCE_NS = 1_000_000
PERIOD_S = 0.05  # sampling period of a long interval, about 2% of its time
WINDOW_NS = 250_000_000


def mono_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def calibrate() -> Fraction:
    """A sum of Fractions: like wpvol's own arithmetic, it slows down with
    the host as the workloads do, where a loop on bare ints does not.  Its
    objects die at once, so the collector's allocation count is unmoved."""
    total = Fraction(0)
    for i in range(1, 500):
        total += Fraction(i % 89 + 1, i % 97 + 1)
    return total


class Speedometer:
    """Calibration samples of one process: (start, duration) nanoseconds."""

    def __init__(self):
        self.samples: list[tuple[int, int]] = []

    def sample(self, *_ignored) -> None:
        start = mono_ns()
        calibrate()
        self.samples.append((start, mono_ns() - start))

    def start_timer(self) -> None:
        """Sample every PERIOD_S from a SIGALRM handler until ``stop_timer``."""
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)


def reference_ns(samples, start: int, end: int) -> float:
    """Reference nanoseconds of the interval [start, end].

    ``samples`` are (start, duration) pairs in time order, taken by the
    process that ran the interval and possibly by processes run just before
    or after it.  The speed comes from the samples within WINDOW_NS of the
    interval, or the nearest one on each side when none is that close.
    """
    inside = [s for s in samples if start <= s[0] and s[0] + s[1] <= end]
    near = [s for s in samples if start - WINDOW_NS <= s[0] and s[0] + s[1] <= end + WINDOW_NS]
    if not near:
        near = [s for s in samples if s[0] + s[1] <= start][-1:]
        near += [s for s in samples if s[0] >= end][:1]
    if not near:
        raise ValueError("no speed sample near the interval")
    speed = sum(REFERENCE_NS / d for _, d in near) / len(near)
    return (end - start - sum(d for _, d in inside)) * speed
