"""The host's speed, sampled while a measurement runs, so that a time can be
scaled to a calm host.

The benchmark runs on a few cores of a shared host.  Other tenants slow it
down in spells that last from one to several seconds, by up to 1.7 times,
and some spells last minutes; the slowdown is in the execution itself, so
CPU time moves with wall time.  No repetition within a run of a minute gets
a call of several seconds clear of that.

So every timed process runs a pacer: a daemon thread that wakes every few
milliseconds and times a fixed unit of pure-Python work.  The process is
pinned to one CPU first, so the pacer and the measured code share it, and
the GIL makes them take turns.  A time measured from t0 to t1 is divided by
the mean unit time in that interval (widened by a margin, so that short
calls get a sample) over the unit time of a calm host, `CALM_UNIT_S`.
The result reads in seconds at calm speed.  The pacer costs the measured
code about one percent, the same for every version of `hsl`.
"""

from __future__ import annotations

import bisect
import os
import threading
import time
from array import array

PERIOD_S = 0.004
UNIT_LOOPS = 300
MARGIN_S = 0.05
MIN_SAMPLES = 4
# About the mean unit time the pacer sees, beside `hsl` code, in the calm
# spells of the 2-CPU Xeon host the benchmark was tuned on, so that calm
# times read close to measured ones there.  Any fixed value would do: it
# sets the scale of the times, not their ratios.
CALM_UNIT_S = 50e-6


def pin_to_one_cpu() -> None:
    """Run this process, and what it starts later, on one CPU only."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def unit() -> float:
    t = time.perf_counter()
    d: dict = {}
    for i in range(UNIT_LOOPS):
        d[i % 97] = d.get(i % 97, 0) + i * i % 7
    return time.perf_counter() - t


class Pacer:
    """Samples the unit time from a daemon thread until `stop`."""

    def __init__(self) -> None:
        self.ends = array("d")
        self.units = array("d")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "Pacer":
        pin_to_one_cpu()
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            took = unit()
            # units first: a reader bounded by len(ends) always finds its unit
            self.units.append(took)
            self.ends.append(time.perf_counter())

    def slowdown(self, t0: float, t1: float) -> float:
        """How many times slower than a calm host the CPU ran from t0 to
        t1: the mean unit time around that interval over CALM_UNIT_S."""
        ends = self.ends
        lo = bisect.bisect_left(ends, t0 - MARGIN_S)
        hi = bisect.bisect_right(ends, t1 + MARGIN_S)
        if hi - lo < MIN_SAMPLES:
            # too few samples around the interval: take the nearest ones
            mid = bisect.bisect_left(ends, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(ends) - MIN_SAMPLES))
            hi = min(len(ends), lo + MIN_SAMPLES)
        if hi <= lo:
            return 1.0
        return sum(self.units[lo:hi]) / (hi - lo) / CALM_UNIT_S

    def calm(self, t0: float, t1: float) -> float:
        """Seconds from t0 to t1, scaled to a calm host."""
        return (t1 - t0) / self.slowdown(t0, t1)
