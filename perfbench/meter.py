"""Host speed meter for the benchmark's parent process.

The benchmark host is a few cores of a shared machine, and a core's speed
changes by up to about 1.5x within seconds as its neighbours' load comes
and goes; a fixed pure-Python loop shows it in CPU time as much as in wall
time.  A pass of a workload is long enough to mix fast and slow periods,
and the mix changes from run to run, so raw times of identical passes
spread by up to a quarter of their median.

`SpeedMeter` runs a short fixed sympy computation every INTERVAL_S in a
thread of the parent, which is pinned to the same core as the workload's
processes, and keeps each loop's thread CPU time with its start on
CLOCK_MONOTONIC.  `slowdown(t0, t1)` is the mean loop time over a window
divided by REFERENCE_LOOP_S, so a time measured over that window divided by
the slowdown is the time at the reference speed: the speed at which the
loop takes REFERENCE_LOOP_S.  On the 2-vCPU x86_64 Xeon host the benchmark
was defined on, five runs of suite-sphere3-critical measured 49.2-62.2 s
and scaled 46.9-50.1 s.  The parent is otherwise idle while a child runs
(it waits in wait4, without the GIL), so the meter costs the child about 5%
of its core, the same in every run.
"""

from __future__ import annotations

import statistics
import threading
import time
from array import array
from bisect import bisect_left, bisect_right

import sympy
from sympy.core.cache import clear_cache

#: pause between two loops
INTERVAL_S = 0.1
#: the loop's time at the reference speed: the order of its time on the
#: host above, fixed so that scaled times of different runs compare
REFERENCE_LOOP_S = 5.0e-3
#: a window with fewer loops is widened to its nearest MIN_SAMPLES loops
#: (about 2 s: one loop's time varies by a quarter even on a steady core)
MIN_SAMPLES = 20

_X, _Y = sympy.symbols("x y")


def _mono_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def _loop():
    """A small sympy expansion from an empty cache: object-heavy work like
    the program's, which slows down as much as the program in the host's
    slow periods (a pure integer loop slows down only two thirds as much)."""
    clear_cache()
    return sympy.expand((_X + 2 * _Y + 1) ** 3)


class SpeedMeter:
    """Samples the speed of the calling thread's core until `stop()`."""

    def __init__(self):
        self._starts = array("q")
        self._loops = array("q")
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True,
                                        name="speed-meter")

    def __enter__(self) -> "SpeedMeter":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(INTERVAL_S):
            start = _mono_ns()
            c0 = time.thread_time_ns()
            _loop()
            self._loops.append(time.thread_time_ns() - c0)
            self._starts.append(start)

    def slowdown(self, t0_ns: int, t1_ns: int) -> float:
        """Mean loop time of the window [t0_ns, t1_ns] over the reference
        loop time (> 1 when the core was slower than the reference)."""
        n = len(self._starts)        # the loop time is appended first
        if n < MIN_SAMPLES:
            raise ValueError(f"speed meter has {n} samples, needs "
                             f"{MIN_SAMPLES}")
        starts = self._starts[:n]
        lo, hi = bisect_left(starts, t0_ns), bisect_right(starts, t1_ns)
        while hi - lo < MIN_SAMPLES:
            if lo > 0 and (hi == n or t0_ns - starts[lo - 1]
                           <= starts[hi] - t1_ns):
                lo -= 1
            else:
                hi += 1
        mean_ns = statistics.fmean(self._loops[lo:hi])
        return mean_ns / 1e9 / REFERENCE_LOOP_S
