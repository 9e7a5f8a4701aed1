"""The host's current speed, from a fixed pure-Python reference loop.

The benchmark runs on a shared host whose speed swings by up to 2x over
seconds to minutes (a neighbour's load, not steal time: CPU time slows
down just as wall time does).  The library is pure Python, and its
query and build times follow the time of a small interpreter-bound loop
closely: over two minutes of swings, per-1.5 s medians of extract and
``repair_compress`` times varied by 0.16-0.19 (standard deviation over
mean), and their ratios to the loop's time by 0.07-0.08.
``index_from_bytes`` follows it about half as much.

So every timed stretch is paired with samples of ``reference_loop``
taken next to it, and during it if it is long: an interval timer's
signal handler runs the loop every ``TICK_S`` seconds, and the handler's
own time is taken out of the stretch's time.  The loop allocates
nothing, so it never sets off a garbage collection of the program's
objects, and it runs as fast from the timer inside a long call as
outside it.  The benchmark reports its times scaled to the host speed
at which the loop takes ``REFERENCE_NS``:

    scaled time = measured time * REFERENCE_NS / loop time nearby

A scaled time is what the stretch would have taken at that speed.  The
loop is the benchmark's own code and never calls the library, so a
change to the library moves scaled times just as it moves raw ones.
``REFERENCE_NS`` and the loop are fixed: change either and scaled times
from before and after no longer compare.  Raw times are printed next to
the scaled ones.
"""

from __future__ import annotations

import signal
from array import array
from statistics import median
from time import perf_counter_ns

# The loop's time at the reference speed, about its fast-phase time on a
# 2.1 GHz Xeon VM under CPython 3.11.
REFERENCE_NS = 300_000
# Loop samples taken on each side of a stretch timed by ``Speedometer.timed``.
SAMPLES_PER_SIDE = 3
# Period of the samples taken during a stretch timed by ``Speedometer.timed``.
TICK_S = 0.02


_SMALL_INTS = tuple(i & 255 for i in range(6000))


def reference_loop() -> int:
    s = 0
    for i in _SMALL_INTS:
        s = (s * 3 + i) & 255
    return s


class Speedometer:
    """Samples ``reference_loop`` and keeps every sample taken."""

    def __init__(self):
        self.samples = array("q")

    def sample(self) -> int:
        t0 = perf_counter_ns()
        reference_loop()
        ns = perf_counter_ns() - t0
        self.samples.append(ns)
        return ns

    def timed(self, fn, *args):
        """``(fn(*args), raw seconds, scaled seconds)``.

        Raw seconds leave out the samples taken during the call.  The
        slowdown is the median of the samples taken just before, during
        and just after the call.
        """
        first = len(self.samples)
        for _ in range(SAMPLES_PER_SIDE):
            self.sample()
        ticks_ns = 0

        def tick(signum, frame):
            nonlocal ticks_ns
            t = perf_counter_ns()
            self.sample()
            ticks_ns += perf_counter_ns() - t

        previous = signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
        try:
            t0 = perf_counter_ns()
            out = fn(*args)
            ns = perf_counter_ns() - t0
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        ns -= ticks_ns
        for _ in range(SAMPLES_PER_SIDE):
            self.sample()
        slow = median(self.samples[first:]) / REFERENCE_NS
        return out, ns / 1e9, ns / 1e9 / slow

    def slowdown(self) -> float:
        """Median loop time of the run so far over ``REFERENCE_NS``."""
        return median(self.samples) / REFERENCE_NS if self.samples else float("nan")


def rolling_slowdowns(samples, window: int) -> list[float]:
    """Per sample: median of the samples within ``window`` of it, over ``REFERENCE_NS``."""
    n = len(samples)
    return [median(samples[max(0, i - window) : i + window + 1]) / REFERENCE_NS for i in range(n)]


class Stopwatch:
    """Sums the raw and scaled times of the calls made through ``run``."""

    def __init__(self, speed: Speedometer):
        self.speed = speed
        self.raw_s = 0.0
        self.scaled_s = 0.0

    def run(self, fn, *args):
        out, raw, scaled = self.speed.timed(fn, *args)
        self.raw_s += raw
        self.scaled_s += scaled
        return out
