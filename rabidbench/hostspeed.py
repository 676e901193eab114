"""Host-speed probe: wall-clock timings corrected for a drifting host.

On a shared host the same interpreter work can take a third longer from
one second to the next, and medians of whole runs drift as much between
runs made an hour apart. While a workload runs, a ``SIGALRM`` timer
interrupts the main thread every ``PROBE_INTERVAL_S`` and times a fixed
snippet of interpreter work (dict updates, integer arithmetic, a sort)
in thread CPU seconds. A timed span's *speed factor* is the mean probe
time in that span over ``REFERENCE_PROBE_S``; the span's normalised
seconds are its wall seconds, minus the probes run inside it, divided by
that factor: the time the span would have taken at the reference speed.

The probe is the benchmark's own code, so a change to the program moves
the normalised time and leaves the factor alone.
"""

from __future__ import annotations

import bisect
import contextlib
import signal
import time
from typing import Iterator, List

#: Probe period; each probe takes about 0.3 ms, so ~1.5% of the run.
PROBE_INTERVAL_S = 0.02
#: Probe CPU seconds at the reference speed (a typical value on a
#: 2-core x86-64 host under CPython 3.11).
REFERENCE_PROBE_S = 3.0e-4
#: A span with fewer probes inside borrows the nearest ones around it.
MIN_PROBES = 8


def _probe_work() -> int:
    table: dict = {}
    total = 0
    for i in range(1500):
        key = i % 61
        table[key] = table.get(key, 0) + i
        total += (i * 7) % 13
    return total + sorted(table.values())[0]


class SpeedProbe:
    """Probe start times, wall seconds and CPU seconds, in start order."""

    def __init__(self) -> None:
        self.starts: List[float] = []
        self.walls: List[float] = []
        self.cpus: List[float] = []

    def _tick(self, signum, frame) -> None:
        wall = time.perf_counter()
        cpu = time.thread_time()
        _probe_work()
        self.cpus.append(time.thread_time() - cpu)
        self.walls.append(time.perf_counter() - wall)
        self.starts.append(wall)

    @contextlib.contextmanager
    def running(self) -> Iterator["SpeedProbe"]:
        """Probe the host while active; the timer is stopped on every exit."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    # ``_tick`` appends ``starts`` last, so every index below
    # ``len(starts)`` is complete even if a tick lands mid-computation.
    def _inside(self, start: float, end: float) -> range:
        n = len(self.starts)
        return range(
            bisect.bisect_left(self.starts, start, 0, n),
            bisect.bisect_right(self.starts, end, 0, n),
        )

    def factor(self, start: float, end: float) -> float:
        """Mean probe time over ``[start, end]`` relative to the reference;
        above 1 the host ran slower than the reference."""
        inside = self._inside(start, end)
        n = len(self.starts)
        lo, hi = inside.start, inside.stop
        while hi - lo < MIN_PROBES and (lo > 0 or hi < n):
            if lo > 0:
                lo -= 1
            if hi < n and hi - lo < MIN_PROBES:
                hi += 1
        if hi == lo:
            return 1.0
        return sum(self.cpus[lo:hi]) / (hi - lo) / REFERENCE_PROBE_S

    def seconds(self, start: float, end: float) -> float:
        """Normalised seconds of the span ``[start, end]`` (perf_counter)."""
        probes = sum(
            self.walls[i] for i in self._inside(start, end)
            if self.starts[i] + self.walls[i] <= end
        )
        return (end - start - probes) / self.factor(start, end)
