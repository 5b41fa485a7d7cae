"""How fast the machine ran around each timed piece of work.

The benchmark's host is shared: the same work takes up to about 1.7x longer
in some windows than in others, in phases from under a second to minutes,
so whole runs, and stretches within a run, come out fast or slow together.
To keep that out of the timings, a fixed pure-Python loop (`probe`) is timed
between operations, PROBES times in a row at most once every INTERVAL_S
seconds, outside every operation's timing. The slowness around a piece of
work is the mean probe time of the ticks from WINDOW_S before it starts to
WINDOW_S after it ends, divided by REFERENCE_S; its time divided by that
slowness is in reference seconds, what it would have taken on a machine on
which the probe takes REFERENCE_S. The probe calls no program code, so a
change to the program does not move it.
"""

from __future__ import annotations

import bisect

INTERVAL_S = 0.05
PROBES = 3
WINDOW_S = 1.0
REFERENCE_S = 0.0015   # about the typical probe time on the baseline's host


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key = key
        self.value = value

    def bump(self, by):
        self.value += by
        return self.value


def probe() -> int:
    """About a millisecond of the kinds of work the program does: attribute
    access, method calls, dict and list operations and small integers."""
    cells = {}
    queue = []
    total = 0
    for i in range(3300):
        k = i & 127
        cell = cells.get(k)
        if cell is None:
            cell = cells[k] = _Cell(k, 0)
        total += cell.bump(i) & 7
        queue.append((k, cell.value))
        if len(queue) > 32:
            total += sum(v for _, v in queue) & 15
            queue.clear()
    return total


class Calibration:
    def __init__(self, clock):
        self.clock = clock
        self.times: list[float] = []    # start of each tick, ascending
        self.probe_s: list[float] = []  # its mean probe time
        self._next = 0.0

    def tick(self, force: bool = False):
        """Call before each timed operation, and with force around other timed work."""
        t0 = self.clock()
        if t0 < self._next and not force:
            return
        for _ in range(PROBES):
            probe()
        t1 = self.clock()
        self.times.append(t0)
        self.probe_s.append((t1 - t0) / PROBES)
        self._next = t1 + INTERVAL_S

    def slowness(self, start: float, seconds: float) -> float:
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, start + seconds + WINDOW_S)
        near = self.probe_s[lo:hi] or [self.probe_s[max(lo - 1, 0)]]
        return sum(near) / len(near) / REFERENCE_S

    def reference_s(self, start: float, seconds: float) -> float:
        return seconds / self.slowness(start, seconds)

    def mean_slowness(self) -> float:
        return sum(self.probe_s) / len(self.probe_s) / REFERENCE_S
