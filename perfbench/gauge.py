"""A gauge of the machine's speed of the moment, for drift-corrected times.

On a shared virtual machine the CPU speed drifts: for stretches of seconds
to minutes the same schedule build runs up to 1.8 times slower, and the
process's CPU time slows just as much. A fixed pure-Python kernel, timed
every GAUGE_EVERY seconds between operations, slows with it. The kernel
does the kind of work the program does: tree paths from breadth-first-id
arithmetic, set disjointness tests and updates, dict updates and a sort.

An operation's corrected time is its time over the kernel's time around
it (the median of the kernel's timings within WINDOW seconds of its start
and of its end, averaged), times NOMINAL_S: what it would take on a machine
where the kernel takes 10 ms, about this machine's speed when it is not
slowed. The kernel is the benchmark's own code, so a change to the program
moves an operation's time and not the kernel's.
"""

from __future__ import annotations

import bisect
import random
import statistics
from time import perf_counter

GAUGE_EVERY = 0.3  # s between kernel timings
WINDOW = 2.0       # s either side of a moment whose speed is wanted
NOMINAL_S = 0.010  # the kernel's time the corrected times are scaled to

K = 3
N = 1093  # a complete ternary tree of height 6
_rng = random.Random(7)
PAIRS = [(_rng.randint(1, N), _rng.randint(1, N)) for _ in range(3000)]


def _path(a: int, b: int) -> list[tuple[int, int]]:
    out = []
    while a != b:
        if a > b:
            p = (a - 2) // K + 1
            out.append((p, a))
            a = p
        else:
            p = (b - 2) // K + 1
            out.append((p, b))
            b = p
    return out


def kernel() -> int:
    used: set = set()
    cost: dict = {}
    for a, b in PAIRS:
        p = _path(a, b)
        if used.isdisjoint(p):
            used.update(p)
        cost[(a, b)] = len(p) + cost.get((b, a), 0)
        if len(used) > 1000:
            used = set(sorted(used)[:100])
    tally: dict = {}
    for i in range(40_000):
        tally[i % 5003] = tally.get(i % 7919, 0) + i
    return len(cost) + len(tally)


class Gauge:
    """Timings of the kernel, taken when the last is older than GAUGE_EVERY."""

    def __init__(self):
        self.at: list[float] = []     # when each timing ended
        self.took: list[float] = []   # what each took

    def tick(self) -> float:
        """Time the kernel if the last timing is stale; its latest time."""
        if not self.at or perf_counter() - self.at[-1] > GAUGE_EVERY:
            self.measure()
        return self.took[-1]

    def measure(self) -> float:
        t0 = perf_counter()
        kernel()
        self.at.append(perf_counter())
        self.took.append(self.at[-1] - t0)
        return self.took[-1]

    def around(self, t: float) -> float:
        """The median kernel time within WINDOW s of t, else the nearest."""
        lo = bisect.bisect_left(self.at, t - WINDOW)
        hi = bisect.bisect_right(self.at, t + WINDOW)
        if hi > lo:
            return statistics.median(self.took[lo:hi])
        i = min(bisect.bisect_left(self.at, t), len(self.at) - 1)
        return self.took[i]

    def scale(self, start: float, seconds: float) -> float:
        """NOMINAL_S over the kernel's time around [start, start + seconds]."""
        return NOMINAL_S * 2 / (self.around(start) + self.around(start + seconds))
