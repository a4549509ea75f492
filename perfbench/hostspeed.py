"""Host-speed calibration.

Shared virtual machines change speed by up to 2x in phases of seconds (on
a 2-core Xeon VM at 2.1 GHz a fixed pure-Python loop took 13 to 22 ms
within one 40 s window), which swamps the changes the benchmark must see.
A short fixed loop that shares no code with mamp, timed right before and
after each measured interval, gives the host's speed at that moment; the
benchmark reports times multiplied by it, i.e. seconds at the reference
speed.
"""

from __future__ import annotations

import heapq
import math
import time

# Best time of calibration_loop() on a 2-core Xeon VM at 2.1 GHz when the
# host was quiet. Times are reported in seconds at that speed.
CAL_REF_S = 0.0021


def calibration_loop() -> float:
    """Seconds of a fixed piece of pure-Python work shaped like the
    planners' inner loops: a heap of tuples, tuple-keyed dict lookups and
    inserts, small method calls and float arithmetic. It shares no code
    with mamp, so it measures the host, not the program."""
    t0 = time.perf_counter()
    seen: dict = {}
    heap = [(0.0, 0, (0, 0))]
    cell = _Cell()
    for _ in range(1500):
        _, g, (x, y) = heapq.heappop(heap)
        for dx, dy in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            q = (x + dx, y + dy)
            if seen.get(q, 1 << 30) <= g + 1:
                continue
            seen[q] = g + 1
            heapq.heappush(heap, (g + 1 + cell.h(q), g + 1, q))
    return time.perf_counter() - t0


class _Cell:
    __slots__ = ("scale",)

    def __init__(self):
        self.scale = 0.5

    def h(self, q) -> float:
        return self.scale * math.sqrt(q[0] * q[0] + q[1] * q[1])


def host_speed() -> float:
    """Current host speed relative to the reference speed. A time measured
    between two calls is scaled by the mean of their factors."""
    return CAL_REF_S / min(calibration_loop(), calibration_loop())
