"""Host speed, tracked while a workload runs, to scale latencies by.

On a shared host the speed of one core swings by a third within seconds and
by a sixth between minute-long phases, and CPU time swings with wall time,
so it is not the scheduler.  A fixed pure-Python loop, timed every
SAMPLE_EVERY_S between operations, tracks that speed: an operation's latency
times REFERENCE_MS over the loop's median time within WINDOW_S of the
operation is the latency on a host where the loop takes REFERENCE_MS.  The
program never runs inside the loop, so a change to it moves scaled latencies
as much as raw ones.
"""

from __future__ import annotations

import bisect
import random
import statistics
import time

SAMPLE_EVERY_S = 0.2
WINDOW_S = 1.0
REFERENCE_MS = 2.3  # the loop's typical time on the 2-vCPU host the bounds were set on

_ROWS = tuple(random.Random(0).getrandbits(64) for _ in range(300))


def calibration_loop() -> int:
    """Fixed work shaped like the program's hot loops: GF(2) elimination
    on int bitsets, then dict counting and a sort."""
    rows, rank = list(_ROWS), 0
    for bit in range(64):
        pivot = next((r for r in rows if r >> bit & 1), None)
        if pivot is None:
            continue
        rank += 1
        rows = [r ^ pivot if r >> bit & 1 else r for r in rows if r is not pivot]
    counts: dict[int, int] = {}
    for i in range(3000):
        key = i * 7919 % 1013
        counts[key] = counts.get(key, 0) + 1
    return rank + len(sorted(counts.items()))


class HostSpeed:
    def __init__(self):
        calibration_loop()  # warm-up, untimed
        self.times: list[float] = []  # midpoints of the timed loops
        self.costs: list[float] = []  # their durations, s

    def sample(self, force: bool = False) -> None:
        """Time the loop once, if SAMPLE_EVERY_S has passed since the last."""
        t0 = time.perf_counter()
        if not force and self.times and t0 - self.times[-1] < SAMPLE_EVERY_S:
            return
        calibration_loop()
        t1 = time.perf_counter()
        self.times.append((t0 + t1) / 2)
        self.costs.append(t1 - t0)

    def scale(self, start: float, end: float) -> float:
        """The latency end - start, scaled to the reference speed by the
        loop's median time from WINDOW_S before start to WINDOW_S after end."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        window = self.costs[lo:hi] or self.costs
        return (end - start) * REFERENCE_MS * 1e-3 / statistics.median(window)

    def median_ms(self) -> float:
        return statistics.median(self.costs) * 1e3
