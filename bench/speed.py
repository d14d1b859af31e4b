"""The machine's speed during a run, measured with fixed reference work.

The 2-vCPU machine this benchmark was built on shares its cores with other
tenants, and the same work runs up to 1.8x faster or slower from one few
seconds to the next. A run therefore times ``reference_work`` between
rounds and, every INNER_EVERY_S, after a peek (outside the peek's timing),
and multiplies each measured time by the speed around it: REFERENCE_S over
the median duration of the nearest reference samples. The result is what
the time would have read at the reference speed, so runs taken in slow and
fast phases stay comparable. Unscaled figures are reported next to them.
"""

from __future__ import annotations

import bisect
import math
import statistics
import time

import numpy as np

# Median duration of reference_work() on the machine the README's figures
# were taken on.
REFERENCE_S = 0.004
BRACKET_REPS = 8
INNER_REPS = 3
INNER_EVERY_S = 0.5
NEAREST = 8


def reference_work() -> float:
    """Fixed work in the library's mix: small Python objects, compensated
    sums over lists, and NumPy calls on a 20 000-element array."""
    values = np.linspace(-1.0, 1.0, 20_000)
    total = 0.0
    for i in range(400):
        row = tuple(float(v) for v in values[i:i + 6])
        total += math.fsum(row) + sum({j: v for j, v in enumerate(row)}.values())
    total += math.fsum(values.tolist())
    for _ in range(20):
        total += float(np.sort(values)[-1]) + float(values @ values)
    return total


class SpeedLog:
    """Reference samples over a run, and the pauses they made inside rounds."""

    def __init__(self):
        self.times: list[float] = []
        self.durations: list[float] = []
        self.pauses: list[tuple[float, float]] = []
        self.inner = False

    def sample(self, reps: int) -> tuple[float, float]:
        start = time.perf_counter()
        for _ in range(reps):
            a = time.perf_counter()
            reference_work()
            b = time.perf_counter()
            self.times.append(0.5 * (a + b))
            self.durations.append(b - a)
        return start, time.perf_counter()

    def bracket(self) -> tuple[float, float]:
        """Sample before the first round and after every round."""
        return self.sample(BRACKET_REPS)

    def after_peek(self) -> None:
        """Sample inside a round when the last sample is INNER_EVERY_S old."""
        if self.inner and time.perf_counter() - self.times[-1] >= INNER_EVERY_S:
            self.pauses.append(self.sample(INNER_REPS))

    def paused(self, start: float, end: float) -> float:
        """Time spent sampling inside [start, end]."""
        return sum(max(0.0, min(end, b) - max(start, a)) for a, b in self.pauses)

    def at(self, t: float) -> float:
        """Speed from the NEAREST samples closest in time to t."""
        i = bisect.bisect(self.times, t)
        window = range(max(0, i - NEAREST), min(len(self.times), i + NEAREST))
        nearest = sorted(window, key=lambda j: abs(self.times[j] - t))[:NEAREST]
        return REFERENCE_S / statistics.median(self.durations[j] for j in nearest)

    def over(self, start: float, end: float) -> float:
        """Speed from every sample in [start, end] and the NEAREST around it."""
        lo = max(0, bisect.bisect_left(self.times, start) - NEAREST // 2)
        hi = min(len(self.times), bisect.bisect_right(self.times, end) + NEAREST // 2)
        return REFERENCE_S / statistics.median(self.durations[lo:hi])
