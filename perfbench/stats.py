"""Order statistics and failure accounting for the benchmark.

Timings are reported as a median plus the highest tail percentile that the
sample supports: a percentile is reported only when at least
``MIN_BEYOND`` samples lie beyond it, so a p99 needs at least 1000 samples.
A failed operation enters the latency sample as ``math.inf``, so it counts
as exceeding every limit.
"""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10
TAIL_LEVELS = (0.999, 0.99, 0.95, 0.9)


def median(values) -> float:
    values = list(values)
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank ``q`` percentile of ``n``."""
    return n - math.ceil(q * n)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile; refuses when fewer than 10 samples lie beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError(f"percentile level must be in (0, 1), got {q}")
    ordered = sorted(values)
    n = len(ordered)
    if samples_beyond(n, q) < MIN_BEYOND:
        raise ValueError(f"p{q * 100:g} needs {MIN_BEYOND} samples beyond it; "
                         f"{n} samples leave {max(0, samples_beyond(n, q))}")
    return float(ordered[math.ceil(q * n) - 1])


def tail(values) -> tuple[float, float] | None:
    """(level, value) of the highest supported tail percentile, or None."""
    n = len(values)
    for q in TAIL_LEVELS:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q, percentile(values, q)
    return None


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median: a run-to-run spread."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


class FailCount:
    """Attempted and failed operations, plus the first few failure reasons."""

    def __init__(self, keep: int = 5):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._keep = keep

    def ok(self, n: int = 1) -> None:
        self.attempted += n

    def fail(self, reason: str, n: int = 1) -> None:
        self.attempted += n
        self.failed += n
        if len(self.reasons) < self._keep:
            self.reasons.append(reason)

    def check(self, condition: bool, reason: str) -> bool:
        if condition:
            self.ok()
        else:
            self.fail(reason)
        return condition

    def merge(self, other: "FailCount") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.reasons.extend(other.reasons[: max(0, self._keep - len(self.reasons))])

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
