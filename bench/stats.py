"""Order statistics used for every reported timing and count.

A median is the middle of the sorted samples (the mean of the two middle
ones for an even count).  A tail is the highest percentile that still
has at least ten samples above it: with n sorted samples that is the
sample at 1-based rank n - 10, so its percentile is 100 * (n - 10) / n.
Fewer than eleven samples leave no such rank; the tail is then the
maximum, flagged as short so readers do not mistake it for a percentile.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

BEYOND = 10


@dataclass(frozen=True)
class Tail:
    value: float
    percentile: float  # 100 * (n - BEYOND) / n, or 100.0 for a short sample
    count: int
    short: bool        # fewer than BEYOND + 1 samples: value is the maximum


def tail(samples) -> Tail:
    """Highest percentile with at least BEYOND samples beyond it."""
    xs = sorted(samples)
    n = len(xs)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= BEYOND:
        return Tail(xs[-1], 100.0, n, True)
    return Tail(xs[n - BEYOND - 1], 100.0 * (n - BEYOND) / n, n, False)


def median(samples) -> float:
    xs = list(samples)
    if not xs:
        raise ValueError("median of an empty sample")
    return float(statistics.median(xs))
