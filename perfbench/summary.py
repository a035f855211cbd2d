"""Sample summaries for the benchmark: medians and tail percentiles.

A tail percentile is only reported when at least ten samples lie beyond
it; with fewer samples the tail is a handful of outliers, not a
percentile.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie strictly above a reported percentile.
MIN_BEYOND = 10


def percentile(samples: list[float], q: float) -> float | None:
    """Nearest-rank *q*-percentile (0 < q < 1) of *samples*, or ``None``
    when fewer than :data:`MIN_BEYOND` samples lie beyond it."""
    if not 0.0 < q < 1.0:
        raise ValueError("q must be in (0, 1)")
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def median(samples: list[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(samples))

