"""Summary statistics for the benchmark's timing samples."""

from __future__ import annotations

from statistics import median

TAIL_BEYOND = 10  # a tail percentile is reported only with this many samples beyond it


def tail(samples) -> tuple[float, float]:
    """(value, percentile) of the highest nearest-rank percentile with at
    least TAIL_BEYOND samples beyond it.

    Up to 2 * TAIL_BEYOND samples no percentile above the median
    qualifies, and the median is returned as the 50th percentile.
    """
    xs = sorted(samples)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return median(xs), 50.0
    rank = n - TAIL_BEYOND  # 1-based
    return xs[rank - 1], 100.0 * rank / n
