"""Order statistics for the benchmark's reports."""

from __future__ import annotations

import statistics

# candidate tail percentiles, in tenths of a percent, highest first
_TAIL_PERMILLE = (999, 990, 950, 900, 750, 500)


def tail_percentile(count: int, beyond: int = 10) -> float | None:
    """Highest candidate percentile with at least ``beyond`` of ``count``
    samples above it, or None when even the median has fewer."""
    for q in _TAIL_PERMILLE:
        if count * (1000 - q) // 1000 >= beyond:
            return q / 10
    return None


def describe(values) -> dict:
    """Median, quartiles and sample count of a list of measurements."""
    values = list(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "count": len(values)}
