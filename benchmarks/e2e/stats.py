"""Order statistics the benchmark reports."""

from __future__ import annotations

import statistics

__all__ = ["TAIL_BEYOND", "quartiles", "summary", "tail"]

#: A tail percentile is reported only with at least this many samples
#: beyond it, so one outlier cannot be the whole tail.
TAIL_BEYOND = 10


def tail(samples) -> tuple[float, float] | None:
    """``(value, percentile)`` of the highest percentile with at least
    :data:`TAIL_BEYOND` samples above it, or ``None`` when there are
    too few.

    With 1000 samples this is the p99 (the 990th smallest, ten above
    it); with 23 it is the 13th smallest, about p57.
    """
    ordered = sorted(samples)
    k = len(ordered) - 1 - TAIL_BEYOND
    if k < 0:
        return None
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def quartiles(values) -> tuple[float, float]:
    """``(q1, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def summary(values) -> dict:
    """Median, quartiles and sample count of one metric's runs."""
    values = list(values)
    q1, q3 = quartiles(values)
    return {
        "median": statistics.median(values), "q1": q1, "q3": q3,
        "n": len(values), "values": values,
    }
