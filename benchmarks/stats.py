"""Order statistics used by every metric of the benchmark."""

from __future__ import annotations

import statistics

#: a tail percentile must leave at least this many samples above it
TAIL_MIN_BEYOND = 10


def quartiles(values):
    """(q1, median, q3) of a non-empty sequence; a single value repeats."""
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, med, q3 = statistics.quantiles(vals, n=4, method="inclusive")
    return q1, med, q3


def tail(values):
    """Highest percentile that has at least TAIL_MIN_BEYOND samples above it.

    Returns (value, percentile, n). The value is the sample with exactly
    TAIL_MIN_BEYOND samples sorted after it, and the percentile is the
    share of samples at or below it. With too few samples no percentile
    qualifies; the maximum is returned with percentile None.
    """
    vals = sorted(values)
    n = len(vals)
    if n <= TAIL_MIN_BEYOND:
        return vals[-1], None, n
    k = n - TAIL_MIN_BEYOND - 1
    return vals[k], 100.0 * (k + 1) / n, n
