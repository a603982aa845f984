"""Order statistics and the estimators every end-to-end timing goes through.

Interference on a shared box only ever adds time, so a timing that is
repeated K times is reported from its *fastest* repetition; medians and
spreads of the repetitions go to the layer table as the noise witness.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence

#: A percentile is reported only with at least this many samples beyond it …
MIN_SAMPLES_BEYOND = 10
#: … and at least this many ranks inside its query class, never on the edge.
MIN_CLASS_MARGIN = 5


def percentile_rank(n: int, p: float) -> int:
    """1-based nearest-rank position of percentile *p* among *n* samples."""
    if n < 1:
        raise ValueError("percentile of an empty sample")
    return max(1, math.ceil(p * n))


def percentile(values: Sequence[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[percentile_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    return n - percentile_rank(n, p)


def class_margin(class_counts: Sequence[int], p: float) -> int:
    """Samples between percentile *p* and the nearest class boundary.

    *class_counts* are per-class sample counts ordered from the fastest
    class to the slowest.  Classes whose latencies do not overlap occupy
    consecutive rank ranges; the margin says how deep inside one range
    the percentile's rank falls (0 = first or last sample of a class, so
    the percentile would flip classes on a single outlier).
    """
    rank = percentile_rank(sum(class_counts), p)
    low = 0
    for count in class_counts:
        high = low + count
        if rank <= high:
            return min(rank - low - 1, high - rank)
        low = high
    raise AssertionError("rank outside the sample")


def fastest(elapsed: Sequence[float]) -> int:
    """Index of the fastest repetition."""
    return min(range(len(elapsed)), key=elapsed.__getitem__)


def pointwise_fastest(repetitions: Sequence[Sequence[float]]) -> List[float]:
    """Per-position minimum over repetitions of one fixed sequence of steps."""
    return [min(column) for column in zip(*repetitions, strict=True)]


def spread(values: Sequence[float]) -> float:
    """max/min of repeated timings — 1.0 means they agreed exactly."""
    return max(values) / min(values)


def iqr_share(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (the driver's rule)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
