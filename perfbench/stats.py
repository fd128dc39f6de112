"""Order statistics used by every metric the benchmark reports."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence, Tuple

#: A tail percentile is only reported where at least this many samples lie
#: beyond it; with fewer samples the tail is a single unlucky request.
TAIL_BEYOND = 10


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [float(v) for v in values]
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def tail_percentile(
    samples: Sequence[float], target: float = 99.0, beyond: int = TAIL_BEYOND
) -> Tuple[int, float]:
    """The highest whole percentile ``<= target`` with ``beyond`` samples above it.

    Returns ``(percentile, value)`` using the nearest-rank definition: the
    value is the sample of rank ``ceil(p/100 * n)`` in ascending order, so
    exactly ``n - rank >= beyond`` samples are larger or equal beyond it.
    Raises ``ValueError`` when the sample has no more than ``beyond`` values,
    because then no percentile qualifies.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    ordered = sorted(float(s) for s in samples)
    percentile = min(int(target), math.floor(100.0 * (n - beyond) / n))
    rank = max(1, math.ceil(percentile / 100.0 * n))
    return percentile, ordered[rank - 1]


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of one metric's samples."""
    q1, median, q3 = quartiles(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}
