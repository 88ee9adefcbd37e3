"""Order statistics used by the benchmark report (stdlib only)."""

from __future__ import annotations

import math
import statistics


def nearest_rank(values, pct: float) -> float:
    """The ceil(pct/100 * n)-th smallest value (nearest-rank percentile)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("empty sample")
    return ordered[rank(len(ordered), pct) - 1]


def rank(n: int, pct: float) -> int:
    """1-based rank of the nearest-rank ``pct`` percentile in ``n`` samples."""
    return max(1, math.ceil(pct * n / 100.0 - 1e-9))


def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie strictly above the nearest-rank ``pct`` percentile's rank."""
    return n - rank(n, pct)


def tail_percentile(n: int, min_beyond: int = 10, choices=(99, 95, 90, 75, 50)) -> float | None:
    """Highest percentile among ``choices`` with at least ``min_beyond`` samples beyond it."""
    for pct in sorted(choices, reverse=True):
        if samples_beyond(n, pct) >= min_beyond:
            return pct
    return None


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median (``statistics.quantiles`` quartiles)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med
