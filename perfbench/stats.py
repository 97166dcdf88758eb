"""Order statistics used by the benchmark report."""

from __future__ import annotations

import statistics


def tail_percentile(n: int) -> int:
    """Highest integer percentile (50..99) with at least ten samples beyond it.

    The p-th percentile of n sorted samples is the sample of nearest rank
    ceil(p * n / 100); the samples beyond it are the n minus that rank.
    Fewer than 20 samples leave no such percentile above the median.
    """
    if n < 1:
        raise ValueError("no samples")
    for p in range(99, 49, -1):
        if n - _rank(p, n) >= 10:
            return p
    return 50


def _rank(p: int, n: int) -> int:
    return max(1, -(-p * n // 100))


def percentile(values, p: int):
    """Nearest-rank p-th percentile of `values`."""
    ordered = sorted(values)
    return ordered[_rank(p, len(ordered)) - 1]


def tail(values):
    """(percentile, value) of the highest percentile with >= 10 samples beyond."""
    p = tail_percentile(len(values))
    return p, percentile(values, p)


def quartile_spread(values) -> float:
    """Distance between first and third quartile as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
