"""Latency statistics: nearest-rank percentiles and the tail rule."""

from __future__ import annotations

import math

TAIL_BEYOND = 10


def tail_percentile(n: int, beyond: int = TAIL_BEYOND) -> int:
    """Highest whole percentile p whose nearest-rank value, among n samples,
    leaves at least ``beyond`` samples ranked above it."""
    for p in range(99, 49, -1):
        if n - math.ceil(p * n / 100) >= beyond:
            return p
    raise ValueError(f"{n} samples leave fewer than {beyond} beyond the median")


def percentile(values, p: float) -> float:
    """Nearest-rank p-th percentile."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    return ordered[max(1, math.ceil(p * len(ordered) / 100)) - 1]
