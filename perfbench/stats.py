"""Order statistics for the benchmark: medians and supported percentiles.

A percentile is reported only when the sample supports it: at least
``MIN_BEYOND`` samples must lie strictly beyond its nearest-rank position.
With 100 samples that allows p90 (ten samples beyond rank 90) but not p99.
"""

from __future__ import annotations

import math

MIN_BEYOND = 10


def nearest_rank(n: int, pct: float) -> int:
    """1-based nearest-rank position of the ``pct`` percentile among ``n``."""
    # Round first: 99.9 / 100 * 10000 is 9990.000000000002 in floating point.
    return max(1, math.ceil(round(pct * n / 100.0, 9)))


def supports(n: int, pct: float, min_beyond: int = MIN_BEYOND) -> bool:
    """Whether ``n`` samples leave ``min_beyond`` samples beyond ``pct``."""
    return n > 0 and n - nearest_rank(n, pct) >= min_beyond


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile of ``samples``."""
    ordered = sorted(samples)
    return ordered[nearest_rank(len(ordered), pct) - 1]


def median(samples) -> float:
    """Midpoint median (mean of the two middle values for even counts)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def percentile_metrics(samples, *, prefix: str) -> dict:
    """``{prefix}_p50`` and ``{prefix}_p90`` where supported, plus the count."""
    samples = list(samples)
    out: dict = {f"{prefix}_n": len(samples)}
    for pct in (50.0, 90.0):
        if supports(len(samples), pct):
            out[f"{prefix}_p{int(pct)}"] = float(percentile(samples, pct))
    return out
