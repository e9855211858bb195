"""Order statistics used by every report (no numpy: it may be absent)."""

from __future__ import annotations

import statistics

__all__ = ["percentile", "summary"]


def percentile(ordered: list[float], p: float) -> float:
    """The ``p``-th percentile of an ascending list, linearly
    interpolated between closest ranks."""
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def summary(values: list[float], report: str = "median") -> dict:
    """Median, quartiles and sample count — how every metric is shown.

    ``value`` is the figure bounds and comparisons apply to: the median,
    unless the metric reports another of the three (see
    :mod:`perfbench.calibrate` for the one that does).
    """
    ordered = sorted(values)
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
    else:
        q1 = q3 = ordered[0]
    out = {
        "median": statistics.median(ordered),
        "q1": q1,
        "q3": q3,
        "n": len(ordered),
    }
    out["value"] = out[report]
    return out
