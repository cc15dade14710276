"""Small numeric helpers for the benchmark harness."""

from __future__ import annotations

from typing import Optional, Sequence


def speedup(baseline: float, improved: float) -> float:
    """Fractional improvement: (baseline - improved) / baseline."""
    if baseline <= 0:
        raise ValueError(f"baseline must be positive, got {baseline}")
    return (baseline - improved) / baseline


def find_crossover(
    xs: Sequence[float], ys_a: Sequence[float], ys_b: Sequence[float]
) -> Optional[float]:
    """First x where series A stops beating series B, linearly interpolated.

    Used to locate the assumption-success probability below which
    optimism no longer pays (experiment SWEEP-P).  Returns None when one
    series dominates throughout.
    """
    if not (len(xs) == len(ys_a) == len(ys_b)):
        raise ValueError("series must have equal length")
    for i in range(1, len(xs)):
        d_prev = ys_a[i - 1] - ys_b[i - 1]
        d_here = ys_a[i] - ys_b[i]
        if d_prev == 0:
            return xs[i - 1]
        if (d_prev < 0) != (d_here < 0):
            # linear interpolation of the zero crossing
            t = abs(d_prev) / (abs(d_prev) + abs(d_here))
            return xs[i - 1] + t * (xs[i] - xs[i - 1])
    return None
