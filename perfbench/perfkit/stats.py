"""Percentile and spread rules used by every workload.

A tail percentile is only reported when at least ``min_beyond`` samples lie
beyond it (ten by default): with fewer, the "p99" of a short run is just its
maximum.  Percentiles use the nearest-rank definition, so the reported value
is always one of the measured samples.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence


class InsufficientSamples(ValueError):
    """Raised when a percentile would have fewer than the required samples beyond it."""


def min_samples(q: float, min_beyond: int = 10) -> int:
    """Smallest sample count for which ``percentile(values, q)`` is allowed."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = 1
    while n - _rank(q, n) < min_beyond:
        n += 1
    return n


def _rank(q: float, n: int) -> int:
    """1-based nearest rank of the ``q``-th percentile among ``n`` samples."""
    return max(1, math.ceil(q / 100.0 * n - 1e-9))


def percentile(values: Sequence[float], q: float, min_beyond: int = 10) -> float:
    """Nearest-rank ``q``-th percentile with at least ``min_beyond`` samples above it.

    ``min_beyond=0`` lifts the sample rule (used for diagnostic per-layer
    figures, never for an end-to-end metric).
    """
    if not values:
        raise InsufficientSamples("no samples")
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    ordered = sorted(values)
    rank = _rank(q, len(ordered))
    beyond = len(ordered) - rank
    if beyond < min_beyond:
        raise InsufficientSamples(
            f"p{q:g} of {len(ordered)} samples has {beyond} beyond it; "
            f"{min_beyond} required (need >= {min_samples(q, min_beyond)} samples)")
    return float(ordered[rank - 1])


def median(values: Sequence[float]) -> float:
    if not values:
        raise InsufficientSamples("no samples")
    return float(statistics.median(values))


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile range over the median (``statistics.quantiles`` quartiles)."""
    q1, mid, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / mid
