"""Summary statistics with the benchmark's percentile-support rule.

A tail percentile is reported only when the sample holds at least
:data:`MIN_BEYOND` values beyond it; the median is always reported together
with its sample count.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Samples that must lie beyond a tail percentile for it to be reported.
MIN_BEYOND = 10


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie above the ``q`` quantile rank."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    return n - math.ceil(q * n)


def supported(n: int, q: float) -> bool:
    """Whether ``n`` samples support reporting the ``q`` quantile."""
    return samples_beyond(n, q) >= MIN_BEYOND


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q`` quantile (``q`` in [0, 1]) of ``values``."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 0.5)


def tail(values: Sequence[float], q: float) -> Optional[float]:
    """The ``q`` quantile, or ``None`` when the sample cannot support it."""
    if not supported(len(values), q):
        return None
    return percentile(values, q)


def mean(values: Sequence[float]) -> float:
    return sum(values) / len(values) if values else 0.0
