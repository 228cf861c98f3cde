"""Small statistics shared by the runner, ``compare`` and the tests.

Standard library only: the parent process of a run never imports NumPy.
"""

from __future__ import annotations

import statistics
from typing import Sequence

#: A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100), linear interpolation between ranks."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def p90_emitted(n_samples: int) -> bool:
    """Whether a run with ``n_samples`` op latencies may report a 90th
    percentile: one tenth of them, at least :data:`MIN_BEYOND`, lie beyond."""
    return n_samples // 10 >= MIN_BEYOND


def quartile_spread(values: Sequence[float]) -> float | None:
    """(Q3 - Q1) / median, as ``statistics.quantiles(values, n=4)`` gives the
    quartiles; None when fewer than two values or a zero median."""
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / abs(mid) if mid else None
