"""Summary statistics the benchmark reports."""

from __future__ import annotations

from typing import Sequence, Tuple

#: The tail percentile must leave at least this many samples above it.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> Tuple[float, float]:
    """``(percentile, value)``: the highest percentile of ``values`` that
    still has ``TAIL_BEYOND`` samples beyond it.  With too few samples
    for that, the maximum (percentile 100)."""
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return 100.0, xs[-1]
    rank = n - TAIL_BEYOND - 1  # exactly TAIL_BEYOND samples lie above it
    return 100.0 * (rank + 1) / n, xs[rank]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]); 0.0 when empty."""
    xs = sorted(values)
    if not xs:
        return 0.0
    idx = min(len(xs) - 1, max(0, int(round(q / 100.0 * len(xs) + 0.5)) - 1))
    return xs[idx]
