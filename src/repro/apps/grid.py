"""Process-grid and domain-decomposition helpers."""

from __future__ import annotations

import math
from typing import List, Tuple

from repro.errors import ConfigurationError


def process_grid(npes: int) -> Tuple[int, int]:
    """Factor ``npes`` into the most balanced ``(px, py)`` grid.

    Matches the usual SHOC/MPI dims heuristic: px is the largest divisor
    of npes not exceeding sqrt(npes), so px <= py.
    """
    if npes < 1:
        raise ConfigurationError(f"need at least one PE, got {npes}")
    px = 1
    for cand in range(1, int(math.isqrt(npes)) + 1):
        if npes % cand == 0:
            px = cand
    return px, npes // px


def partition_1d(extent: int, parts: int) -> List[Tuple[int, int]]:
    """Split ``[0, extent)`` into ``parts`` contiguous near-equal ranges."""
    if parts < 1 or extent < parts:
        raise ConfigurationError(f"cannot split extent {extent} into {parts} parts")
    base, rem = divmod(extent, parts)
    ranges = []
    start = 0
    for i in range(parts):
        size = base + (1 if i < rem else 0)
        ranges.append((start, start + size))
        start += size
    return ranges


def tile_of(pe: int, npes: int, nx: int, ny: int) -> Tuple[int, int, Tuple[int, int], Tuple[int, int]]:
    """2-D tile of PE ``pe``: ``(cx, cy, (x0, x1), (y0, y1))``.

    PEs are laid out row-major on the (px, py) grid; cx indexes x
    (columns of the domain), cy indexes y (rows).
    """
    px, py = process_grid(npes)
    cx, cy = pe % px, pe // px
    xr = partition_1d(nx, px)[cx]
    yr = partition_1d(ny, py)[cy]
    return cx, cy, xr, yr


def neighbor(pe: int, npes: int, dx: int, dy: int) -> int:
    """Neighbor PE rank on the 2-D grid, or -1 at the boundary."""
    px, py = process_grid(npes)
    cx, cy = pe % px, pe // px
    nx_, ny_ = cx + dx, cy + dy
    if not (0 <= nx_ < px and 0 <= ny_ < py):
        return -1
    return ny_ * px + nx_
