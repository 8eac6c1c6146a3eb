"""Tests for decomposition helpers (incl. property-based)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps.grid import neighbor, partition_1d, process_grid, tile_of
from repro.errors import ConfigurationError


def test_process_grid_known_values():
    assert process_grid(1) == (1, 1)
    assert process_grid(4) == (2, 2)
    assert process_grid(16) == (4, 4)
    assert process_grid(32) == (4, 8)
    assert process_grid(64) == (8, 8)
    assert process_grid(6) == (2, 3)
    assert process_grid(7) == (1, 7)


def test_partition_1d_even():
    assert partition_1d(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]


def test_partition_1d_remainder():
    parts = partition_1d(10, 3)
    assert parts == [(0, 4), (4, 7), (7, 10)]


def test_partition_1d_invalid():
    with pytest.raises(ConfigurationError):
        partition_1d(2, 3)
    with pytest.raises(ConfigurationError):
        partition_1d(10, 0)


def test_tile_of_covers_domain():
    npes, nx, ny = 6, 60, 40
    cells = set()
    for pe in range(npes):
        _cx, _cy, (x0, x1), (y0, y1) = tile_of(pe, npes, nx, ny)
        for y in range(y0, y1):
            for x in range(x0, x1):
                assert (x, y) not in cells
                cells.add((x, y))
    assert len(cells) == nx * ny


def test_neighbor_topology():
    # 2x2 grid: pe0=(0,0), pe1=(1,0), pe2=(0,1), pe3=(1,1)
    assert neighbor(0, 4, +1, 0) == 1
    assert neighbor(0, 4, 0, +1) == 2
    assert neighbor(0, 4, -1, 0) == -1
    assert neighbor(3, 4, -1, 0) == 2
    assert neighbor(3, 4, 0, +1) == -1


@given(st.integers(min_value=1, max_value=512))
@settings(max_examples=80, deadline=None)
def test_property_process_grid_factors(npes):
    px, py = process_grid(npes)
    assert px * py == npes
    assert px <= py


@given(st.integers(min_value=1, max_value=200), st.integers(min_value=1, max_value=20))
@settings(max_examples=80, deadline=None)
def test_property_partition_exact_cover(extent, parts):
    if extent < parts:
        with pytest.raises(ConfigurationError):
            partition_1d(extent, parts)
        return
    ranges = partition_1d(extent, parts)
    assert ranges[0][0] == 0 and ranges[-1][1] == extent
    for (a0, a1), (b0, b1) in zip(ranges, ranges[1:]):
        assert a1 == b0
        assert a1 > a0
    sizes = [b - a for a, b in ranges]
    assert max(sizes) - min(sizes) <= 1
