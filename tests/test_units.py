"""Tests for unit helpers."""

import pytest

from repro.units import (
    KiB,
    MiB,
    GiB,
    MBps,
    fmt_size,
    message_sizes,
    to_MBps,
    to_usec,
    usec,
)


def test_time_conversions_roundtrip():
    assert to_usec(usec(3.13)) == pytest.approx(3.13)


def test_bandwidth_conversions():
    assert to_MBps(MBps(6397)) == pytest.approx(6397)


def test_fmt_size():
    assert fmt_size(8) == "8B"
    assert fmt_size(2048) == "2KB"
    assert fmt_size(3 * MiB) == "3MB"
    assert fmt_size(1 * GiB) == "1GB"
    assert fmt_size(1500) == "1500B"  # not a clean multiple


def test_fmt_parse_roundtrip():
    """``fmt_size`` never rounds: its number times its unit is the size."""
    factors = {"B": 1, "KB": KiB, "MB": MiB, "GB": GiB}
    for n in (1, 512, 1500, 4 * KiB, 3 * MiB, 2 * GiB):
        text = fmt_size(n)
        suffix = text.lstrip("0123456789")
        assert int(text[: -len(suffix)]) * factors[suffix] == n


def test_message_sizes_sweep():
    sizes = message_sizes(1, 1024)
    assert sizes == [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]
    assert message_sizes(8, 8) == [8]
    assert message_sizes(16, 8) == []
