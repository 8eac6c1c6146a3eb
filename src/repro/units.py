"""Unit helpers.

Virtual time is seconds; sizes are bytes; bandwidth is bytes/second.
These helpers keep hardware constants readable and benchmark output in
the paper's units (microseconds, MB/s).
"""

from __future__ import annotations

KiB = 1024
MiB = 1024 * KiB
GiB = 1024 * MiB

#: The paper reports bandwidth in decimal MB/s (e.g. FDR = 6397 MB/s).
MB = 1_000_000
GB = 1_000_000_000


def usec(x: float) -> float:
    """Microseconds -> seconds."""
    return x * 1e-6


def to_usec(seconds: float) -> float:
    """Seconds -> microseconds."""
    return seconds * 1e6


def to_msec(seconds: float) -> float:
    """Seconds -> milliseconds."""
    return seconds * 1e3


def MBps(x: float) -> float:
    """Decimal megabytes/second -> bytes/second."""
    return x * MB


def to_MBps(bytes_per_second: float) -> float:
    """Bytes/second -> decimal MB/s."""
    return bytes_per_second / MB


def fmt_size(nbytes: int) -> str:
    """Human-readable binary size: 8 -> '8B', 2048 -> '2KB', ..."""
    for factor, suffix in ((GiB, "GB"), (MiB, "MB"), (KiB, "KB")):
        if nbytes >= factor and nbytes % factor == 0:
            return f"{nbytes // factor}{suffix}"
    return f"{nbytes}B"


def message_sizes(lo: int = 1, hi: int = 4 * MiB) -> list:
    """Power-of-two message sweep, the OMB convention."""
    sizes = []
    size = lo
    while size <= hi:
        sizes.append(size)
        size *= 2
    return sizes
