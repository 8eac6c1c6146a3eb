"""Drift normalisation: rescale host wall time to a fixed reference speed.

The benchmark host changes the speed of its CPU while a run is going on,
and process CPU time tracks wall time, so neither clock alone gives a
number that two runs can agree on.  Instead a fixed pure-Python kernel
(``ref_kernel``) is timed between requests.  Its duration *r* is the
speed of the host at that moment.  A request's *normalised* time is its
wall time times (``REF_NOMINAL_MS`` / *r*) ** ``SENSITIVITY``: about what
it would have taken on a host where the kernel takes ``REF_NOMINAL_MS``.

One reference sample is too noisy to use on its own (a single ~4 ms
sample varies 2-2.7x within one run), so *r* is the median of the
``SMOOTH_K`` samples nearest to the request in time.
"""

from __future__ import annotations

import gc
import heapq
import os
import statistics
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Iterator, List, Sequence, Tuple

#: Duration of one ``ref_kernel`` call on the reference host (ms).  Any
#: fixed constant works; this one keeps normalised times close to raw
#: ones on an unthrottled 2-vCPU x86 host.
REF_NOMINAL_MS = 4.0

#: How strongly host slowdowns reach the workloads, relative to the
#: reference kernel: a request slows down by about the kernel's slowdown
#: raised to this power (fitted on the benchmark host, see README.md).
SENSITIVITY = 0.8

#: Reference samples pooled around each request.
SMOOTH_K = 15

#: Share of request wall time spent on reference samples after it.
REF_SHARE = 0.06

_KERNEL_N = 4000
_KERNEL_CHECK = 121523


def ref_kernel() -> int:
    """Fixed pure-Python work shaped like the simulator's hot loop:
    heap pushes and pops of tuples, dict stores, integer arithmetic.  It
    keeps no state between calls, so it cannot change how the measured
    code runs (its heap of tuples is freed on return).  Returns a
    checksum so the work cannot be skipped.  ``RefClock.sample`` runs it
    with the cyclic GC paused (it frees everything by refcount), so the
    size of the program's heap does not reach the reference either."""
    heap: list = []
    table: dict = {}
    acc = 0
    for i in range(_KERNEL_N):
        key = (i * 7919) % 1009
        heapq.heappush(heap, (key, i))
        table[key & 255] = acc
        acc = (acc * 31 + key + len(table)) & 0xFFFF
    while heap:
        key, i = heapq.heappop(heap)
        acc ^= key + table[i & 255] if (i & 255) in table else key
    return acc


def smoothed(samples: Sequence[Tuple[float, float]], t: float, k: int = SMOOTH_K) -> float:
    """Median duration of the ``k`` samples nearest to time ``t``.

    ``samples`` is a time-ordered list of ``(t_mid, duration)`` pairs.
    """
    if not samples:
        raise ValueError("no reference samples")
    n = len(samples)
    k = min(k, n)
    hi = bisect_left(samples, (t, float("-inf")))
    lo = hi - 1
    picked: List[float] = []
    while len(picked) < k:
        if lo < 0 or (hi < n and samples[hi][0] - t <= t - samples[lo][0]):
            picked.append(samples[hi][1])
            hi += 1
        else:
            picked.append(samples[lo][1])
            lo -= 1
    return statistics.median(picked)


@contextmanager
def pinned(index: int) -> Iterator[None]:
    """Run the block (and any child it starts) on one CPU, chosen
    round-robin by ``index``, so reference samples and the work they
    rescale share a CPU: the two vCPUs of the benchmark host run at
    different speeds, and which one is slow changes within seconds."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[index % len(allowed)]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, allowed)


class RefClock:
    """Collects reference samples and normalises intervals against them."""

    def __init__(self) -> None:
        #: ``(t_mid, ms)`` in ``time.perf_counter`` seconds, time-ordered.
        self.samples: List[Tuple[float, float]] = []

    def sample(self, count: int = 1) -> None:
        gc_was_on = gc.isenabled()
        gc.disable()
        try:
            for _ in range(count):
                t0 = time.perf_counter()
                got = ref_kernel()
                t1 = time.perf_counter()
                if got != _KERNEL_CHECK:
                    raise RuntimeError(f"reference kernel checksum {got} != {_KERNEL_CHECK}")
                self.samples.append(((t0 + t1) / 2, (t1 - t0) * 1e3))
        finally:
            if gc_was_on:
                gc.enable()

    def top_up(self, busy_s: float) -> None:
        """Sample for ``REF_SHARE`` of ``busy_s`` (at least once)."""
        budget = busy_s * REF_SHARE
        t_end = time.perf_counter() + budget
        self.sample()
        while time.perf_counter() < t_end:
            self.sample()

    def ref_at(self, t: float) -> float:
        return smoothed(self.samples, t)

    def scale_at(self, t: float) -> float:
        """Normalised per wall second around time ``t``."""
        return (REF_NOMINAL_MS / self.ref_at(t)) ** SENSITIVITY

    def normalise(self, t0: float, t1: float) -> float:
        """Normalised milliseconds of the wall interval ``[t0, t1]``."""
        return (t1 - t0) * 1e3 * self.scale_at((t0 + t1) / 2)

    def summary(self) -> dict:
        """Per-run reference diagnostics: median sample and its spread."""
        ms = sorted(d for _, d in self.samples)
        q = statistics.quantiles(ms, n=10) if len(ms) >= 2 else [ms[0]] * 9
        return {
            "ref_ms": statistics.median(ms),
            "ref_p10_ms": q[0],
            "ref_p90_ms": q[-1],
            "ref_samples": len(ms),
        }
