"""Communication/computation overlap benchmark (Fig 10).

Two PEs on two nodes: the source puts to the target while the target
busy-computes for a growing duration.  The paper plots communication
time against target compute time — flat for a truly one-sided design,
1:1-growing when the target must progress the transfer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.shmem import Domain, ShmemJob
from repro.units import to_usec, usec


@dataclass
class OverlapPoint:
    """Communication time observed under one target-compute duration."""

    compute_usec: float
    comm_usec: float


def _overlap_program(nbytes: int, compute_s: float):
    def main(ctx):
        sym = yield from ctx.shmalloc(nbytes, domain=Domain.GPU)
        src = ctx.cuda.malloc(nbytes)
        yield from ctx.barrier_all()
        comm = None
        if ctx.my_pe() == 0:
            t0 = ctx.now
            yield from ctx.putmem(sym, src, nbytes, pe=1)
            yield from ctx.quiet()
            comm = ctx.now - t0
        else:
            yield from ctx.compute(compute_s)
        yield from ctx.barrier_all()
        return comm

    return main


def overlap_sweep(
    design: str,
    nbytes: int,
    compute_usecs: Sequence[float],
    *,
    params=None,
) -> List[OverlapPoint]:
    """Measure communication time under each target compute duration."""
    points = []
    for cu in compute_usecs:
        job = ShmemJob(
            nodes=2,
            pes_per_node=1,
            design=design,
            params=params,
            gpu_heap_size=max(nbytes * 2, 32 << 20),
        )
        res = job.run(_overlap_program(nbytes, usec(cu)))
        points.append(OverlapPoint(cu, to_usec(res.results[0])))
    return points


def overlap_percentage(points: List[OverlapPoint]) -> float:
    """The paper's overlap metric: how much of the target's compute was
    hidden (100% == communication time never grew)."""
    base = points[0].comm_usec
    worst = points[-1]
    if worst.compute_usec <= 0:
        return 100.0
    extra = max(0.0, worst.comm_usec - base)
    return 100.0 * (1.0 - extra / worst.compute_usec)


def service_thread_overlap(design: str, service_thread: bool) -> float:
    """Fig 10's 1 MB overlap metric with or without the reference
    implementation's per-process progress thread (§III-C), over target
    compute times of 0, 200 and 800 usec."""
    points = []
    for cu in (0, 200, 800):
        job = ShmemJob(nodes=2, pes_per_node=1, design=design, service_thread=service_thread)
        res = job.run(_overlap_program(1 << 20, usec(cu)))
        points.append(OverlapPoint(cu, to_usec(res.results[0])))
    return overlap_percentage(points)


def app_loop_ms(design: str, service_thread: bool) -> float:
    """Wall time (ms) of a compute-heavy loop with light communication:
    20 rounds of 100 usec CPU work then an 8 KB D-D put and quiet.  A
    progress thread's CPU share shows up as lost application time."""

    def main(ctx):
        sym = yield from ctx.shmalloc(8 * 1024, domain=Domain.GPU)
        src = ctx.cuda.malloc(8 * 1024)  # device source: D-D, legal everywhere
        yield from ctx.barrier_all()
        t0 = ctx.now
        for _ in range(20):
            yield from ctx.compute(usec(100))  # CPU phase
            yield from ctx.putmem(sym, src, 8 * 1024, pe=(ctx.my_pe() + 1) % ctx.npes)
            yield from ctx.quiet()
        yield from ctx.barrier_all()
        return ctx.now - t0

    job = ShmemJob(nodes=2, pes_per_node=1, design=design, service_thread=service_thread)
    return max(job.run(main).results) * 1e3
