"""Collective latency over GPU symmetric objects.

Every collective is layered over the one-sided runtime, so the GDR
designs accelerate them for GPU-resident operands exactly as they do
point-to-point traffic.
"""

from __future__ import annotations

from repro.shmem import Domain, ShmemJob
from repro.units import KiB, to_usec

COLLECTIVES = ("barrier", "broadcast", "reduce", "alltoall")


def _collective_program(which, nbytes):
    def main(ctx):
        src = yield from ctx.shmalloc(max(nbytes * ctx.npes, 64), domain=Domain.GPU)
        dst = yield from ctx.shmalloc(max(nbytes * ctx.npes, 64), domain=Domain.GPU)
        yield from ctx.barrier_all()
        t0 = ctx.now
        for _ in range(3):
            if which == "barrier":
                yield from ctx.barrier_all()
            elif which == "broadcast":
                yield from ctx.broadcast(src, nbytes, root=0)
            elif which == "reduce":
                yield from ctx.reduce(dst, src, count=nbytes // 8)
            elif which == "alltoall":
                yield from ctx.alltoall(dst, src, nbytes)
        return (ctx.now - t0) / 3

    return main


def collective_latency(which: str, npes: int, design: str) -> float:
    """Mean latency (usec) of one collective with 4 KB payloads over
    ``npes`` PEs, two per node, on the slowest PE."""
    job = ShmemJob(nodes=max(1, npes // 2), design=design)
    res = job.run(_collective_program(which, 4 * KiB))
    return to_usec(max(res.results))
