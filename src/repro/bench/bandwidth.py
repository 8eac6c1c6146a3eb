"""Bandwidth and message-rate micro-benchmarks (OMB-GPU style).

* ``bandwidth_sweep``    — uni-directional: a window of ``window_size``
  non-blocking puts followed by one quiet, reported in MB/s.
* ``message_rate``       — millions of (small) messages per second from
  the same windowed loop.
* ``atomics_latency``    — fetch-add / compare-swap round-trip time
  against host- and GPU-resident targets (§III-D).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.shmem import Domain, ShmemJob
from repro.shmem.protocols import UnsupportedConfiguration
from repro.units import to_MBps, to_usec


@dataclass
class BandwidthPoint:
    nbytes: int
    mbps: float

    def row(self) -> List[str]:
        return [str(self.nbytes), f"{self.mbps:,.0f}"]


def _bw_program(sizes, local_domain, remote_domain, window):
    def main(ctx):
        cap = max(sizes)
        sym = yield from ctx.shmalloc(cap * window, domain=remote_domain)
        if local_domain is Domain.GPU:
            local = ctx.cuda.malloc(cap)
        else:
            local = ctx.cuda.malloc_host(cap)
        peer = ctx.npes - 1 - ctx.pe  # 0 <-> last
        points = []
        for nbytes in sizes:
            yield from ctx.barrier_all()
            t0 = ctx.now
            if ctx.pe == 0:
                for w in range(window):
                    # distinct target offsets: no false serialization
                    ctx.putmem_nbi(sym.addr + w * nbytes, local, nbytes, peer)
                yield from ctx.quiet()
            yield from ctx.barrier_all()
            elapsed = ctx.now - t0
            points.append(BandwidthPoint(nbytes, to_MBps(nbytes * window / elapsed)))
        return points

    return main


def bandwidth_sweep(
    design: str,
    local_domain: Domain,
    remote_domain: Domain,
    sizes: Sequence[int],
    *,
    window: int = 16,
    nodes: int = 2,
    params=None,
) -> Optional[List[BandwidthPoint]]:
    """Windowed streaming bandwidth; None for unsupported configs."""
    heap = max(sizes) * window + (1 << 16)
    job = ShmemJob(
        nodes=nodes,
        design=design,
        params=params,
        host_heap_size=max(heap, 32 << 20),
        gpu_heap_size=max(heap, 32 << 20),
    )
    try:
        res = job.run(_bw_program(list(sizes), local_domain, remote_domain, window))
    except UnsupportedConfiguration:
        return None
    return res.results[0]


def message_rate(
    design: str,
    nbytes: int = 8,
    *,
    window: int = 64,
    rounds: int = 4,
    nodes: int = 2,
    params=None,
) -> float:
    """Small-message rate in million messages/second (D-D)."""
    pts = bandwidth_sweep(
        design, Domain.GPU, Domain.GPU, [nbytes], window=window * rounds,
        nodes=nodes, params=params,
    )
    if pts is None:
        raise UnsupportedConfiguration(f"{design} cannot issue D-D messages")
    bytes_per_sec = pts[0].mbps * 1e6
    return bytes_per_sec / nbytes / 1e6


@dataclass
class AtomicPoint:
    op: str
    domain: Domain
    usec: float

    def row(self) -> List[str]:
        return [self.op, self.domain.value, f"{self.usec:.2f}"]


def atomics_latency(design: str = "enhanced-gdr", nodes: int = 2, params=None) -> List[AtomicPoint]:
    """Latency of remote atomics against host and GPU words (§III-D)."""

    def main(ctx):
        results = []
        for domain in (Domain.HOST, Domain.GPU):
            word = yield from ctx.shmalloc(8, domain=domain)
            for op in ("fetch_add", "compare_swap", "swap", "fetch_add_32"):
                yield from ctx.barrier_all()
                t0 = ctx.now
                if ctx.my_pe() == 0:
                    tgt = ctx.npes - 1
                    if op == "fetch_add":
                        yield from ctx.atomic_fetch_add(word, 1, pe=tgt)
                    elif op == "compare_swap":
                        yield from ctx.atomic_compare_swap(word, 0, 1, pe=tgt)
                    elif op == "swap":
                        yield from ctx.atomic_swap(word, 2, pe=tgt)
                    else:
                        yield from ctx.atomic_fetch_add(word, 1, pe=tgt, nbytes=4)
                    results.append(AtomicPoint(op, domain, to_usec(ctx.now - t0)))
                yield from ctx.barrier_all()
        return results

    job = ShmemJob(nodes=nodes, design=design, params=params)
    return job.run(main).results[0]
