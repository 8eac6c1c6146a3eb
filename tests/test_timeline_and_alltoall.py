"""Tests for the alltoall collective and the timeline reporting module."""

import numpy as np
import pytest

from repro.errors import ShmemError
from repro.reporting.timeline import (
    breakdown_table,
    categorize,
    event_breakdown,
    link_utilization,
    utilization_table,
)
from repro.obs import SpanTracer
from repro.shmem import Domain, ShmemJob


# ----------------------------------------------------------------- alltoall
@pytest.mark.parametrize("domain", [Domain.HOST, Domain.GPU])
def test_alltoall_blocks_land_correctly(domain):
    block = 32

    def main(ctx):
        src = yield from ctx.shmalloc(block * ctx.npes, domain=domain)
        dst = yield from ctx.shmalloc(block * ctx.npes, domain=domain)
        # src block j holds value 16*me + j
        for j in range(ctx.npes):
            (src.local + j * block).fill(16 * ctx.pe + j, block)
        yield from ctx.alltoall(dst, src, block)
        return dst.read(block * ctx.npes)

    res = ShmemJob(nodes=2, design="enhanced-gdr").run(main)
    npes = len(res.results)
    for me, data in enumerate(res.results):
        for j in range(npes):
            blockj = data[j * block : (j + 1) * block]
            # my dst block j came from PE j's src block me
            assert blockj == bytes([16 * j + me]) * block, (me, j)


def test_alltoall_size_validation():
    def main(ctx):
        src = yield from ctx.shmalloc(64)
        dst = yield from ctx.shmalloc(64)
        yield from ctx.alltoall(dst, src, 64)  # needs 64 * npes

    with pytest.raises(ShmemError, match="alltoall"):
        ShmemJob(nodes=2, design="enhanced-gdr").run(main)


# ----------------------------------------------------------------- timeline
def test_categorize_known_prefixes():
    assert categorize("rdma_write") == "rdma"
    assert categorize("cudaMemcpyH2D") == "cuda-copy"
    assert categorize("gdrP2Pwrite") == "gdr-p2p"
    assert categorize("shmem:put") == "software"
    assert categorize("route:host-pipeline") is None
    assert categorize("unrelated") is None


def _traced_job(design):
    job = ShmemJob(nodes=2, pes_per_node=1, design=design)
    tracer = SpanTracer().attach(job.sim)

    def main(ctx):
        sym = yield from ctx.shmalloc(1 << 20, domain=Domain.GPU)
        src = ctx.cuda.malloc(1 << 20)
        yield from ctx.barrier_all()
        if ctx.my_pe() == 0:
            yield from ctx.putmem(sym, src, 1 << 20, pe=1)
            yield from ctx.quiet()
        yield from ctx.barrier_all()

    res = job.run(main)
    return job, tracer, res


def test_event_breakdown_reflects_protocol_anatomy():
    job, tracer, res = _traced_job("enhanced-gdr")
    cats = {e.category: e.events for e in event_breakdown(tracer)}
    assert cats.get("cuda-copy", 0) >= 4  # staging D2H chunks
    assert cats.get("rdma", 0) >= 4  # one write per chunk
    assert cats.get("software", 0) >= 1  # the shmem:put op span


def test_breakdown_differs_between_designs():
    _job_e, tracer_e, _ = _traced_job("enhanced-gdr")
    _job_h, tracer_h, _ = _traced_job("host-pipeline")
    cats_e = {e.category: e.events for e in event_breakdown(tracer_e)}
    cats_h = {e.category: e.events for e in event_breakdown(tracer_h)}
    # The host pipeline stages every chunk twice (D2H at the source,
    # H2D at the target); enhanced-gdr stages only the source side.
    assert cats_h["cuda-copy"] > cats_e["cuda-copy"]


def test_link_utilization_counters():
    job, _tracer, res = _traced_job("enhanced-gdr")
    rows = link_utilization(job.hw, res.elapsed)
    names = [r[0] for r in rows]
    assert any("gpu0.pcie" in n for n in names)  # the D2H staging
    assert any("hca" in n and "port" in n for n in names)  # the wire
    total_bytes = sum(r[2] for r in rows)
    assert total_bytes >= 1 << 20  # at least the payload crossed links


def test_tables_render():
    job, tracer, res = _traced_job("enhanced-gdr")
    t1 = utilization_table(job.hw, res.elapsed)
    t2 = breakdown_table(tracer)
    assert "Link utilization" in t1 and "MB/s" in t1
    assert "Span breakdown" in t2
