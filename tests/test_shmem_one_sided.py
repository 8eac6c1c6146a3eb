"""Tests for true one-sidedness and communication/computation overlap.

These reproduce the *mechanism* behind Fig 10: under the proposed
design a put completes regardless of what the target is doing; under
the baseline the final pipeline stage waits for the target to enter
the runtime, so communication time tracks target compute time.
"""

import pytest

from repro.shmem import Domain, ShmemJob
from repro.units import KiB, MiB, usec

G = Domain.GPU


def overlap_program(nbytes, target_compute_s):
    """PE 0 puts to PE <last> while it is busy computing.

    Returns (comm_time, None) on PE 0 and (None, payload_ok) on the
    target.  comm_time is measured put -> quiet completion.
    """

    def main(ctx):
        sym = yield from ctx.shmalloc(nbytes, domain=G)
        src = ctx.cuda.malloc(nbytes)
        src.fill(0xEE, nbytes)
        yield from ctx.barrier_all()
        tgt = ctx.npes - 1
        if ctx.my_pe() == 0:
            t0 = ctx.now
            yield from ctx.putmem(sym, src, nbytes, pe=tgt)
            yield from ctx.quiet()
            comm = ctx.now - t0
            yield from ctx.barrier_all()
            return (comm, None)
        if ctx.my_pe() == tgt:
            yield from ctx.compute(target_compute_s)  # busy, outside runtime
        yield from ctx.barrier_all()
        ok = sym.read(nbytes) == bytes([0xEE]) * nbytes if ctx.my_pe() == tgt else None
        return (None, ok)

    return main


def comm_time(design, nbytes, target_compute_s):
    res = ShmemJob(nodes=2, pes_per_node=1, design=design).run(
        overlap_program(nbytes, target_compute_s)
    )
    assert res.results[1][1], "payload corrupted"
    return res.results[0][0]


@pytest.mark.parametrize("nbytes", [8 * KiB, 1 * MiB])
def test_enhanced_put_independent_of_target_compute(nbytes):
    """Proposed design: comm time flat as target compute grows (Fig 10)."""
    idle = comm_time("enhanced-gdr", nbytes, 0.0)
    busy = comm_time("enhanced-gdr", nbytes, 500 * 1e-6)
    assert busy <= idle * 1.10  # within 10%: truly one-sided


@pytest.mark.parametrize("nbytes", [8 * KiB, 1 * MiB])
def test_host_pipeline_put_tracks_target_compute(nbytes):
    """Baseline: the target's compute delays the final H2D stage."""
    idle = comm_time("host-pipeline", nbytes, 0.0)
    busy = comm_time("host-pipeline", nbytes, 500 * 1e-6)
    assert busy > idle + 400 * 1e-6  # grows ~1:1 with target compute


def test_overlap_percentage_shape():
    """Overlap metric as the paper plots it: ~100% for proposed,
    degrading for the baseline."""
    nbytes = 1 * MiB
    compute = 1000 * 1e-6

    def overlap(design):
        base = comm_time(design, nbytes, 0.0)
        with_compute = comm_time(design, nbytes, compute)
        extra = max(0.0, with_compute - base)
        return 100.0 * (1.0 - extra / compute)

    assert overlap("enhanced-gdr") > 95.0
    assert overlap("host-pipeline") < 40.0


def test_target_never_enters_runtime_for_enhanced_put():
    """Strong one-sidedness: the target PE performs *zero* service work
    under the proposed design."""

    def main(ctx):
        sym = yield from ctx.shmalloc(1 * MiB, domain=G)
        src = ctx.cuda.malloc(1 * MiB)
        yield from ctx.barrier_all()
        if ctx.my_pe() == 0:
            yield from ctx.putmem(sym, src, 1 * MiB, pe=ctx.npes - 1)
            yield from ctx.quiet()
        yield from ctx.barrier_all()
        return None

    job = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr")
    job.run(main)
    target_engine = job.runtime.service[job.npes - 1]
    assert target_engine.items_served == 0


def test_baseline_target_serves_pipeline_items():
    def main(ctx):
        sym = yield from ctx.shmalloc(1 * MiB, domain=G)
        src = ctx.cuda.malloc(1 * MiB)
        yield from ctx.barrier_all()
        if ctx.my_pe() == 0:
            yield from ctx.putmem(sym, src, 1 * MiB, pe=ctx.npes - 1)
            yield from ctx.quiet()
        yield from ctx.barrier_all()
        return None

    job = ShmemJob(nodes=2, pes_per_node=1, design="host-pipeline")
    job.run(main)
    target_engine = job.runtime.service[job.npes - 1]
    assert target_engine.items_served >= 1


def test_proxy_get_leaves_remote_pe_untouched():
    """Large D-D get: the remote *proxy* works, the remote *PE* doesn't."""

    def main(ctx):
        sym = yield from ctx.shmalloc(1 * MiB, domain=G)
        sym.fill(5)
        yield from ctx.barrier_all()
        if ctx.my_pe() == 0:
            dst = ctx.cuda.malloc(1 * MiB)
            yield from ctx.getmem(dst, sym, 1 * MiB, pe=ctx.npes - 1)
            assert dst.read(16) == bytes([5]) * 16
        yield from ctx.barrier_all()
        return None

    job = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr")
    job.run(main)
    remote_engine = job.runtime.service[job.npes - 1]
    assert remote_engine.items_served == 0
    assert any(p.engine.items_served for p in job.runtime.proxies.values())


def test_put_returns_before_delivery_for_rdma_paths():
    """Put-return (local completion) strictly precedes quiet completion
    for a long inter-node transfer."""

    def main2(ctx):
        sym = yield from ctx.shmalloc(16 * KiB, domain=Domain.HOST)
        src = ctx.cuda.malloc_host(16 * KiB)
        yield from ctx.barrier_all()
        out = None
        if ctx.my_pe() == 0:
            t0 = ctx.now
            yield from ctx.putmem(sym, src, 16 * KiB, pe=ctx.npes - 1)
            t_put = ctx.now
            yield from ctx.quiet()
            t_quiet = ctx.now
            out = (t_put - t0, t_quiet - t_put)
        yield from ctx.barrier_all()
        return out

    res = ShmemJob(nodes=2, design="enhanced-gdr").run(main2)
    put_time, quiet_extra = res.results[0]
    assert put_time < usec(2.0)  # returns right after posting
    assert quiet_extra > usec(1.0)  # the wire+landing happen afterwards


# ------------------------------------------------------------- non-blocking
def test_putmem_nbi_completes_at_quiet():
    def main(ctx):
        sym = yield from ctx.shmalloc(4096, domain=Domain.GPU)
        src = ctx.cuda.malloc_host(4096)
        src.fill(0x5C, 4096)
        yield from ctx.barrier_all()
        if ctx.my_pe() == 0:
            t0 = ctx.now
            ctx.putmem_nbi(sym, src, 4096, pe=ctx.npes - 1)
            assert ctx.now == t0  # returned without yielding any time
            yield from ctx.quiet()
        yield from ctx.barrier_all()
        if ctx.my_pe() == ctx.npes - 1:
            return sym.read(4096) == bytes([0x5C]) * 4096
        return None

    res = ShmemJob(nodes=2).run(main)
    assert res.results[-1] is True


def test_multiple_nbi_puts_pipeline():
    """Several nbi puts issued back-to-back all land after one quiet."""

    def main(ctx):
        syms = []
        for _ in range(4):
            s = yield from ctx.shmalloc(512, domain=Domain.GPU)
            syms.append(s)
        bufs = []
        yield from ctx.barrier_all()
        if ctx.my_pe() == 0:
            for i, s in enumerate(syms):
                b = ctx.cuda.malloc_host(512)
                b.fill(i + 1, 512)
                bufs.append(b)
                ctx.putmem_nbi(s, b, 512, pe=ctx.npes - 1)
            yield from ctx.quiet()
        yield from ctx.barrier_all()
        if ctx.my_pe() == ctx.npes - 1:
            return [s.read(1)[0] for s in syms]
        return None

    res = ShmemJob(nodes=2).run(main)
    assert res.results[-1] == [1, 2, 3, 4]
