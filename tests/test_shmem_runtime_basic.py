"""End-to-end correctness of put/get across designs and configurations."""

import pytest

from tests.helpers import run_get, run_put
from repro.errors import ShmemError
from repro.shmem import Domain, Protocol, ShmemJob, UnsupportedConfiguration
from repro.units import KiB, MiB

H, G = Domain.HOST, Domain.GPU

ALL_CONFIGS = [(H, H), (H, G), (G, H), (G, G)]
SIZES = [8, 4 * KiB, 1 * MiB]


# ----------------------------------------------------- data correctness
@pytest.mark.parametrize("src,dst", ALL_CONFIGS)
@pytest.mark.parametrize("nbytes", SIZES)
def test_enhanced_put_internode_all_configs(src, dst, nbytes):
    _lat, ok, _job = run_put("enhanced-gdr", nbytes, src, dst, nodes=2)
    assert ok


@pytest.mark.parametrize("src,dst", ALL_CONFIGS)
@pytest.mark.parametrize("nbytes", SIZES)
def test_enhanced_put_intranode_all_configs(src, dst, nbytes):
    _lat, ok, _job = run_put("enhanced-gdr", nbytes, src, dst, nodes=1, target="near")
    assert ok


@pytest.mark.parametrize("local,remote", ALL_CONFIGS)
@pytest.mark.parametrize("nbytes", SIZES)
def test_enhanced_get_internode_all_configs(local, remote, nbytes):
    _lat, ok, _job = run_get("enhanced-gdr", nbytes, local, remote, nodes=2)
    assert ok


@pytest.mark.parametrize("local,remote", ALL_CONFIGS)
def test_enhanced_get_intranode_all_configs(local, remote):
    _lat, ok, _job = run_get("enhanced-gdr", 64 * KiB, local, remote, nodes=1, target="near")
    assert ok


@pytest.mark.parametrize("src,dst", ALL_CONFIGS)
def test_host_pipeline_put_intranode_all_configs(src, dst):
    _lat, ok, _job = run_put("host-pipeline", 1 * MiB, src, dst, nodes=1, target="near")
    assert ok


@pytest.mark.parametrize("nbytes", SIZES)
def test_host_pipeline_put_internode_dd(nbytes):
    _lat, ok, _job = run_put("host-pipeline", nbytes, G, G, nodes=2)
    assert ok


@pytest.mark.parametrize("nbytes", [8, 1 * MiB])
def test_host_pipeline_get_internode_dd(nbytes):
    _lat, ok, _job = run_get("host-pipeline", nbytes, G, G, nodes=2)
    assert ok


def test_naive_put_hh():
    _lat, ok, _job = run_put("naive", 4 * KiB, H, H, nodes=2)
    assert ok


# --------------------------------------------------- unsupported configs
def test_naive_rejects_gpu_domain():
    def main(ctx):
        yield from ctx.shmalloc(64, domain=G)

    with pytest.raises(ShmemError, match="no GPU symmetric heap"):
        ShmemJob(nodes=1, design="naive").run(main)


def test_host_pipeline_rejects_internode_interdomain():
    def main(ctx):
        sym = yield from ctx.shmalloc(64, domain=G)
        if ctx.my_pe() == 0:
            src = ctx.cuda.malloc_host(64)
            yield from ctx.putmem(sym, src, 8, pe=ctx.npes - 1)
        yield from ctx.barrier_all()

    job = ShmemJob(nodes=2, design="host-pipeline")
    with pytest.raises(UnsupportedConfiguration):
        job.run(main)


@pytest.mark.parametrize("fastpath", [True, False])
def test_unsupported_put_raises_after_dispatch_in_every_mode(fastpath):
    """An unsupported put raises at the instant the route is chosen,
    after the dispatch cost, whether or not the analytic put commit is
    enabled — and raises again on a second try (errors are not
    memoised)."""

    def main(ctx):
        sym = yield from ctx.shmalloc(64, domain=G)
        elapsed = []
        if ctx.my_pe() == 0:
            src = ctx.cuda.malloc_host(64)
            for _ in range(2):
                t0 = ctx.now
                try:
                    yield from ctx.putmem(sym, src, 64, pe=ctx.npes - 1)
                except UnsupportedConfiguration:
                    elapsed.append(ctx.now - t0)
        return elapsed

    job = ShmemJob(nodes=2, design="host-pipeline")
    job.sim.fastpath = fastpath
    res = job.run(main)
    dispatch = job.params.shmem_dispatch_overhead
    assert res.results[0] == [pytest.approx(dispatch)] * 2


# ----------------------------------------------------- protocol auditing
def test_protocols_used_match_selector_small_dd():
    _lat, _ok, job = run_put("enhanced-gdr", 8, G, G, nodes=2)
    assert job.runtime.protocol_counts.get(Protocol.DIRECT_GDR, 0) >= 1


def test_protocols_used_match_selector_large_dd():
    _lat, _ok, job = run_put("enhanced-gdr", 1 * MiB, G, G, nodes=2)
    assert job.runtime.protocol_counts.get(Protocol.PIPELINE_GDR_WRITE, 0) >= 1


def test_protocols_used_proxy_get():
    _lat, _ok, job = run_get("enhanced-gdr", 1 * MiB, G, G, nodes=2)
    assert job.runtime.protocol_counts.get(Protocol.PROXY, 0) >= 1
    proxies = job.runtime.proxies
    assert sum(p.engine.items_served for p in proxies.values()) >= 1


def test_protocols_host_pipeline_counts():
    _lat, _ok, job = run_put("host-pipeline", 1 * MiB, G, G, nodes=2)
    assert job.runtime.protocol_counts.get(Protocol.HOST_PIPELINE, 0) >= 1


# ------------------------------------------------------------ semantics
def test_put_is_ordered_by_quiet_then_flag():
    """Classic producer/consumer: data put, quiet, flag put, wait."""

    def main(ctx):
        data = yield from ctx.shmalloc(1024, domain=G)
        flag = yield from ctx.shmalloc(8, domain=Domain.HOST)
        if ctx.my_pe() == 0:
            src = ctx.cuda.malloc_host(1024)
            src.fill(0x42, 1024)
            yield from ctx.putmem(data, src, 1024, pe=1)
            yield from ctx.quiet()
            yield from ctx.put_uint64(flag, 1, pe=1)
            yield from ctx.quiet()
            return None
        else:
            yield from ctx.wait_until(flag, "==", 1)
            return data.read(1024) == bytes([0x42]) * 1024

    res = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr").run(main)
    assert res.results[1] is True


def test_get_blocks_until_data_local():
    def main2(ctx):
        sym = yield from ctx.shmalloc(4096, domain=G)
        sym.fill(ctx.my_pe() + 1)
        yield from ctx.barrier_all()
        ok = None
        if ctx.my_pe() == 0:
            dst = ctx.cuda.malloc_host(4096)
            yield from ctx.getmem(dst, sym, 4096, pe=1)
            ok = dst.read(4096) == bytes([2]) * 4096
        yield from ctx.barrier_all()
        return ok

    res = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr").run(main2)
    assert res.results[0] is True


def test_put_to_self():
    def main(ctx):
        sym = yield from ctx.shmalloc(256, domain=G)
        src = ctx.cuda.malloc_host(256)
        src.fill(0x77, 256)
        yield from ctx.putmem(sym, src, 256, pe=ctx.my_pe())
        yield from ctx.quiet()
        return sym.read(256) == bytes([0x77]) * 256

    res = ShmemJob(nodes=1, design="enhanced-gdr").run(main)
    assert all(res.results)


def test_put_invalid_pe_and_size():
    def bad_pe(ctx):
        sym = yield from ctx.shmalloc(64)
        src = ctx.cuda.malloc_host(64)
        yield from ctx.putmem(sym, src, 8, pe=999)

    with pytest.raises(ShmemError, match="out of range"):
        ShmemJob(nodes=1, design="enhanced-gdr").run(bad_pe)

    def bad_size(ctx):
        sym = yield from ctx.shmalloc(64)
        src = ctx.cuda.malloc_host(64)
        yield from ctx.putmem(sym, src, 0, pe=0)

    with pytest.raises(ShmemError, match="0 bytes"):
        ShmemJob(nodes=1, design="enhanced-gdr").run(bad_size)


def test_shmalloc_is_symmetric_across_pes():
    def main(ctx):
        a = yield from ctx.shmalloc(128, domain=G)
        b = yield from ctx.shmalloc(256, domain=Domain.HOST)
        return (a.offset, b.offset)

    res = ShmemJob(nodes=2, design="enhanced-gdr").run(main)
    assert len(set(res.results)) == 1  # identical offsets everywhere


def test_shfree_allows_reuse():
    def main(ctx):
        a = yield from ctx.shmalloc(128)
        off = a.offset
        yield from ctx.shfree(a)
        b = yield from ctx.shmalloc(128)
        return b.offset == off

    res = ShmemJob(nodes=1, design="enhanced-gdr").run(main)
    assert all(res.results)


def test_heap_exhaustion_raises():
    def main(ctx):
        yield from ctx.shmalloc(1 << 30)

    with pytest.raises(ShmemError):
        ShmemJob(nodes=1, design="enhanced-gdr").run(main)


def test_job_is_single_shot():
    def main(ctx):
        yield from ctx.barrier_all()

    job = ShmemJob(nodes=1)
    job.run(main)
    with pytest.raises(ShmemError, match="single-shot"):
        job.run(main)


def test_deadlock_detection():
    def main(ctx):
        flag = yield from ctx.shmalloc(8)
        if ctx.my_pe() == 0:
            yield from ctx.wait_until(flag, "==", 42)  # nobody ever sets it

    with pytest.raises(ShmemError, match="blocked"):
        ShmemJob(nodes=1, design="enhanced-gdr").run(main)


# ------------------------------------------------------------- shmem_ptr
def test_shmem_ptr_same_node_host_and_gpu():
    def main(ctx):
        hsym = yield from ctx.shmalloc(64, domain=Domain.HOST)
        gsym = yield from ctx.shmalloc(64, domain=G)
        yield from ctx.barrier_all()
        if ctx.my_pe() == 0:
            p = ctx.shmem_ptr(hsym, 1)
            assert p is not None
            p.write(b"direct!!")
            g = ctx.shmem_ptr(gsym, 1)
            assert g is not None
            g.write(b"gpu-side")
        yield from ctx.barrier_all()
        if ctx.my_pe() == 1:
            return (hsym.read(8), gsym.read(8))
        return None

    res = ShmemJob(nodes=1, design="enhanced-gdr").run(main)
    assert res.results[1] == (b"direct!!", b"gpu-side")


def test_shmem_ptr_cross_node_is_none():
    def main(ctx):
        sym = yield from ctx.shmalloc(64)
        yield from ctx.barrier_all()
        if ctx.my_pe() == 0:
            return ctx.shmem_ptr(sym, ctx.npes - 1)
        return "n/a"

    res = ShmemJob(nodes=2, design="enhanced-gdr").run(main)
    assert res.results[0] is None


def test_gpu_registration_limit_enforced():
    """§V-C: Wilkes' registrable-GPU-memory cap (BAR1) blocks oversized
    GPU heaps under GDR designs; the baseline (no GDR registration)
    and a raised limit both proceed."""
    from repro.hardware import wilkes_params

    big = 512 << 20  # past the 256 MB default window
    with pytest.raises(ShmemError, match="registrable window"):
        ShmemJob(nodes=1, pes_per_node=1, design="enhanced-gdr", gpu_heap_size=big)

    # The baseline never registers the GPU heap: unaffected.
    ShmemJob(nodes=1, pes_per_node=1, design="host-pipeline", gpu_heap_size=big)

    # An admin-raised window (bigger BAR1) also proceeds.
    params = wilkes_params().tuned(gpu_max_registered=1 << 30)
    ShmemJob(nodes=1, pes_per_node=1, design="enhanced-gdr",
             gpu_heap_size=big, params=params)


def test_init_charges_registration_time():
    """§III-A: heap registration is expensive; init must cost real
    virtual time (observable as a late program start)."""
    from repro.hardware import wilkes_params

    def main(ctx):
        t = ctx.now  # time at program entry (post-init barrier)
        yield from ctx.barrier_all()
        return t

    res = ShmemJob(nodes=1, pes_per_node=1, design="enhanced-gdr").run(main)
    p = wilkes_params()
    assert res.results[0] >= 3 * p.mr_register_overhead  # host+gpu+staging
    assert res.start_time == pytest.approx(res.results[0])


def test_fence_equals_quiet_semantics():
    """fence orders prior puts before later ones to the same target."""

    def main(ctx):
        sym = yield from ctx.shmalloc(16, domain=Domain.HOST)
        buf = ctx.cuda.malloc_host(8)
        if ctx.my_pe() == 0:
            buf.write(b"AAAAAAAA")
            yield from ctx.putmem(sym, buf, 8, pe=1)
            yield from ctx.fence()
            buf.write(b"BBBBBBBB")  # reuse after fence: must not clobber
            yield from ctx.putmem(sym.addr + 8, buf, 8, pe=1)
            yield from ctx.quiet()
        yield from ctx.barrier_all()
        return sym.read(16) if ctx.my_pe() == 1 else None

    res = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr").run(main)
    assert res.results[1] == b"AAAAAAAA" + b"BBBBBBBB"
