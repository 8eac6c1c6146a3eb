"""Deferred payload snapshots: issue-time bytes, one copy, no leaks.

Every timed transfer takes its payload with :meth:`Ptr.snapshot` at
issue time and writes it at completion.  The snapshot copies nothing
until a write is about to change its source range (see
:class:`repro.cuda.memory.Snapshot`).  The tests here overwrite sources
at the worst moments — right after the op returns, or mid-flight, in the
same virtual instant the snapshot was taken — and demand that the target
still receives the bytes as they were at issue time.  The leak tests
demand that every transfer releases its snapshot when it delivers or
dies, after every registered experiment and under faults.
"""

import numpy as np
import pytest

from repro.check.oracles import check_workload
from repro.check.workload import generate_workload
from repro.cuda.memory import MemKind, MemorySpace, Ptr, Snapshot
from repro.errors import CudaError
from repro.reporting.experiments import EXPERIMENTS, run_experiment
from repro.shmem import Domain, ShmemJob
from repro.shmem.protocols import Protocol
from repro.units import KiB

G, H = Domain.GPU, Domain.HOST
OLD, NEW = 0x3C, 0xE1


@pytest.fixture
def count_copies(monkeypatch):
    """Counts ``taken``/``materialised`` snapshots while active."""
    counts = {"taken": 0, "materialised": 0}
    take, materialise = Ptr.snapshot, Snapshot.materialise

    def snapshot(self, nbytes):
        counts["taken"] += 1
        return take(self, nbytes)

    def counted(self):
        counts["materialised"] += 1
        materialise(self)

    monkeypatch.setattr(Ptr, "snapshot", snapshot)
    monkeypatch.setattr(Snapshot, "materialise", counted)
    return counts


@pytest.fixture
def spaces(monkeypatch):
    """Every :class:`MemorySpace` built while active."""
    made = []
    init = MemorySpace.__init__

    def record(self):
        init(self)
        made.append(self)

    monkeypatch.setattr(MemorySpace, "__init__", record)
    return made


def pending_snapshots(spaces):
    return sum(len(a.pending) for s in spaces for a in s._allocs)


class Clobber:
    """Overwrites an armed source range right after each snapshot of it.

    The overwrite runs from an event succeeded inside the snapshot call,
    so it lands in the same virtual instant, strictly after the transfer
    took its payload and before it delivers.  At each overwrite it notes
    whether the destination already held the issue-time bytes (it must
    not: the transfer has to be in flight)."""

    def __init__(self, monkeypatch):
        self.job = None
        self.src = None  # (alloc, lo, hi) of the armed source range
        self.dst = None  # (Ptr, nbytes) the transfer lands in
        self.hits = []
        take = Ptr.snapshot
        clobber = self

        def snapshot(ptr, nbytes):
            snap = take(ptr, nbytes)
            src = clobber.src
            if src is not None and ptr.alloc is src[0] and src[1] <= ptr.offset < src[2]:
                ev = clobber.job.sim.event("test:clobber")
                ev.callbacks.append(lambda _ev: clobber._hit(Ptr(ptr.alloc, ptr.offset), nbytes))
                ev.succeed()
            return snap

        monkeypatch.setattr(Ptr, "snapshot", snapshot)

    def arm(self, src: Ptr, nbytes: int, dst: Ptr) -> None:
        self.src = (src.alloc, src.offset, src.offset + nbytes)
        self.dst = (dst, nbytes)

    def disarm(self) -> None:
        self.src = None

    def _hit(self, ptr: Ptr, nbytes: int) -> None:
        dst, n = self.dst
        self.hits.append(dst.read(n) == bytes([OLD]) * n)
        ptr.write(bytes([NEW]) * nbytes)  # (the after-return variant uses fill)


def _alloc(ctx, domain, nbytes):
    return ctx.cuda.malloc(nbytes) if domain is G else ctx.cuda.malloc_host(nbytes)


def _job(design, nodes, pes_per_node, fast):
    job = ShmemJob(nodes=nodes, design=design, pes_per_node=pes_per_node)
    job.sim.fastpath = fast
    return job


def run_put(design, nodes, ppn, src_dom, dst_dom, nbytes, *, fast, clobber=None, nbi=False):
    """PE 0 puts ``nbytes`` of OLD to the last PE, then overwrites its
    source with NEW right after the put returns (or, with ``clobber``,
    mid-flight).  A warm-up put and a quiet go first, so the measured
    put is issued quiescent and the tier-1 batches can fire."""
    job = _job(design, nodes, ppn, fast)
    landing = {}

    def main(ctx):
        tgt = ctx.npes - 1
        sym = yield from ctx.shmalloc(nbytes, domain=dst_dom)
        landing[ctx.pe] = sym.local
        src = _alloc(ctx, src_dom, nbytes)
        src.fill(OLD, nbytes)
        yield from ctx.barrier_all()
        if ctx.my_pe() == 0:
            yield from ctx.putmem(sym, src, nbytes, pe=tgt)
            yield from ctx.quiet()
            landing[tgt].fill(0, nbytes)  # forget the warm-up's delivery
            if clobber is not None:
                clobber.arm(src, nbytes, landing[tgt])
            if nbi:
                ctx.putmem_nbi(sym, src, nbytes, pe=tgt)
            else:
                yield from ctx.putmem(sym, src, nbytes, pe=tgt)
                src.fill(NEW, nbytes)
            yield from ctx.quiet()
            if clobber is not None:
                clobber.disarm()
        yield from ctx.barrier_all()
        return sym.read(nbytes) if ctx.my_pe() == tgt else None

    if clobber is not None:
        clobber.job = job
    res = job.run(main)
    return res.results[-1], job


def run_get(design, nodes, ppn, local_dom, remote_dom, nbytes, *, fast, clobber):
    """PE 0 gets ``nbytes`` of OLD from the last PE while the remote
    source is overwritten mid-flight."""
    job = _job(design, nodes, ppn, fast)
    clobber.job = job
    sources = {}

    def main(ctx):
        tgt = ctx.npes - 1
        sym = yield from ctx.shmalloc(nbytes, domain=remote_dom)
        sym.fill(OLD, nbytes)
        sources[ctx.pe] = sym.local
        dst = _alloc(ctx, local_dom, nbytes)
        yield from ctx.barrier_all()
        got = None
        if ctx.my_pe() == 0:
            yield from ctx.getmem(dst, sym, nbytes, pe=tgt)
            dst.fill(0, nbytes)
            yield from ctx.quiet()
            clobber.arm(sources[tgt], nbytes, dst)
            yield from ctx.getmem(dst, sym, nbytes, pe=tgt)
            clobber.disarm()
            got = dst.read(nbytes)
        yield from ctx.barrier_all()
        return got

    res = job.run(main)
    return res.results[0], job


@pytest.fixture
def clobber(monkeypatch):
    return Clobber(monkeypatch)


def _protocols(job):
    return {p for p, c in job.runtime.protocol_counts.items() if c}


# ------------------------------------------------------------ put sites
#: (id, design, nodes, PEs per node, src domain, dst domain, nbytes,
#: protocol the measured put must take).
PUT_SITES = [
    ("tier2-rdma", "enhanced-gdr", 2, 1, H, H, 4 * KiB, Protocol.RDMA_HOST),
    ("direct-gdr", "enhanced-gdr", 2, 1, G, G, 4 * KiB, Protocol.DIRECT_GDR),
    ("device-gdr", "device-initiated", 2, 1, G, G, 4 * KiB, Protocol.DEVICE_GDR),
    ("staged-host", "host-pipeline", 1, 2, G, H, 600 * KiB, Protocol.STAGED_HOST_COPY),
    ("pipeline-gdr", "enhanced-gdr", 2, 1, G, G, 600 * KiB, Protocol.PIPELINE_GDR_WRITE),
    ("host-pipeline", "host-pipeline", 2, 1, G, G, 600 * KiB, Protocol.HOST_PIPELINE),
    ("ipc-memcpy", "enhanced-gdr", 1, 2, G, G, 64 * KiB, Protocol.IPC_COPY),
]


@pytest.mark.parametrize("fast", [True, False], ids=["tiered", "event"])
@pytest.mark.parametrize("site", PUT_SITES, ids=[s[0] for s in PUT_SITES])
def test_put_overwritten_after_return_delivers_issue_time_bytes(site, fast):
    _, design, nodes, ppn, sd, dd, nbytes, proto = site
    got, job = run_put(design, nodes, ppn, sd, dd, nbytes, fast=fast)
    assert got == bytes([OLD]) * nbytes
    assert proto in _protocols(job)


@pytest.mark.parametrize("fast", [True, False], ids=["tiered", "event"])
@pytest.mark.parametrize("site", PUT_SITES, ids=[s[0] for s in PUT_SITES])
def test_put_overwritten_mid_flight_delivers_issue_time_bytes(site, fast, clobber):
    _, design, nodes, ppn, sd, dd, nbytes, proto = site
    got, job = run_put(design, nodes, ppn, sd, dd, nbytes, fast=fast, clobber=clobber)
    assert got == bytes([OLD]) * nbytes
    assert clobber.hits and not any(clobber.hits)  # really in flight
    assert proto in _protocols(job)


def test_tier_coverage_of_the_put_sites():
    """The parametrised sites above really exercise each execution tier."""
    _, job = run_put("enhanced-gdr", 2, 1, H, H, 4 * KiB, fast=True)
    assert job.sim.stats.analytic_flows > 0  # tier-2 AnalyticFlow
    for design, nodes, ppn, sd, dd in (
        ("host-pipeline", 1, 2, G, H),  # _fast_staged
        ("enhanced-gdr", 2, 1, G, G),  # _fast_pipeline_put
    ):
        _, job = run_put(design, nodes, ppn, sd, dd, 600 * KiB, fast=True)
        assert job.sim.stats.fastpath_batches > 0
        _, job = run_put(design, nodes, ppn, sd, dd, 600 * KiB, fast=False)
        assert job.sim.stats.fastpath_batches == 0


@pytest.mark.parametrize("fast", [True, False], ids=["tiered", "event"])
def test_putmem_nbi_overwritten_mid_flight(fast, clobber):
    got, _ = run_put("enhanced-gdr", 2, 1, G, G, 600 * KiB, fast=fast, clobber=clobber, nbi=True)
    assert got == bytes([OLD]) * (600 * KiB)
    assert clobber.hits and not any(clobber.hits)


# ------------------------------------------------------------ get sites
GET_SITES = [
    ("rdma-read", "enhanced-gdr", H, H, 64 * KiB, Protocol.RDMA_HOST),
    ("direct-gdr", "enhanced-gdr", G, H, 4 * KiB, Protocol.DIRECT_GDR),
    ("proxy", "enhanced-gdr", H, G, 600 * KiB, Protocol.PROXY),
]


@pytest.mark.parametrize("fast", [True, False], ids=["tiered", "event"])
@pytest.mark.parametrize("site", GET_SITES, ids=[s[0] for s in GET_SITES])
def test_get_source_overwritten_mid_flight(site, fast, clobber):
    _, design, ld, rd, nbytes, proto = site
    got, job = run_get(design, 2, 1, ld, rd, nbytes, fast=fast, clobber=clobber)
    assert got == bytes([OLD]) * nbytes
    assert clobber.hits and not any(clobber.hits)
    assert proto in _protocols(job)


def test_proxy_get_takes_the_tier1_batch(clobber):
    _, job = run_get("enhanced-gdr", 2, 1, H, G, 600 * KiB, fast=True, clobber=clobber)
    assert job.sim.stats.fastpath_batches > 0


# ------------------------------------------------------- memcpy and MPI
def test_memcpy_source_overwritten_mid_flight(clobber):
    job = ShmemJob(nodes=1, pes_per_node=1, design="enhanced-gdr")
    clobber.job = job
    n = 256 * KiB

    def main(ctx):
        src, dst = ctx.cuda.malloc(n), ctx.cuda.malloc_host(n)
        src.fill(OLD, n)
        clobber.arm(src, n, dst)
        yield from ctx.cuda.memcpy(dst, src, n)
        clobber.disarm()
        return dst.read(n)

    assert job.run(main).results[0] == bytes([OLD]) * n
    assert clobber.hits == [False]


@pytest.mark.parametrize("send_dom", [G, H], ids=["device-send", "host-send"])
def test_mpi_pipelined_baseline_send_overwritten_mid_flight(send_dom, clobber):
    """The Fig 12 MPI baseline's inter-node GPU pipeline, chunk by chunk."""
    job = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr")
    clobber.job = job
    n = 600 * KiB
    recv_bufs = {}

    def main(ctx):
        comm = ctx.job.mpi.comm(ctx)
        recv_bufs[ctx.pe] = buf = ctx.cuda.malloc(n)
        yield from ctx.barrier_all()
        if ctx.my_pe() == 0:
            buf = _alloc(ctx, send_dom, n)
            buf.fill(OLD, n)
            clobber.arm(buf, n, recv_bufs[1])
            yield from comm.send(buf, n, dst=1)
            clobber.disarm()
            return None
        yield from comm.recv(buf, n, src=0)
        return buf.read(n)

    assert job.run(main).results[1] == bytes([OLD]) * n
    assert clobber.hits and not any(clobber.hits)


# ------------------------------------------------------ memory-model cases
@pytest.fixture
def space():
    return MemorySpace()


def _host(space, n):
    return space.allocate(MemKind.HOST, n, node_id=0, owner=0)


def test_overlapping_source_and_destination_in_one_allocation(space, count_copies):
    a = _host(space, 64)
    a.ptr().write(bytes(range(64)))
    snap = a.ptr(0).snapshot(32)
    a.ptr(8).write(snap)  # memmove semantics
    snap.release()
    assert a.ptr().read(64) == bytes(range(8)) + bytes(range(32)) + bytes(range(40, 64))
    assert count_copies["materialised"] == 1  # the write overlapped its own source
    assert not a.pending


def test_overlapping_put_to_self_through_the_runtime():
    n = 4 * KiB

    def main(ctx):
        sym = yield from ctx.shmalloc(2 * n, domain=G)
        sym.local.write(bytes(range(256)) * (2 * n // 256))
        before = sym.read(n)
        yield from ctx.putmem(sym.addr + 64, sym, n, pe=ctx.my_pe())
        yield from ctx.quiet()
        return (sym.local + 64).read(n) == before

    res = ShmemJob(nodes=1, pes_per_node=1, design="enhanced-gdr").run(main)
    assert res.results == [True]


def test_as_array_escapes_and_materialises_pending(space, count_copies):
    a, b = _host(space, 64), _host(space, 64)
    a.ptr().fill(OLD)
    pending = a.ptr(0).snapshot(16)
    view = a.ptr().as_array(np.uint8)  # materialises the pending snapshot
    assert count_copies["materialised"] == 1 and not a.pending and a.escaped
    eager = a.ptr(16).snapshot(16)  # escaped: copied at once
    assert count_copies["materialised"] == 2 and not a.pending
    view[:] = NEW  # a write the model cannot see
    b.ptr(0).write(pending)
    b.ptr(16).write(eager)
    assert b.ptr().read(32) == bytes([OLD]) * 32
    pending.release()
    eager.release()


def test_recycled_heap_offset_while_snapshot_pending():
    """A put's source block is freed and reallocated (same offset) and
    overwritten while the put is still in flight."""
    n = 4 * KiB

    def main(ctx):
        sym = yield from ctx.shmalloc(n, domain=H)
        dst = yield from ctx.shmalloc(n, domain=H)
        sym.local.fill(OLD, n)
        yield from ctx.barrier_all()
        recycled = None
        if ctx.my_pe() == 0:
            heap = ctx.runtime.heap_of(ctx.pe, H).heap
            yield from ctx.putmem(dst, sym, n, pe=1)
            pending = len(sym.local.alloc.pending)
            heap.shfree(sym.offset, generation=sym.gen)
            recycled = heap.shmalloc(n)
            heap.ptr(recycled).fill(NEW, n)
            yield from ctx.quiet()
            recycled = (recycled == sym.offset, pending)
        yield from ctx.barrier_all()
        return recycled if ctx.my_pe() == 0 else dst.read(n)

    res = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr").run(main)
    assert res.results[0] == (True, 1)  # same offset, snapshot was pending
    assert res.results[1] == bytes([OLD]) * n


def test_source_freed_while_snapshot_pending():
    n = 4 * KiB

    def main(ctx):
        dst = yield from ctx.shmalloc(n, domain=H)
        yield from ctx.barrier_all()
        if ctx.my_pe() == 0:
            src = ctx.cuda.malloc_host(n)
            src.fill(OLD, n)
            yield from ctx.putmem(dst, src, n, pe=1)
            ctx.cuda.free(src)
            yield from ctx.quiet()
        yield from ctx.barrier_all()
        return dst.read(n)

    res = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr").run(main)
    assert res.results[1] == bytes([OLD]) * n


def test_slice_reads_through_unmaterialised_parent(space, count_copies):
    a, b = _host(space, 64), _host(space, 64)
    a.ptr().write(bytes(range(64)))
    parent = a.ptr(8).snapshot(32)
    part = parent[4:12]
    assert len(part) == 8 and parent.data is None and part.data is None
    assert part.array().tobytes() == bytes(range(12, 20))
    a.ptr(0).fill(0xFF)  # parent materialises; the slice follows it
    assert count_copies["materialised"] == 1
    b.ptr(0).write(part)
    assert b.ptr(0).read(8) == bytes(range(12, 20))
    parent.release()
    with pytest.raises(CudaError):
        part.array()  # use after release is caught


def test_undisturbed_put_materialises_nothing(count_copies):
    got, _ = run_put("enhanced-gdr", 2, 1, G, G, 600 * KiB, fast=True, clobber=None, nbi=True)
    assert got == bytes([OLD]) * (600 * KiB)
    assert count_copies["taken"] > 0
    assert count_copies["materialised"] == 0


def test_write_of_pending_snapshot_copies_once(space, count_copies):
    a, b = _host(space, 64), _host(space, 64)
    a.ptr().fill(OLD)
    snap = a.ptr().snapshot(64)
    assert a.pending == [snap]
    b.ptr().write(snap)
    snap.release()
    assert not a.pending and count_copies["materialised"] == 0
    assert b.ptr().read(64) == bytes([OLD]) * 64


def test_non_overlapping_write_leaves_snapshot_pending(space, count_copies):
    a = _host(space, 64)
    snap = a.ptr(0).snapshot(16)
    a.ptr(16).fill(NEW, 48)
    assert a.pending == [snap] and count_copies["materialised"] == 0
    snap.release()
    assert not a.pending


def test_analytic_flow_death_releases_its_snapshot(monkeypatch):
    """``AnalyticFlow._die`` (the tier-2 failure path) releases."""
    from repro.shmem.fastpath import AnalyticFlow

    died = []
    finish = AnalyticFlow._finish

    def die_instead(flow, ev):
        if not died:
            died.append(flow)
            flow._die(CudaError("injected mid-flight death"))
            return
        finish(flow, ev)

    monkeypatch.setattr(AnalyticFlow, "_finish", die_instead)
    with pytest.raises(CudaError, match="injected"):
        run_put("enhanced-gdr", 2, 1, H, H, 4 * KiB, fast=True)
    payload = died[0].payload
    assert payload.alloc is None and payload.data is None  # released, not copied


# ------------------------------------------------------------- no leaks
@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_no_pending_snapshot_after_quick_experiment(exp_id, spaces):
    run_experiment(exp_id, quick=True)
    assert pending_snapshots(spaces) == 0


def test_no_pending_snapshot_after_faulted_msg_check_seed(spaces, monkeypatch):
    """Seed 10021 (device-initiated, 2x4 PEs) kills RDMA writes through
    RC retry exhaustion and replays them, so snapshots are released on
    the failure path as well as on delivery."""
    written = {}
    died = []
    write, release = Ptr.write, Snapshot.release

    def tracked_write(ptr, payload):
        if type(payload) is Snapshot:
            root = payload.parent if payload.parent is not None else payload
            written[id(root)] = root
        write(ptr, payload)

    def tracked_release(snap):
        if snap.alloc is not None and written.get(id(snap)) is not snap:
            died.append(snap)
        release(snap)

    monkeypatch.setattr(Ptr, "write", tracked_write)
    monkeypatch.setattr(Snapshot, "release", tracked_release)
    w = generate_workload(10021, ops=12, faults=True, msg=True)
    report = check_workload(w)
    assert report.passed, report.summary()
    assert died  # undelivered transfers released their payloads
    assert pending_snapshots(spaces) == 0
