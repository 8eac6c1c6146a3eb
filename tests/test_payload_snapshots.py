"""Deferred payloads: issue-time bytes, at most one copy, no leaks.

Every timed transfer takes its payload with :meth:`Ptr.snapshot` at
issue time and writes it at completion.  The snapshot copies nothing
until a write is about to change its source range (see
:class:`repro.cuda.memory.Snapshot`), and the delivery copies nothing
until the delivered bytes could be observed (see
:class:`repro.cuda.memory.Inbound`).  The tests here overwrite sources
at the worst moments — right after the op returns, or mid-flight, in the
same virtual instant the snapshot was taken — and demand that the target
still receives the bytes as they were at issue time.  They read every
snapshot site's destination after a lazy delivery, drive each trigger
that applies an inbound range, and count the bytes the memory model
copies (:attr:`MemorySpace.bytes_copied`).  The leak tests demand that
every transfer releases its snapshot when it delivers or dies, after
every registered experiment and under faults, and that every staging
slot is back in its pool by then.
"""

import numpy as np
import pytest

from repro.check.oracles import check_workload
from repro.check.workload import generate_workload
from repro.cuda.memory import Inbound, MemKind, MemorySpace, Ptr, Snapshot
from repro.errors import CudaError
from repro.reporting.experiments import EXPERIMENTS, run_experiment
from repro.shmem import Domain, ShmemJob
from repro.shmem.protocols import Protocol
from repro.units import KiB

from .helpers import short_pools

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
def copied():
    """Bytes the memory model has copied since the test began."""
    start = MemorySpace.bytes_copied
    return lambda: MemorySpace.bytes_copied - start


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


def leaked_snapshots(spaces):
    """Registrations no live inbound range holds.  An inbound range keeps
    its own registration on its source until it is applied or dropped;
    every other one is a transfer's snapshot, which must be released."""
    allocs = [a for s in spaces for a in s._allocs]
    live = {id(r) for a in allocs for r in a.inbound}
    return [snap for a in allocs for snap in a.pending if id(snap) not in live]


def held(ptr, nbytes):
    """Bytes of ``[ptr, ptr + nbytes)`` delivered but not yet copied."""
    lo, hi = ptr.offset, ptr.offset + nbytes
    return sum(
        min(hi, r.at + r.nbytes) - max(lo, r.at) for r in ptr.alloc.inbound if r.at < hi and lo < r.at + r.nbytes
    )


def read_delivered(ptr, nbytes, probe):
    """Read ``nbytes`` at ``ptr``, noting in ``probe`` how many were still
    held uncopied and how many the read (and a second read) copied."""
    probe["held"] = held(ptr, nbytes)
    start = MemorySpace.bytes_copied
    data = ptr.read(nbytes)
    probe["copied"] = MemorySpace.bytes_copied - start
    assert ptr.read(nbytes) == data
    probe["copied_again"] = MemorySpace.bytes_copied - start - probe["copied"]
    return data


def assert_copied_on_read(probe, nbytes):
    assert probe == {"held": nbytes, "copied": nbytes, "copied_again": 0}


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


def run_put(design, nodes, ppn, src_dom, dst_dom, nbytes, *, fast, clobber=None, nbi=False, probe=None):
    """PE 0 puts ``nbytes`` of OLD to the last PE, then overwrites its
    source with NEW right after the put returns (or, with ``clobber``,
    mid-flight).  A warm-up put and a quiet go first, so the measured
    put is issued quiescent and the tier-0 batch can fire.  With
    ``probe`` the target reads through :func:`read_delivered`."""
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
        if ctx.my_pe() != tgt:
            return None
        return sym.read(nbytes) if probe is None else read_delivered(sym.local, nbytes, probe)

    if clobber is not None:
        clobber.job = job
    res = job.run(main)
    return res.results[-1], job


def run_get(design, nodes, ppn, local_dom, remote_dom, nbytes, *, fast, clobber=None, probe=None):
    """PE 0 gets ``nbytes`` of OLD from the last PE while the remote
    source is overwritten mid-flight (with ``clobber``).  With ``probe``
    PE 0 reads through :func:`read_delivered`."""
    job = _job(design, nodes, ppn, fast)
    if clobber is not None:
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
            if clobber is not None:
                clobber.arm(sources[tgt], nbytes, dst)
            yield from ctx.getmem(dst, sym, nbytes, pe=tgt)
            if clobber is not None:
                clobber.disarm()
            got = dst.read(nbytes) if probe is None else read_delivered(dst, nbytes, probe)
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


@pytest.mark.parametrize("fast", [True, False], ids=["tiered", "event"])
@pytest.mark.parametrize("site", PUT_SITES, ids=[s[0] for s in PUT_SITES])
def test_put_delivery_is_copied_only_when_read(site, fast):
    """Read-after-lazy-write: the put lands without a copy, and the
    target's read copies every landed byte exactly once."""
    _, design, nodes, ppn, sd, dd, nbytes, proto = site
    probe = {}
    got, job = run_put(design, nodes, ppn, sd, dd, nbytes, fast=fast, nbi=True, probe=probe)
    assert got == bytes([OLD]) * nbytes
    assert_copied_on_read(probe, nbytes)
    assert proto in _protocols(job)


def test_tier_coverage_of_the_put_sites():
    """The parametrised sites above really exercise each execution tier."""
    _, job = run_put("enhanced-gdr", 2, 1, H, H, 4 * KiB, fast=True)
    assert job.sim.stats.analytic_flows > 0  # tier-2 commit (_fast_rdma_put)
    _, job = run_put("host-pipeline", 1, 2, G, H, 600 * KiB, fast=True)
    assert job.sim.stats.fastpath_batches > 0  # tier-0 _fast_staged
    _, job = run_put("host-pipeline", 1, 2, G, H, 600 * KiB, fast=False)
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


@pytest.mark.parametrize("fast", [True, False], ids=["tiered", "event"])
@pytest.mark.parametrize("site", GET_SITES, ids=[s[0] for s in GET_SITES])
def test_get_delivery_is_copied_only_when_read(site, fast):
    _, design, ld, rd, nbytes, proto = site
    probe = {}
    got, job = run_get(design, 2, 1, ld, rd, nbytes, fast=fast, probe=probe)
    assert got == bytes([OLD]) * nbytes
    assert_copied_on_read(probe, nbytes)
    assert proto in _protocols(job)


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


def test_memcpy_delivery_is_copied_only_when_read():
    n = 256 * KiB
    probe = {}

    def main(ctx):
        src, dst = ctx.cuda.malloc(n), ctx.cuda.malloc_host(n)
        src.fill(OLD, n)
        yield from ctx.cuda.memcpy(dst, src, n)
        return read_delivered(dst, n, probe)

    assert ShmemJob(nodes=1, pes_per_node=1).run(main).results[0] == bytes([OLD]) * n
    assert_copied_on_read(probe, n)


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


@pytest.mark.parametrize("send_dom", [G, H], ids=["device-send", "host-send"])
def test_mpi_pipelined_delivery_is_copied_only_when_read(send_dom):
    """The pipeline's staging slots forward each chunk's snapshot, so the
    receive buffer's ranges read straight from the send buffer."""
    n = 600 * KiB
    probe = {}

    def main(ctx):
        comm = ctx.job.mpi.comm(ctx)
        if ctx.my_pe() == 0:
            buf = _alloc(ctx, send_dom, n)
            buf.fill(OLD, n)
            yield from comm.send(buf, n, dst=1)
            return None
        buf = ctx.cuda.malloc(n)
        yield from comm.recv(buf, n, src=0)
        return read_delivered(buf, n, probe)

    job = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr")
    assert job.run(main).results[1] == bytes([OLD]) * n
    assert_copied_on_read(probe, n)


def _msg_delivery(nodes, nbytes):
    """PE 0 sends ``nbytes`` to PE 1 over the msg engine; PE 1 reads them
    back through :func:`read_delivered`.  Returns the job and the probe."""
    probe = {}

    def main(ctx):
        buf = ctx.cuda.malloc_host(nbytes)
        if ctx.pe == 0:
            buf.fill(OLD, nbytes)
            yield from ctx.send(buf, nbytes, 1)
            return None
        yield from ctx.recv(buf, nbytes, src=0)
        return read_delivered(buf, nbytes, probe)

    job = ShmemJob(nodes=nodes, pes_per_node=2 // nodes, design="enhanced-gdr")
    assert job.run(main).results[1] == bytes([OLD]) * nbytes
    assert_copied_on_read(probe, nbytes)
    return job


@pytest.mark.parametrize("nodes", [1, 2], ids=["intra-node", "inter-node"])
def test_msg_rendezvous_delivery_is_copied_only_when_read(nodes):
    job = _msg_delivery(nodes, 32 * KiB)
    assert [row[4] for row in job.msg.match_log] == ["rendezvous"]


@pytest.mark.parametrize("nodes", [1, 2], ids=["intra-node", "inter-node"])
def test_msg_eager_delivery_is_copied_only_when_read(nodes):
    """The eager payload is a snapshot taken at post, passed through the
    receiver's bounce slot without a copy."""
    job = _msg_delivery(nodes, 2 * KiB)
    assert [row[4] for row in job.msg.match_log] == ["eager"]


@pytest.mark.parametrize("api", ["msg", "mpi"])
def test_eager_send_overwritten_after_post_delivers_post_time_bytes(api):
    """An eager send completes at post, so the sender may overwrite its
    buffer at once; the receiver still gets the bytes as they were at
    post, copied out of the sender's buffer only then."""
    nbytes = 2 * KiB

    def main(ctx):
        buf = ctx.cuda.malloc_host(nbytes)
        comm = ctx.job.mpi.comm(ctx) if api == "mpi" else None
        if ctx.pe == 0:
            buf.fill(OLD, nbytes)
            yield from ctx.barrier_all()
            done = comm.isend(buf, nbytes, 1) if comm else ctx.isend(buf, nbytes, 1)
            assert done.triggered
            buf.fill(NEW, nbytes)
            return None
        yield from ctx.barrier_all()
        if comm:
            yield from comm.recv(buf, nbytes, 0)
        else:
            yield from ctx.recv(buf, nbytes, 0)
        return buf.read(nbytes)

    job = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr")
    assert job.run(main).results[1] == bytes([OLD]) * nbytes


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


def test_undisturbed_put_materialises_nothing(count_copies):
    got, _ = run_put("enhanced-gdr", 2, 1, G, G, 600 * KiB, fast=True, clobber=None, nbi=True)
    assert got == bytes([OLD]) * (600 * KiB)
    assert count_copies["taken"] > 0
    assert count_copies["materialised"] == 0


def test_write_of_pending_snapshot_copies_once(space, count_copies, copied):
    """At most one copy, and only on read: delivering a pending snapshot
    records an inbound range; the first read applies it."""
    a, b = _host(space, 64), _host(space, 64)
    a.ptr().fill(OLD)
    snap = a.ptr().snapshot(64)
    assert a.pending == [snap]
    b.ptr().write(snap)
    snap.release()
    assert copied() == 0 and len(b.inbound) == 1
    assert a.pending == b.inbound  # the range's own registration
    assert b.ptr().read(64) == bytes([OLD]) * 64
    assert copied() == 64 and count_copies["materialised"] == 0
    assert not a.pending and not b.inbound
    assert b.ptr().read(64) == bytes([OLD]) * 64
    assert copied() == 64


def _lazy(space, n=64, size=64):
    """``b[0:n]`` holds an inbound range of OLD read from ``a``."""
    a, b = _host(space, n), _host(space, size)
    a.ptr().fill(OLD)
    snap = a.ptr().snapshot(n)
    b.ptr().write(snap)
    snap.release()
    return a, b


#: A read or write of ``b[8:16]`` (or ``b[32:96]``) of a 128-byte ``b``
#: whose first 64 bytes are an inbound range: each must apply it first.
#: Each returns what it observed (``None`` for writes).
APPLY_TRIGGERS = {
    "read": lambda b: b.ptr(8).read(8),
    "read_view": lambda b: b.ptr(8).read_view(8).tobytes(),
    "as_array": lambda b: b.ptr(8).as_array(np.uint8, 8).tobytes(),
    "partial-write": lambda b: b.ptr(8).write(bytes([NEW]) * 8),
    "partial-fill": lambda b: b.ptr(8).fill(NEW, 8),
    "partial-snapshot": lambda b: b.ptr(32).snapshot(64),
}


@pytest.mark.parametrize("trigger", sorted(APPLY_TRIGGERS))
def test_apply_trigger(trigger, space, count_copies, copied):
    a, b = _lazy(space, size=128)
    seen = APPLY_TRIGGERS[trigger](b)
    assert not b.inbound and not a.pending  # applied, registration gone
    assert count_copies["materialised"] == 0
    assert copied() == 64 + (8 if trigger == "partial-write" else 0)
    a.ptr().fill(NEW)  # the range no longer reads through
    want = bytes([OLD]) * 64
    if trigger.startswith("partial-") and trigger != "partial-snapshot":
        want = want[:8] + bytes([NEW]) * 8 + want[16:]
    assert b.ptr().read(64) == want
    if trigger == "partial-snapshot":
        assert seen.array().tobytes() == bytes([OLD]) * 32 + bytes(32)
        seen.release()
    elif seen is not None:
        assert seen == bytes([OLD]) * 8


def test_source_overwrite_applies_straight_into_the_destination(space, count_copies, copied):
    a, b = _lazy(space)
    a.ptr(16).fill(NEW, 8)  # a write about to change the range's source
    assert count_copies["materialised"] == 0  # not copied out first
    assert copied() == 64 and not b.inbound and not a.pending
    assert b.ptr().read(64) == bytes([OLD]) * 64
    assert copied() == 64


@pytest.mark.parametrize("how", ["fill", "write-bytes", "write-snapshot"])
def test_full_overwrite_drops_a_range_unread(how, space, copied):
    a, b = _lazy(space)
    c = _host(space, 64)
    c.ptr().fill(NEW)
    if how == "fill":
        b.ptr().fill(NEW)
    elif how == "write-bytes":
        b.ptr().write(bytes([NEW]) * 64)
    else:
        snap = c.ptr().snapshot(64)
        b.ptr().write(snap)
        snap.release()
    assert not a.pending  # the dropped range's registration is gone
    assert [r.alloc for r in b.inbound] == ([c] if how == "write-snapshot" else [])
    assert copied() == (64 if how == "write-bytes" else 0)
    a.ptr().fill(NEW)  # nothing reads a any more
    assert b.ptr().read(64) == bytes([NEW]) * 64
    assert copied() == (0 if how == "fill" else 64)  # the new bytes, once


def test_snapshot_inside_a_range_forwards_to_its_source(space, copied):
    """Chains stay one deep: a snapshot of delivered bytes reads the
    original source, and so does the next range built from it."""
    a, b = _lazy(space)
    c = _host(space, 64)
    snap = b.ptr(8).snapshot(16)
    assert snap.alloc is a and snap.offset == 8 and snap in a.pending
    c.ptr().write(snap)
    snap.release()
    assert copied() == 0 and [r.alloc for r in c.inbound] == [a]
    a.ptr().fill(NEW)  # applies both ranges, each straight from a
    assert copied() == 64 + 16
    assert c.ptr().read(16) == b.ptr(8).read(16) == bytes([OLD]) * 16
    assert copied() == 80


def test_snapshot_inside_a_copied_out_range_shares_its_bytes(space, count_copies, copied):
    a = _host(space, 64)
    a.ptr().write(bytes(range(64)))
    snap = a.ptr(0).snapshot(32)
    a.ptr(8).write(snap)  # overlaps its own source: copied out
    snap.release()
    inner = a.ptr(16).snapshot(8)
    assert inner.data is not None and count_copies["materialised"] == 1
    assert inner.array().tobytes() == bytes(range(8, 16))
    inner.release()


def test_inbound_cycle_between_two_allocations(space, count_copies, copied):
    """``b[0:16]`` reads ``a`` while ``a[32:48]`` reads ``b``.  A write
    over all of ``a`` applies the range reading from it and drops the
    range it covers; each byte moves once, and no range is applied
    twice."""
    a, b = _host(space, 64), _host(space, 64)
    a.ptr().fill(0xA0)
    b.ptr().fill(0xB0)
    for src, dst, at in ((a, b, 0), (b, a, 32)):
        snap = src.ptr(at).snapshot(16)
        dst.ptr(at).write(snap)
        snap.release()
    assert copied() == 0 and len(a.pending) == len(b.pending) == 1
    a.ptr().fill(0xA1)
    assert copied() == 16 and count_copies["materialised"] == 0
    assert not (a.pending or b.pending or a.inbound or b.inbound)
    assert b.ptr().read(64) == bytes([0xA0]) * 16 + bytes([0xB0]) * 48
    assert a.ptr().read(64) == bytes([0xA1]) * 64
    assert copied() == 16


def test_write_back_to_its_own_source_copies_nothing(space, count_copies, copied):
    """``b`` reads ``a``; a snapshot of ``b`` forwards to ``a``, and
    writing it back onto ``a`` leaves ``a``'s bytes as they are: nothing
    is applied, copied out or recorded."""
    a, b = _lazy(space, 16, 16)
    back = b.ptr().snapshot(16)
    assert back.alloc is a
    a.ptr().write(back)
    back.release()
    assert copied() == 0 and count_copies["materialised"] == 0
    assert not a.inbound and len(b.inbound) == 1
    assert a.ptr().read(16) == b.ptr().read(16) == bytes([OLD]) * 16
    assert copied() == 16


def test_freed_destination_drops_its_ranges(space, copied):
    a, b = _lazy(space)
    space.free(b)
    assert not b.inbound and not a.pending
    a.ptr().fill(NEW)
    assert copied() == 0


def test_recycled_destination_heap_offset():
    """A put lands lazily in a heap block that is then freed and
    reallocated at the same offset: the new owner's partial overwrite
    and read see what an eager write would have left."""
    n = 4 * KiB

    def main(ctx):
        dst = yield from ctx.shmalloc(n, domain=H)
        yield from ctx.barrier_all()
        if ctx.my_pe() == 0:
            src = ctx.cuda.malloc_host(n)
            src.fill(OLD, n)
            yield from ctx.putmem(dst, src, n, pe=1)
            yield from ctx.quiet()
        yield from ctx.barrier_all()
        if ctx.my_pe() == 0:
            return None
        heap = ctx.runtime.heap_of(ctx.pe, H).heap
        lazy = held(dst.local, n)
        heap.shfree(dst.offset, generation=dst.gen)
        again = heap.shmalloc(n)
        heap.ptr(again).fill(NEW, n // 2)
        return again == dst.offset, lazy, heap.ptr(again).read(n)

    res = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr").run(main)
    assert res.results[1] == (True, n, bytes([NEW]) * (n // 2) + bytes([OLD]) * (n // 2))


def test_non_overlapping_write_leaves_snapshot_pending(space, count_copies):
    a = _host(space, 64)
    snap = a.ptr(0).snapshot(16)
    a.ptr(16).fill(NEW, 48)
    assert a.pending == [snap] and count_copies["materialised"] == 0
    snap.release()
    assert not a.pending


def test_committed_write_death_releases_its_snapshot(monkeypatch):
    """The tier-2 commit's write dying at its first hold end, instead of
    landing (``RdmaWrite._die``), releases its payload."""
    from repro.ib.verbs import RdmaWrite

    died = []
    held = RdmaWrite._held

    def die_instead(write, ev):
        if not died:
            died.append(write)
            write._die(CudaError("injected mid-flight death"))
            return
        held(write, ev)

    monkeypatch.setattr(RdmaWrite, "_held", die_instead)
    with pytest.raises(CudaError, match="injected"):
        run_put("enhanced-gdr", 2, 1, H, H, 4 * KiB, fast=True)
    write = died[0]
    assert write.sim.stats.analytic_flows > 0  # the writes were tier-2 commits
    payload = write.payload
    assert payload.alloc is None and payload.data is None  # released, not copied


# ------------------------------------------------------------- no leaks
def unregistered_ranges(spaces):
    """Live inbound ranges reading a source they are not registered on."""
    return [
        r
        for s in spaces
        for a in s._allocs
        for r in a.inbound
        if r.data is None and (r.alloc is None or all(x is not r for x in r.alloc.pending))
    ]


@pytest.mark.parametrize("exp_id", sorted(EXPERIMENTS))
def test_no_pending_snapshot_after_quick_experiment(exp_id, spaces, staging_pools):
    """Every transfer-held snapshot is released; every registration
    left belongs to a live inbound range; every staging slot is back in
    its pool."""
    run_experiment(exp_id, quick=True)
    assert leaked_snapshots(spaces) == []
    assert unregistered_ranges(spaces) == []
    assert short_pools(staging_pools) == []


def test_no_pending_snapshot_after_faulted_msg_check_seed(spaces, staging_pools, monkeypatch):
    """Seed 10021 (device-initiated, 2x4 PEs) kills RDMA writes through
    RC retry exhaustion and replays them, so snapshots are released on
    the failure path as well as on delivery, and staging slots are
    handed back on it."""
    written = {}
    died = []
    write, release = Ptr.write, Snapshot.release

    def tracked_write(ptr, payload):
        if type(payload) is Snapshot:
            written[id(payload)] = payload
        write(ptr, payload)

    def tracked_release(snap):
        if type(snap) is Snapshot and snap.alloc is not None and written.get(id(snap)) is not snap:
            died.append(snap)
        release(snap)

    monkeypatch.setattr(Ptr, "write", tracked_write)
    monkeypatch.setattr(Snapshot, "release", tracked_release)
    w = generate_workload(10021, ops=12, faults=True, msg=True)
    report = check_workload(w)
    assert report.passed, report.summary()
    assert died  # undelivered transfers released their payloads
    assert leaked_snapshots(spaces) == []
    assert unregistered_ranges(spaces) == []
    assert short_pools(staging_pools) == []
