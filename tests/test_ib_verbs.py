"""Tests for RDMA write/read, send/recv, and hardware atomics."""

import pytest

from repro.cuda.memory import MemKind, MemorySpace
from repro.errors import IBError
from repro.hardware import ClusterConfig, ClusterHardware, NodeConfig, wilkes_params
from repro.ib import MemoryRegion, Verbs
from repro.obs import SpanTracer
from repro.simulator import Simulator
from repro.units import KiB, MiB, to_usec, usec


@pytest.fixture
def env():
    sim = Simulator()
    hw = ClusterHardware(sim, ClusterConfig(nodes=2))
    verbs = Verbs(hw)
    space = MemorySpace()
    return sim, hw, verbs, space


def run(sim, gen):
    p = sim.process(gen)
    sim.run()
    return p.value


def make_host(space, node, owner, size=256):
    return space.allocate(MemKind.HOST, size, node_id=node, owner=owner)


def make_dev(space, node, owner, dev=0, size=256):
    return space.allocate(MemKind.DEVICE, size, node_id=node, owner=owner, device_id=dev)


# ------------------------------------------------------------------ RDMA write
def test_rdma_write_host_to_host_moves_bytes(env):
    sim, hw, verbs, space = env
    ep = verbs.endpoint(0, 0, owner=0)
    src = make_host(space, 0, 0)
    dst = make_host(space, 1, 1)
    mr = MemoryRegion(dst)
    src.ptr().write(b"ABCDEFGH")
    run(sim, verbs.rdma_write(ep, src.ptr(), mr, 8, 8))
    assert dst.ptr(8).read(8) == b"ABCDEFGH"


def test_rdma_write_small_latency_in_expected_band(env):
    """8 B host-host RDMA write should land in the ~1-3 us band."""
    sim, hw, verbs, space = env
    ep = verbs.endpoint(0, 0, owner=0)
    src = make_host(space, 0, 0)
    mr = MemoryRegion(make_host(space, 1, 1))
    run(sim, verbs.rdma_write(ep, src.ptr(), mr, 0, 8))
    assert usec(1.0) < sim.now < usec(3.5)


def test_rdma_write_gdr_to_device_slower_than_host(env):
    """Target-side GDR write adds the PCIe P2P leg."""
    sim, hw, verbs, space = env
    ep = verbs.endpoint(0, 0, owner=0)
    src = make_host(space, 0, 0)
    host_mr = MemoryRegion(make_host(space, 1, 1))
    run(sim, verbs.rdma_write(ep, src.ptr(), host_mr, 0, 8))
    t_host = sim.now

    sim2 = Simulator()
    hw2 = ClusterHardware(sim2, ClusterConfig(nodes=2))
    verbs2 = Verbs(hw2)
    space2 = MemorySpace()
    ep2 = verbs2.endpoint(0, 0, owner=0)
    src2 = make_host(space2, 0, 0)
    dev_mr = MemoryRegion(make_dev(space2, 1, 1, dev=0))
    run(sim2, verbs2.rdma_write(ep2, src2.ptr(), dev_mr, 0, 8))
    assert sim2.now > t_host


def test_rdma_write_large_gdr_limited_by_p2p_read(env):
    """Device-source write streams at the P2P *read* rate, not FDR."""
    sim, hw, verbs, space = env
    ep = verbs.endpoint(0, 0, owner=0)  # HCA0, same socket as GPU0
    n = 4 * MiB
    src = make_dev(space, 0, 0, dev=0, size=n)
    mr = MemoryRegion(make_host(space, 1, 1, size=n))
    run(sim, verbs.rdma_write(ep, src.ptr(), mr, 0, n))
    p = hw.params
    t_floor = n / p.p2p_read_bw_intra_socket
    assert sim.now >= t_floor
    assert sim.now < 2.0 * t_floor


def test_rdma_write_range_check(env):
    sim, hw, verbs, space = env
    ep = verbs.endpoint(0, 0, owner=0)
    src = make_host(space, 0, 0)
    mr = MemoryRegion(make_host(space, 1, 1, size=16))
    with pytest.raises(Exception):
        next(verbs.rdma_write(ep, src.ptr(), mr, 12, 8))


def test_rdma_write_wrong_node_local_buffer(env):
    sim, hw, verbs, space = env
    ep = verbs.endpoint(0, 0, owner=0)
    src = make_host(space, 1, 1)  # lives on node 1, endpoint on node 0
    mr = MemoryRegion(make_host(space, 1, 1))
    with pytest.raises(IBError):
        next(verbs.rdma_write(ep, src.ptr(), mr, 0, 8))


def test_rdma_write_delivered_event_fires_before_ack(env):
    sim, hw, verbs, space = env
    ep = verbs.endpoint(0, 0, owner=0)
    src = make_host(space, 0, 0)
    mr = MemoryRegion(make_host(space, 1, 1))
    delivered = sim.event("delivered")

    def proc():
        yield from verbs.rdma_write(ep, src.ptr(), mr, 0, 8, delivered=delivered)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert delivered.triggered
    assert delivered.value < p.value  # delivery strictly before ack-completion


def _three_concurrent_writes(tracer=None):
    """Three 64 KiB host->device writes contending for one target HCA;
    returns (completion instants, destination bytes, engine stats)."""
    sim = Simulator()
    if tracer is not None:
        tracer.attach(sim)
    hw = ClusterHardware(sim, ClusterConfig(nodes=2))
    verbs = Verbs(hw)
    space = MemorySpace()
    n = 64 * KiB
    ep = verbs.endpoint(0, 0, owner=0)
    dst = make_dev(space, 1, 1, dev=0, size=3 * n)
    mr = MemoryRegion(dst)
    done = {}

    def writer(i, src):
        yield from verbs.rdma_write(ep, src.ptr(), mr, i * n, n)
        done[i] = sim.now

    for i in range(3):
        src = make_host(space, 0, 0, size=n)
        src.ptr().write(bytes([0x41 + i]) * n)
        sim.process(writer(i, src))
    sim.run()
    return done, dst.ptr().read(3 * n), sim.stats.as_dict()


def test_rdma_write_same_body_traced_and_untraced():
    """Attaching a span tracer changes nothing about a write: same
    completion instants, same bytes, same engine counters."""
    plain = _three_concurrent_writes()
    tracer = SpanTracer()
    traced = _three_concurrent_writes(tracer)
    assert traced[0] == plain[0]
    assert len(set(plain[0].values())) == 3
    assert traced[1] == plain[1]
    assert plain[1] == b"".join(bytes([0x41 + i]) * (64 * KiB) for i in range(3))
    assert traced[2] == plain[2]
    writes = [s for s in tracer.spans if s.cat == "ib" and s.name == "rdma_write"]
    assert len(writes) == 3


def test_rdma_write_loopback_same_node(env):
    """Loopback write (the paper's intra-node GDR design) is legal and
    cheaper than a fabric crossing."""
    sim, hw, verbs, space = env
    ep = verbs.endpoint(0, 0, owner=0)
    src = make_host(space, 0, 0)
    dst = make_dev(space, 0, 1, dev=0)
    mr = MemoryRegion(dst)
    src.ptr().write(b"LOOPBACK")
    run(sim, verbs.rdma_write(ep, src.ptr(), mr, 0, 8, remote_hca=0))
    assert dst.ptr().read(8) == b"LOOPBACK"
    assert sim.now < usec(3.0)


# ------------------------------------------------------------------- RDMA read
def test_rdma_read_moves_bytes(env):
    sim, hw, verbs, space = env
    ep = verbs.endpoint(0, 0, owner=0)
    local = make_host(space, 0, 0)
    remote = make_host(space, 1, 1)
    remote.ptr(4).write(b"REMOTE")
    mr = MemoryRegion(remote)
    run(sim, verbs.rdma_read(ep, local.ptr(), mr, 4, 6))
    assert local.ptr().read(6) == b"REMOTE"


def test_rdma_read_slower_than_write_small(env):
    """A read is a round trip; a write is one-way + ack."""
    sim, hw, verbs, space = env
    ep = verbs.endpoint(0, 0, owner=0)
    local = make_host(space, 0, 0)
    mr = MemoryRegion(make_host(space, 1, 1))
    run(sim, verbs.rdma_read(ep, local.ptr(), mr, 0, 8))
    t_read = sim.now

    sim2 = Simulator()
    hw2 = ClusterHardware(sim2, ClusterConfig(nodes=2))
    verbs2 = Verbs(hw2)
    space2 = MemorySpace()
    ep2 = verbs2.endpoint(0, 0, owner=0)
    src2 = make_host(space2, 0, 0)
    mr2 = MemoryRegion(make_host(space2, 1, 1))
    run(sim2, verbs2.rdma_write(ep2, src2.ptr(), mr2, 0, 8))
    assert t_read > sim2.now - hw2.params.rdma_ack_latency


def test_rdma_read_from_device_uses_p2p_read_rate(env):
    sim, hw, verbs, space = env
    ep = verbs.endpoint(0, 0, owner=0)
    n = 4 * MiB
    local = make_host(space, 0, 0, size=n)
    mr = MemoryRegion(make_dev(space, 1, 1, dev=0, size=n))
    run(sim, verbs.rdma_read(ep, local.ptr(), mr, 0, n))
    t_floor = n / hw.params.p2p_read_bw_intra_socket
    assert sim.now >= t_floor


# ------------------------------------------------------------------- send/recv
def test_send_recv_roundtrip(env):
    sim, hw, verbs, space = env
    ep0 = verbs.endpoint(0, 0, owner=0)
    ep1 = verbs.endpoint(1, 0, owner=1)

    def sender():
        yield from verbs.post_send(ep0, ep1, b"ping")

    def receiver():
        src, payload = yield from ep1.recv()
        return (src, payload, sim.now)

    sim.process(sender())
    p = sim.process(receiver())
    sim.run()
    src, payload, t = p.value
    assert (src, payload) == (0, b"ping")
    assert usec(0.5) < t < usec(3.0)


def test_send_recv_fifo_order(env):
    sim, hw, verbs, space = env
    ep0 = verbs.endpoint(0, 0, owner=0)
    ep1 = verbs.endpoint(1, 0, owner=1)
    got = []

    def sender():
        for i in range(3):
            yield from verbs.post_send(ep0, ep1, bytes([i]))

    def receiver():
        for _ in range(3):
            _, payload = yield from ep1.recv()
            got.append(payload[0])

    sim.process(sender())
    sim.process(receiver())
    sim.run()
    assert got == [0, 1, 2]


def test_recv_nowait_and_pending(env):
    sim, hw, verbs, space = env
    ep0 = verbs.endpoint(0, 0, owner=0)
    ep1 = verbs.endpoint(1, 0, owner=1)
    assert ep1.recv_nowait() is None

    def sender():
        yield from verbs.post_send(ep0, ep1, b"x")

    sim.process(sender())
    sim.run()
    assert ep1.pending_recvs == 1
    assert ep1.recv_nowait() == (0, b"x")


def test_endpoint_bad_hca(env):
    sim, hw, verbs, space = env
    with pytest.raises(IBError):
        verbs.endpoint(0, 99, owner=0)


# --------------------------------------------------------------------- atomics
def test_fetch_add_returns_old_and_updates(env):
    sim, hw, verbs, space = env
    ep = verbs.endpoint(0, 0, owner=0)
    target = make_host(space, 1, 1)
    target.ptr().write((100).to_bytes(8, "little"))
    mr = MemoryRegion(target)
    old = run(sim, verbs.fetch_add(ep, mr, 0, 5))
    assert old == 100
    assert int.from_bytes(target.ptr().read(8), "little") == 105


def test_fetch_add_on_device_memory(env):
    """GDR atomics: fetch-add against a GPU-resident counter (§III-D)."""
    sim, hw, verbs, space = env
    ep = verbs.endpoint(0, 0, owner=0)
    target = make_dev(space, 1, 1, dev=0)
    mr = MemoryRegion(target)
    old = run(sim, verbs.fetch_add(ep, mr, 0, 7))
    assert old == 0
    assert int.from_bytes(target.ptr().read(8), "little") == 7


def test_compare_swap_success_and_failure(env):
    sim, hw, verbs, space = env
    ep = verbs.endpoint(0, 0, owner=0)
    target = make_host(space, 1, 1)
    target.ptr().write((42).to_bytes(8, "little"))
    mr = MemoryRegion(target)
    old = run(sim, verbs.compare_swap(ep, mr, 0, compare=42, swap=99))
    assert old == 42
    assert int.from_bytes(target.ptr().read(8), "little") == 99
    old2 = run(sim, verbs.compare_swap(ep, mr, 0, compare=42, swap=7))
    assert old2 == 99  # failed CAS leaves the value alone
    assert int.from_bytes(target.ptr().read(8), "little") == 99


def test_swap_unconditional(env):
    sim, hw, verbs, space = env
    ep = verbs.endpoint(0, 0, owner=0)
    target = make_host(space, 1, 1)
    target.ptr().write((1).to_bytes(8, "little"))
    mr = MemoryRegion(target)
    old = run(sim, verbs.swap(ep, mr, 0, 255))
    assert old == 1
    assert int.from_bytes(target.ptr().read(8), "little") == 255


def test_masked_atomic_small_width_costs_more(env):
    sim, hw, verbs, space = env
    ep = verbs.endpoint(0, 0, owner=0)
    t64 = make_host(space, 1, 1)
    mr64 = MemoryRegion(t64)
    run(sim, verbs.fetch_add(ep, mr64, 0, 1, nbytes=8))
    t_full = sim.now

    sim2 = Simulator()
    hw2 = ClusterHardware(sim2, ClusterConfig(nodes=2))
    verbs2 = Verbs(hw2)
    space2 = MemorySpace()
    ep2 = verbs2.endpoint(0, 0, owner=0)
    t32 = make_host(space2, 1, 1)
    mr32 = MemoryRegion(t32)
    p = sim2.process(verbs2.fetch_add(ep2, mr32, 0, 1, nbytes=4))
    sim2.run()
    assert sim2.now > t_full


def test_atomic_width_wraps(env):
    """A 4-byte fetch-add wraps modulo 2^32 like the hardware would."""
    sim, hw, verbs, space = env
    ep = verbs.endpoint(0, 0, owner=0)
    target = make_host(space, 1, 1)
    target.ptr().write((0xFFFF_FFFF).to_bytes(4, "little"))
    mr = MemoryRegion(target)
    old = run(sim, verbs.fetch_add(ep, mr, 0, 1, nbytes=4))
    assert old == 0xFFFF_FFFF
    assert int.from_bytes(target.ptr().read(4), "little") == 0


def test_atomic_invalid_width(env):
    sim, hw, verbs, space = env
    ep = verbs.endpoint(0, 0, owner=0)
    mr = MemoryRegion(make_host(space, 1, 1))
    with pytest.raises(IBError):
        next(verbs.fetch_add(ep, mr, 0, 1, nbytes=3))


def test_concurrent_atomics_serialize_and_stay_consistent(env):
    """N concurrent fetch-adds from different PEs must not lose updates."""
    sim, hw, verbs, space = env
    target = make_host(space, 1, 1)
    mr = MemoryRegion(target)

    def adder(pe):
        ep = verbs.endpoint(0, 0, owner=pe)
        old = yield from verbs.fetch_add(ep, mr, 0, 1)
        return old

    procs = [sim.process(adder(pe)) for pe in range(10)]
    sim.run()
    olds = sorted(p.value for p in procs)
    assert olds == list(range(10))  # every old value seen exactly once
    assert int.from_bytes(target.ptr().read(8), "little") == 10
