"""Tests for links, transfer specs, and chunking."""

import pytest

from repro.errors import ConfigurationError, LinkDown
from repro.hardware.links import Link, TransferSpec, chunked
from repro.shmem import Domain, ShmemJob
from repro.simulator import Request, SimulationError, Simulator
from repro.units import KiB, MiB


def test_transfer_spec_total_latency():
    sim = Simulator()
    link = Link(sim, "l")
    spec = TransferSpec(1000, setup=1.0)
    spec.add(link.fwd, 2.0, 500.0)  # 2 + 1000/500 = 4
    assert spec.total_latency() == pytest.approx(5.0)


def test_transfer_execute_charges_time():
    sim = Simulator()
    link = Link(sim, "l")
    spec = TransferSpec(100, setup=0.5).add(link.fwd, 1.0, 100.0)

    def proc(sim):
        n = yield from spec.execute(sim)
        return (n, sim.now)

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == (100, pytest.approx(2.5))
    assert link.fwd.bytes_moved == 100
    assert link.fwd.transfers == 1


def test_link_direction_contention_serializes():
    sim = Simulator()
    link = Link(sim, "l")
    done = []

    def proc(sim, name):
        spec = TransferSpec(100).add(link.fwd, 0.0, 100.0)  # 1s each
        yield from spec.execute(sim)
        done.append((name, sim.now))

    sim.process(proc(sim, "a"))
    sim.process(proc(sim, "b"))
    sim.run()
    assert done == [("a", 1.0), ("b", 2.0)]


def test_link_directions_are_independent():
    sim = Simulator()
    link = Link(sim, "l")
    done = []

    def proc(sim, name, forward):
        d = link.direction(forward)
        spec = TransferSpec(100).add(d, 0.0, 100.0)
        yield from spec.execute(sim)
        done.append((name, sim.now))

    sim.process(proc(sim, "fwd", True))
    sim.process(proc(sim, "rev", False))
    sim.run()
    assert done == [("fwd", 1.0), ("rev", 1.0)]


def test_link_capacity_gt_one_overlaps():
    sim = Simulator()
    link = Link(sim, "l", capacity=2)
    done = []

    def proc(sim, name):
        spec = TransferSpec(100).add(link.fwd, 0.0, 100.0)
        yield from spec.execute(sim)
        done.append((name, sim.now))

    for name in ("a", "b"):
        sim.process(proc(sim, name))
    sim.run()
    assert done == [("a", 1.0), ("b", 1.0)]


def test_invalid_capacity_rejected():
    sim = Simulator()
    with pytest.raises(ConfigurationError):
        Link(sim, "bad", capacity=0)


def test_zero_bandwidth_means_latency_only():
    sim = Simulator()
    link = Link(sim, "l")
    spec = TransferSpec(10_000).add(link.fwd, 3.0, 0.0)
    assert spec.total_latency() == pytest.approx(3.0)


def test_multi_hop_cut_through():
    """Hops pipeline: latencies add, payload streams at the bottleneck."""
    sim = Simulator()
    a, b = Link(sim, "a"), Link(sim, "b")
    spec = TransferSpec(100).add(a.fwd, 1.0, 100.0).add(b.fwd, 1.0, 50.0)
    # 1 + 1 latency, 100 bytes at min(100, 50) B/s = 2s -> 4s total
    assert spec.bottleneck_bandwidth() == pytest.approx(50.0)
    assert spec.total_latency() == pytest.approx(4.0)

    def proc(sim):
        yield from spec.execute(sim)
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == pytest.approx(4.0)


def test_extend_merges_specs():
    sim = Simulator()
    a, b = Link(sim, "a"), Link(sim, "b")
    s1 = TransferSpec(100, setup=0.5).add(a.fwd, 1.0, 100.0)
    s2 = TransferSpec(100, setup=0.25).add(b.fwd, 1.0, 50.0)
    s1.extend(s2)
    assert s1.setup == pytest.approx(0.75)
    assert len(s1.segments) == 2
    with pytest.raises(ConfigurationError):
        s1.extend(TransferSpec(7))


def test_spec_memos_reset_on_add_and_extend():
    """``directions()`` and ``duration()`` are computed once per spec;
    ``add`` and ``extend`` must each invalidate both."""
    sim = Simulator()
    a, b, c = Link(sim, "a"), Link(sim, "b"), Link(sim, "c")
    spec = TransferSpec(100).add(b.fwd, 1.0, 100.0)
    assert spec.directions() == (b.fwd,)
    assert spec.duration() == pytest.approx(2.0)
    spec.add(a.fwd, 1.0, 50.0)
    assert spec.directions() == (a.fwd, b.fwd)
    assert spec.duration() == pytest.approx(4.0)
    spec.extend(TransferSpec(100).add(c.fwd, 0.5, 25.0))
    assert spec.directions() == (a.fwd, b.fwd, c.fwd)
    assert spec.duration() == pytest.approx(6.5)


def test_multi_hop_same_direction_counted_once():
    """A path that crosses the same direction twice must not deadlock."""
    sim = Simulator()
    a = Link(sim, "a")
    spec = TransferSpec(100).add(a.fwd, 1.0, 100.0).add(a.fwd, 1.0, 100.0)

    def proc(sim):
        yield from spec.execute(sim)
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == pytest.approx(3.0)  # 2x latency + one bottleneck stream
    assert a.fwd.transfers == 1


def test_link_failure_injection():
    sim = Simulator()
    link = Link(sim, "l")
    link.fwd.fail()
    assert link.fwd.is_down

    def proc(sim):
        spec = TransferSpec(100).add(link.fwd, 0.0, 100.0)
        try:
            yield from spec.execute(sim)
        except LinkDown:
            return "down"

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "down"
    link.fwd.repair()
    assert not link.fwd.is_down


def test_link_failure_mid_queue():
    """A failure mid-hold kills the in-flight transfer (payload lost at
    the physical layer), and a transfer queued behind it sees the
    failure on grant."""
    sim = Simulator()
    link = Link(sim, "l")
    results = []

    def holder(sim):
        spec = TransferSpec(100).add(link.fwd, 0.0, 100.0)
        try:
            yield from spec.execute(sim)
            results.append("holder-done")
        except LinkDown:
            results.append("holder-lost")

    def victim(sim):
        yield sim.timeout(0.1)
        spec = TransferSpec(100).add(link.fwd, 0.0, 100.0)
        try:
            yield from spec.execute(sim)
            results.append("victim-done")
        except LinkDown:
            results.append("victim-down")

    def saboteur(sim):
        yield sim.timeout(0.5)
        link.fwd.fail()

    sim.process(holder(sim))
    sim.process(victim(sim))
    sim.process(saboteur(sim))
    sim.run()
    assert results == ["holder-lost", "victim-down"]


def test_repair_does_not_resurrect_inflight_transfer():
    """Repairing mid-transfer must not let a transfer that overlapped
    the down-window complete as if nothing happened: its payload was on
    the wire when the link dropped.  Transfers started after the repair
    succeed normally."""
    sim = Simulator()
    link = Link(sim, "l")
    results = []

    def holder(sim):
        spec = TransferSpec(100).add(link.fwd, 0.0, 100.0)  # 1.0 s hold
        try:
            yield from spec.execute(sim)
            results.append("holder-done")
        except LinkDown as exc:
            assert "mid-transfer" in str(exc)
            results.append(("holder-lost", sim.now))
        # A fresh attempt after the repair goes through cleanly.
        retry = TransferSpec(100).add(link.fwd, 0.0, 100.0)
        yield from retry.execute(sim)
        results.append("retry-done")

    def flapper(sim):
        yield sim.timeout(0.3)
        link.fwd.fail()
        yield sim.timeout(0.3)
        link.fwd.repair()  # repaired at 0.6, well before the 1.0 s hold ends

    sim.process(holder(sim))
    sim.process(flapper(sim))
    sim.run()
    assert not link.fwd.is_down
    assert results == [("holder-lost", 1.0), "retry-done"]


def test_label_scoped_failure():
    """A labelled failure only downs transfers whose label matches the
    prefix; other traffic on the same direction keeps flowing."""
    sim = Simulator()
    link = Link(sim, "l")
    link.fwd.fail("gdrP2P")
    assert link.fwd.blocks("gdrP2Pwrite")
    assert link.fwd.blocks("gdrP2Pread")
    assert not link.fwd.blocks("cudaMemcpyH2D")
    assert not link.fwd.idle  # fast paths must not claim a flapping link
    results = []

    def memcpy(sim):
        spec = TransferSpec(100, label="cudaMemcpyH2D").add(link.fwd, 0.0, 100.0)
        yield from spec.execute(sim)
        results.append("memcpy-done")

    def gdr(sim):
        spec = TransferSpec(100, label="gdrP2Pwrite").add(link.fwd, 0.0, 100.0)
        try:
            yield from spec.execute(sim)
            results.append("gdr-done")
        except LinkDown:
            results.append("gdr-down")

    sim.process(memcpy(sim))
    sim.process(gdr(sim))
    sim.run()
    assert sorted(results) == ["gdr-down", "memcpy-done"]
    # Overlapping windows nest: two fails need two repairs.
    link.fwd.fail("gdrP2P")
    link.fwd.repair("gdrP2P")
    assert link.fwd.blocks("gdrP2Pwrite")
    link.fwd.repair("gdrP2P")
    assert not link.fwd.blocks("gdrP2Pwrite")
    assert link.fwd.idle


def test_whole_direction_failures_nest():
    d = Link(Simulator(), "l").fwd
    d.fail()
    d.fail()
    d.repair()
    assert d.is_down and d.blocks("rdma_write")
    d.repair()
    assert not d.is_down and not d.blocks("rdma_write")


def test_whole_direction_repair_leaves_label_window_open():
    d = Link(Simulator(), "l").fwd
    d.fail("gdrP2P")
    d.fail()
    d.repair()
    assert d.blocks("gdrP2Pwrite")
    assert not d.blocks("rdma_write")
    d.repair("gdrP2P")
    assert d.idle


# ------------------------------------------------------------- link FIFO
class _Owners:
    """Link-slot owners that log ``(name, now)`` as their grants pop."""

    def __init__(self, sim):
        self.sim = sim
        self.popped = []

    def __call__(self, name):
        def owner(direction):
            self.popped.append((name, self.sim.now))
        return owner


@pytest.mark.parametrize("capacity", [1, 2])
def test_link_grants_fifo_order(capacity):
    sim = Simulator()
    d = Link(sim, "l", capacity=capacity).fwd
    owners = _Owners(sim)
    immediate = [d.grant(owners(n)) for n in "abcde"]
    assert immediate == [n < capacity for n in range(5)]
    assert d.holders == capacity
    sim.run()
    assert owners.popped == [(n, 0.0) for n in "abcde"[:capacity]]

    def releaser():
        for _ in range(5):
            yield sim.timeout(1.0)
            d.release()

    sim.process(releaser())
    sim.run()
    handed = [(n, float(t)) for t, n in enumerate("abcde"[capacity:], start=1)]
    assert owners.popped[capacity:] == handed
    assert d.holders == 0 and d.idle


def test_link_grants_count_as_scheduler_work_not_resumes():
    sim = Simulator()
    d = Link(sim, "l").fwd
    d.grant(lambda _d: None)
    assert sim.stats.scheduled == 1
    sim.run()
    assert (sim.stats.processed, sim.stats.resumed_fast) == (1, 0)


def test_cancel_queued_waiter_leaves_the_queue():
    sim = Simulator()
    d = Link(sim, "l").fwd
    owners = _Owners(sim)
    a, b, c = owners("a"), owners("b"), owners("c")
    d.grant(a)
    assert not d.grant(b)
    assert not d.grant(c)
    d.cancel(b)
    assert d.holders == 1
    d.release()
    sim.run()
    assert owners.popped == [("a", 0.0), ("c", 0.0)]
    assert d.holders == 1
    d.release()
    assert d.idle


def test_cancel_handed_over_grant_releases_its_slot():
    """What ``AnalyticTransfer._die`` does with its last direction: a
    grant handed over but not yet popped is released, and its pop still
    reaches the owner."""
    sim = Simulator()
    d = Link(sim, "l").fwd
    owners = _Owners(sim)
    a, b = owners("a"), owners("b")
    d.grant(a)
    sim.run()
    assert not d.grant(b)
    d.release()
    assert d.holders == 1 and not d._waiters
    d.cancel(b)
    assert d.holders == 0
    assert d.grant(owners("c"))
    sim.run()
    assert owners.popped == [("a", 0.0), ("b", 0.0), ("c", 0.0)]
    d.release()
    assert d.idle


def test_release_of_unheld_slot_raises():
    with pytest.raises(SimulationError):
        Link(Simulator(), "l").fwd.release()


def test_idle_tracks_holders_and_waiters():
    sim = Simulator()
    d = Link(sim, "l").fwd
    assert d.idle
    a, b = (lambda _d: None), (lambda _d: None)
    d.grant(a)
    assert not d.idle
    d.grant(b)
    d.release()
    assert not d.idle  # b now holds the slot
    d.release()
    assert d.idle
    d.grant(a)
    d.grant(b)
    d.cancel(b)
    assert not d.idle
    d.cancel(a)
    assert d.idle


def test_dying_transfer_hands_its_slots_on():
    """A transfer killed at grant time releases what it holds; the
    transfers queued behind it still run."""
    sim = Simulator()
    link = Link(sim, "l")
    results = []

    def xfer(name, label):
        spec = TransferSpec(100, label=label).add(link.fwd, 0.0, 100.0)
        spec.add(link.rev, 0.0, 100.0)
        try:
            yield from spec.execute(sim)
            results.append((name, sim.now))
        except LinkDown:
            results.append((name, "down", sim.now))

    def saboteur():
        yield sim.timeout(0.5)
        link.rev.fail("gdrP2P")

    sim.process(xfer("a", "memcpy"))
    sim.process(xfer("b", "gdrP2Pwrite"))
    sim.process(xfer("c", "memcpy"))
    sim.process(saboteur())
    sim.run()
    assert results == [("a", 1.0), ("b", "down", 1.0), ("c", 2.0)]
    assert link.fwd.idle and link.rev.holders == 0


def test_same_instant_three_way_contention_pin():
    """Three transfers start in one pop and request the shared direction
    ``s``.  Their first grants (``a``, ``c``, ``d``) queue up together,
    so t1's grant of ``b`` must not be taken inline past the other two:
    t2 and t3 request ``s`` before t1 does.  The end times and the
    resulting grant order on ``s`` are the values of the one-grant-per-
    pop machine."""
    sim = Simulator()
    links = {n: Link(sim, n) for n in "abcds"}
    paths = {"t1": "abs", "t2": "cs", "t3": "ds"}
    sizes = {"t1": 300, "t2": 200, "t3": 100}  # 3 s, 2 s, 1 s holds
    go = sim.timeout(1.0)
    ends = {}

    def xfer(name):
        spec = TransferSpec(sizes[name], label=name)
        for n in paths[name]:
            spec.add(links[n].fwd, 0.0, 100.0)
        yield go
        yield from spec.execute(sim)
        ends[name] = sim.now

    for name in paths:
        sim.process(xfer(name))
    sim.run()
    assert ends == {"t2": 3.0, "t3": 4.0, "t1": 7.0}
    granted_s = sorted((ends[n] - sizes[n] / 100.0, n) for n in ends)
    assert granted_s == [(1.0, "t2"), (3.0, "t3"), (4.0, "t1")]
    assert sim.stats.contended_windows == 2
    assert links["s"].fwd.idle


# ---------------------------------------------------- Request-free holds
def _contended_puts(ctx):
    """Every PE streams windows of non-blocking puts to the PE on the
    other node, so the holds queue behind one another."""
    sizes, window = (4 * KiB, 64 * KiB, 1 * MiB), 4
    span = window * max(sizes)
    sym = yield from ctx.shmalloc(span, domain=Domain.GPU)
    src = ctx.cuda.malloc(span)
    src.fill(0x5A ^ ctx.pe, span)
    peer = (ctx.pe + ctx.npes // 2) % ctx.npes
    yield from ctx.barrier_all()
    for nbytes in sizes:
        for i in range(window):
            ctx.putmem_nbi(sym + i * nbytes, src + i * nbytes, nbytes, pe=peer)
        yield from ctx.quiet()
    yield from ctx.barrier_all()
    return ctx.now


def test_link_holds_build_no_request(monkeypatch):
    """A contended put-only job takes every link slot without a
    ``Request`` event (it built 594 when each link direction held a
    ``Resource``), and its scheduler counters keep their values."""
    built = []
    init = Request.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Request, "__init__", counting_init)
    job = ShmemJob(nodes=2, pes_per_node=2, design="enhanced-gdr")
    res = job.run(_contended_puts)
    assert built == []
    assert res.elapsed == 0.0010082002014665625
    assert job.sim.stats.as_dict() == dict(
        scheduled=1472, processed=1472, resumed_fast=138, fastpath_batches=0,
        analytic_flows=46, contended_windows=106, collective_closed_forms=0,
        vectorised_events=0, retries=0, failovers=0, flap_windows=0,
        hca_stalls=0, cq_errors=0, rc_retx_holds=0, rc_aborted_wrs=0,
        msg_eager=0, msg_rendezvous=0, ud_packets=0, ud_drops=0,
        ud_resends=0, degraded_time=0.0,
    )


def test_clean_run_looks_up_no_leg_label(monkeypatch):
    calls = []
    leg_label = TransferSpec.leg_label

    def counting(spec, d):
        calls.append(d)
        return leg_label(spec, d)

    monkeypatch.setattr(TransferSpec, "leg_label", counting)
    ShmemJob(nodes=2, pes_per_node=2, design="enhanced-gdr").run(_contended_puts)
    assert calls == []


# ------------------------------------------------------------------ chunked
def test_chunked_exact_division():
    assert list(chunked(1024, 256)) == [256, 256, 256, 256]


def test_chunked_remainder():
    assert list(chunked(1000, 256)) == [256, 256, 256, 232]


def test_chunked_small_message():
    assert list(chunked(8, 256)) == [8]


def test_chunked_zero_bytes():
    assert list(chunked(0, 256)) == []


def test_chunked_invalid_chunk():
    with pytest.raises(ConfigurationError):
        chunked(100, 0)
