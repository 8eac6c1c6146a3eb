"""Unit tests for the service engine and staging pools."""

import pytest

from repro.cuda.memory import MemKind, MemorySpace
from repro.errors import ShmemError
from repro.faults import FaultPlan
from repro.hardware.node import NodeConfig
from repro.hardware.params import wilkes_params
from repro.shmem import Domain, ShmemJob
from repro.shmem.service import ServiceEngine, ServiceItem
from repro.shmem.staging import StagingPool
from repro.simulator import Simulator
from repro.units import KiB, MiB, usec


# ------------------------------------------------------------------ service
def make_item(sim, log, tag, work=usec(5)):
    def run():
        yield sim.timeout(work)
        log.append((tag, sim.now))

    return ServiceItem(run=run, done=sim.event(f"done:{tag}"))


def test_service_runs_only_in_runtime():
    sim = Simulator()
    engine = ServiceEngine(sim, pe=0, poll_overhead=usec(1))
    log = []
    item = make_item(sim, log, "a")
    engine.submit(item)
    sim.run(until=usec(100))
    assert log == []  # PE never entered the runtime

    engine.enter_runtime()
    sim.run()
    assert len(log) == 1
    assert item.done.triggered
    assert engine.items_served == 1


def test_service_items_fifo_and_poll_charged():
    sim = Simulator()
    engine = ServiceEngine(sim, pe=0, poll_overhead=usec(1))
    log = []
    engine.enter_runtime()
    for tag in ("a", "b", "c"):
        engine.submit(make_item(sim, log, tag))
    sim.run()
    assert [t for t, _ in log] == ["a", "b", "c"]
    # each item: 1us poll + 5us work
    assert log[-1][1] == pytest.approx(3 * usec(6))


def test_always_on_service_ignores_the_runtime_gate():
    """The proxy's engine: items run although the owner never entered
    the runtime, keep running after ``exit_runtime``, and each is
    charged exactly one poll (1 us poll + 5 us work)."""
    sim = Simulator()
    engine = ServiceEngine(sim, pe=-1, poll_overhead=usec(1), always_on=True)
    log = []
    engine.submit(make_item(sim, log, "a"))
    sim.run()
    assert log == [("a", pytest.approx(usec(6)))]

    engine.exit_runtime()
    t0 = sim.now
    for tag in ("b", "c"):
        engine.submit(make_item(sim, log, tag))
    sim.run()
    assert [t for t, _ in log] == ["a", "b", "c"]
    assert log[1][1] == pytest.approx(t0 + usec(6))
    assert log[2][1] == pytest.approx(t0 + 2 * usec(6))
    assert engine.items_served == 3


def test_service_exit_runtime_stalls_queue():
    sim = Simulator()
    engine = ServiceEngine(sim, pe=0, poll_overhead=usec(1))
    log = []
    engine.enter_runtime()
    engine.submit(make_item(sim, log, "first"))
    sim.run()
    engine.exit_runtime()
    engine.submit(make_item(sim, log, "second"))
    sim.run(until=sim.now + usec(50))
    assert [t for t, _ in log] == ["first"]
    engine.enter_runtime()
    sim.run()
    assert [t for t, _ in log] == ["first", "second"]


def test_service_item_failure_fails_done_event():
    sim = Simulator()
    engine = ServiceEngine(sim, pe=0, poll_overhead=usec(1))
    engine.enter_runtime()

    def bad():
        yield sim.timeout(usec(1))
        raise ValueError("broken item")

    item = ServiceItem(run=bad, done=sim.event())
    engine.submit(item)
    waiter_result = {}

    def waiter():
        try:
            yield item.done
        except ValueError as exc:
            waiter_result["exc"] = str(exc)

    sim.process(waiter())
    sim.run()
    assert waiter_result["exc"] == "broken item"

    # the engine survives and serves the next item
    log = []
    engine.submit(make_item(sim, log, "after"))
    sim.run()
    assert log


# ------------------------------------------------------------------ staging
@pytest.fixture
def pool():
    sim = Simulator()
    space = MemorySpace()
    alloc = space.allocate(MemKind.HOST, 4 * 1024, node_id=0, owner=0)
    return sim, StagingPool(sim, alloc, None, chunk=1024, name="t")


def test_staging_depth_and_slots(pool):
    sim, p = pool
    assert p.depth == 4
    assert p.available == 4

    def proc():
        slots = []
        for _ in range(4):
            slot = yield from p.acquire()
            slots.append(slot)
        assert p.available == 0
        assert sorted(s.index for s in slots) == [0, 1, 2, 3]
        assert all(s.ptr.offset == s.index * 1024 for s in slots)
        for s in slots:
            p.release(s)
        assert p.available == 4

    done = sim.process(proc())
    sim.run()
    assert done.ok


def test_staging_blocks_when_exhausted(pool):
    sim, p = pool
    order = []

    def hog():
        slots = []
        for _ in range(4):
            s = yield from p.acquire()
            slots.append(s)
        yield sim.timeout(1.0)
        order.append(("release", sim.now))
        p.release(slots[0])

    def waiter():
        yield sim.timeout(0.1)
        s = yield from p.acquire()  # must block until the hog releases
        order.append(("got", sim.now))
        p.release(s)

    sim.process(hog())
    sim.process(waiter())
    sim.run()
    assert order == [("release", 1.0), ("got", 1.0)]


def test_staging_wrong_pool_release(pool):
    sim, p = pool
    space = MemorySpace()
    other_alloc = space.allocate(MemKind.HOST, 2048, node_id=0, owner=0)
    other = StagingPool(sim, other_alloc, None, chunk=1024, name="o")

    def proc():
        s = yield from other.acquire()
        with pytest.raises(ShmemError):
            p.release(s)
        other.release(s)

    done = sim.process(proc())
    sim.run()
    assert done.ok


def test_staging_validation():
    sim = Simulator()
    space = MemorySpace()
    alloc = space.allocate(MemKind.HOST, 512, node_id=0, owner=0)
    with pytest.raises(ShmemError):
        StagingPool(sim, alloc, None, chunk=0, name="bad")
    with pytest.raises(ShmemError):
        StagingPool(sim, alloc, None, chunk=1024, name="too-small")


# ------------------------------------- staged bodies no pinned target reaches
# Nothing else in the suite reaches these two staged bodies, so each test
# pins its run whole: completion and end times, every SimStats field,
# every staging pool's free count and the delivered bytes.  1 MiB + 96 KiB
# gives four full chunks and a short one.
PIN_BYTES = MiB + 96 * KiB


def _pools(job):
    rt = job.runtime
    pools = [*rt.staging.values(), *rt.rx_staging.values(),
             *(proxy.staging for proxy in rt.proxies.values())]
    if job._msg is not None:
        pools += list(job.msg._pools.values())
    return {pool.name: pool.available for pool in pools}


def _zero_stats(**nonzero):
    names = ("scheduled", "processed", "resumed_fast", "fastpath_batches", "analytic_flows",
             "contended_windows", "collective_closed_forms", "vectorised_events", "retries",
             "failovers", "flap_windows", "hca_stalls", "cq_errors", "rc_retx_holds",
             "rc_aborted_wrs", "msg_eager", "msg_rendezvous", "ud_packets", "ud_drops",
             "ud_resends")
    return {**{n: 0 for n in names}, "degraded_time": 0.0, **nonzero}


def test_inter_socket_proxy_get_pin():
    """A proxy get into a GPU on the far socket from its HCA lands in the
    requester's host staging, one chunk at a time, and the requester's
    engine finishes each chunk with an H2D copy."""
    cfg = NodeConfig(gpus=1, hcas=1, gpu_sockets=[1], hca_sockets=[0])
    job = ShmemJob(nodes=2, node_config=cfg, design="enhanced-gdr")

    def main(ctx):
        sym = yield from ctx.shmalloc(PIN_BYTES, domain=Domain.GPU)
        if ctx.pe == 1:
            sym.fill(0x5A, PIN_BYTES)
        yield from ctx.barrier_all()
        got = None
        if ctx.pe == 0:
            dst = ctx.cuda.malloc(PIN_BYTES)
            yield from ctx.getmem(dst, sym, PIN_BYTES, pe=1)
            got = (dst.read(PIN_BYTES) == bytes([0x5A]) * PIN_BYTES, ctx.sim.now)
        yield from ctx.barrier_all()
        return got

    res = job.run(main)
    assert job.runtime.landings[0].engine.items_served == 5
    assert res.results == [(True, 0.0005135121683383173), None]
    assert job.sim.now == 0.0005158134189245293
    assert job.sim.stats.as_dict() == _zero_stats(
        scheduled=175, processed=175, resumed_fast=11, analytic_flows=10, contended_windows=1
    )
    assert _pools(job) == {
        "pe0.staging": 4, "pe1.staging": 4, "pe0.rx-staging": 4, "pe1.rx-staging": 4,
        "proxy0.staging": 4, "proxy1.staging": 4,
    }


def test_rc_rendezvous_staged_failover_pin():
    """An RC rendezvous between device buffers whose sender's GDR path
    is flapped fails over to staging (the one failover, and the only
    user of a sender bounce pool): each chunk goes D2H into a sender
    bounce slot, crosses as a plain RC send into a receiver bounce slot,
    and is copied H2D into the posted buffer."""
    plan = FaultPlan(seed=3).flap_gdr(at=0.0, down_for=usec(2000), node=0)
    job = ShmemJob(
        nodes=2, pes_per_node=1, design="enhanced-gdr", fault_plan=plan,
        params=wilkes_params(rc_timeout=usec(5), rc_retry_cnt=2),
    )

    def main(ctx):
        yield from ctx.barrier_all()
        if ctx.pe == 0:
            src = ctx.cuda.malloc(PIN_BYTES)
            src.fill(0x3C, PIN_BYTES)
            yield from ctx.send(src, PIN_BYTES, 1, tag=5, transport="rc")
            got = ctx.sim.now
        else:
            dst = ctx.cuda.malloc(PIN_BYTES)
            yield from ctx.recv(dst, PIN_BYTES, 0, tag=5)
            got = (dst.read(PIN_BYTES) == bytes([0x3C]) * PIN_BYTES, ctx.sim.now)
        yield from ctx.barrier_all()
        return got

    res = job.run(main)
    assert res.results == [0.000813413852393847, (True, 0.000813413852393847)]
    assert job.sim.now == 0.002
    assert job.sim.stats.as_dict() == _zero_stats(
        scheduled=128, processed=128, resumed_fast=8, failovers=1, flap_windows=1,
        msg_rendezvous=1,
    )
    assert _pools(job) == {
        "pe0.staging": 4, "pe1.staging": 4, "pe0.rx-staging": 4, "pe1.rx-staging": 4,
        "proxy0.staging": 4, "proxy1.staging": 4, "msg.pe0.tx-bounce": 4,
        "msg.pe1.rx-bounce": 4,
    }
