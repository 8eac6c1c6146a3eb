"""Unit tests for the service engine and staging pools."""

import pytest

from repro.cuda.memory import MemKind, MemorySpace
from repro.errors import ShmemError
from repro.shmem.service import ServiceEngine, ServiceItem
from repro.shmem.staging import StagingPool
from repro.simulator import Simulator
from repro.units import usec


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
