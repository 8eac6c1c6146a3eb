"""Tests for the AllOf condition, resources, stores, and monitoring."""

import pytest

from repro.simulator import (
    Probe,
    Resource,
    SimulationError,
    Simulator,
    Store,
)


# ---------------------------------------------------------------- conditions
def test_all_of_waits_for_slowest():
    sim = Simulator()

    def proc(sim):
        t1 = sim.timeout(1.0, value="a")
        t2 = sim.timeout(3.0, value="b")
        result = yield sim.all_of([t1, t2])
        return (sim.now, result)

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == (3.0, None)


def test_all_of_empty_succeeds_immediately():
    sim = Simulator()

    def proc(sim):
        yield sim.all_of([])
        return sim.now

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == 0.0


def test_all_of_failure_propagates():
    sim = Simulator()
    ev = sim.event()

    def proc(sim):
        try:
            yield sim.all_of([sim.timeout(10.0), ev])
        except KeyError:
            return "failed"

    def failer(sim):
        yield sim.timeout(1.0)
        ev.fail(KeyError("child"))

    p = sim.process(proc(sim))
    sim.process(failer(sim))
    sim.run()
    assert p.value == "failed"


# ----------------------------------------------------------------- resources
def test_resource_serializes_holders():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    log = []

    def user(sim, name):
        req = res.request()
        yield req
        log.append((name, "in", sim.now))
        yield sim.timeout(2.0)
        log.append((name, "out", sim.now))
        res.release(req)

    sim.process(user(sim, "a"))
    sim.process(user(sim, "b"))
    sim.run()
    assert log == [("a", "in", 0.0), ("a", "out", 2.0), ("b", "in", 2.0), ("b", "out", 4.0)]


def test_resource_capacity_two_allows_overlap():
    sim = Simulator()
    res = Resource(sim, capacity=2)
    finished = []

    def user(sim, name):
        req = res.request()
        yield req
        yield sim.timeout(1.0)
        res.release(req)
        finished.append((name, sim.now))

    for name in ("a", "b", "c"):
        sim.process(user(sim, name))
    sim.run()
    assert finished == [("a", 1.0), ("b", 1.0), ("c", 2.0)]


def test_resource_counts():
    sim = Simulator()
    res = Resource(sim, capacity=1)

    def holder(sim):
        req = yield from res.acquire()
        assert res.count == 1
        yield sim.timeout(1.0)
        res.release(req)

    def contender(sim):
        yield sim.timeout(0.5)
        req = res.request()
        assert res.queued == 1
        yield req
        res.release(req)

    sim.process(holder(sim))
    sim.process(contender(sim))
    sim.run()
    assert res.count == 0 and res.queued == 0


def test_resource_invalid_capacity():
    sim = Simulator()
    with pytest.raises(SimulationError):
        Resource(sim, capacity=0)


def test_resource_release_unknown_request():
    sim = Simulator()
    a = Resource(sim, capacity=1)
    b = Resource(sim, capacity=1)
    req = a.request()
    with pytest.raises(SimulationError):
        b.release(req)


def test_resource_cancel_queued_request():
    sim = Simulator()
    res = Resource(sim, capacity=1)
    held = res.request()  # grabs the slot
    queued = res.request()
    res.release(queued)  # cancel before grant
    assert res.queued == 0
    res.release(held)
    assert res.count == 0


# --------------------------------------------------------------------- store
def test_store_fifo_order():
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer(sim):
        for i in range(3):
            yield sim.timeout(1.0)
            store.put(i)

    def consumer(sim):
        for _ in range(3):
            item = yield store.get()
            got.append((item, sim.now))

    sim.process(producer(sim))
    sim.process(consumer(sim))
    sim.run()
    assert got == [(0, 1.0), (1, 2.0), (2, 3.0)]


def test_store_get_before_put():
    sim = Simulator()
    store = Store(sim)

    def consumer(sim):
        item = yield store.get()
        return (item, sim.now)

    def producer(sim):
        yield sim.timeout(4.0)
        store.put("x")

    p = sim.process(consumer(sim))
    sim.process(producer(sim))
    sim.run()
    assert p.value == ("x", 4.0)


def test_store_get_nowait():
    sim = Simulator()
    store = Store(sim)
    assert store.get_nowait() is None
    store.put(7)
    assert len(store) == 1
    assert store.get_nowait() == 7
    assert len(store) == 0


# ------------------------------------------------------------------- monitor
def test_probe_series_and_names():
    probe = Probe()
    for v in (1.0, 2.0, 3.0, 10.0):
        probe.sample("lat", v)
    probe.sample("bw", 5.0)
    assert probe.series("lat") == [1.0, 2.0, 3.0, 10.0]
    assert probe.names() == ["bw", "lat"]


def test_probe_missing_series_raises():
    """A typo'd series name must never read as "zero samples"."""
    probe = Probe()
    with pytest.raises(KeyError, match="nope"):
        probe.series("nope")


def test_probe_series_returns_a_copy():
    """Reading a series hands back a copy, never the probe's own list."""
    probe = Probe()
    probe.sample("lat", 1.0)
    xs = probe.series("lat")
    assert xs == [1.0]
    xs.append(99.0)
    assert probe.series("lat") == [1.0]


def test_all_of_defuses_later_faulting_children():
    """AllOf fails with the *first* child failure; a sibling that faults
    afterwards is defused so its failure cannot abort the run."""
    sim = Simulator()
    ev1, ev2 = sim.event("e1"), sim.event("e2")

    def proc(sim):
        try:
            yield sim.all_of([ev1, ev2])
        except KeyError as exc:
            return (sim.now, str(exc))

    def faulter(sim):
        yield sim.timeout(1.0)
        ev1.fail(KeyError("first"))
        yield sim.timeout(1.0)
        ev2.fail(KeyError("second"))

    p = sim.process(proc(sim))
    sim.process(faulter(sim))
    sim.run()  # ev2's late failure must not abort the simulation
    assert p.value == (1.0, "'first'")
