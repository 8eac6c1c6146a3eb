"""Property-based tests for the simulator primitives."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.links import Link
from repro.simulator import Resource, Simulator, Store


@given(delays=st.lists(st.floats(0, 10), min_size=1, max_size=20))
@settings(max_examples=60, deadline=None)
def test_clock_ends_at_max_delay(delays):
    sim = Simulator()

    def proc(d):
        yield sim.timeout(d)

    for d in delays:
        sim.process(proc(d))
    sim.run()
    assert sim.now == max(delays)


@given(
    delays=st.lists(st.floats(0, 5), min_size=2, max_size=15),
)
@settings(max_examples=60, deadline=None)
def test_all_of_completes_at_slowest(delays):
    sim = Simulator()

    def proc():
        evs = [sim.timeout(d, value=i) for i, d in enumerate(delays)]
        yield sim.all_of(evs)
        return sim.now

    p = sim.process(proc())
    sim.run()
    assert p.value == max(delays)


@given(
    capacity=st.integers(1, 5),
    holds=st.lists(st.floats(0.001, 2.0), min_size=1, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_resource_never_exceeds_capacity(capacity, holds):
    sim = Simulator()
    res = Resource(sim, capacity=capacity)
    peak = {"v": 0}

    def user(h):
        req = res.request()
        yield req
        peak["v"] = max(peak["v"], res.count)
        yield sim.timeout(h)
        res.release(req)

    for h in holds:
        sim.process(user(h))
    sim.run()
    assert peak["v"] <= capacity
    assert res.count == 0 and res.queued == 0


@given(
    capacity=st.integers(1, 5),
    holds=st.lists(st.floats(0.001, 2.0), min_size=1, max_size=12),
)
@settings(max_examples=60, deadline=None)
def test_link_slots_never_exceed_capacity(capacity, holds):
    sim = Simulator()
    d = Link(sim, "l", capacity=capacity).fwd
    peak = {"v": 0}
    order = []

    def owner(i, h):
        def granted(_direction):
            order.append(i)
            peak["v"] = max(peak["v"], d.holders)
            sim.wake_at(sim.now + h).callbacks.append(lambda _ev: d.release())
        return granted

    for i, h in enumerate(holds):
        d.grant(owner(i, h))
    sim.run()
    assert peak["v"] <= capacity
    assert order == list(range(len(holds)))
    assert d.holders == 0 and d.idle


@given(items=st.lists(st.integers(), min_size=1, max_size=30))
@settings(max_examples=60, deadline=None)
def test_store_preserves_order_and_items(items):
    sim = Simulator()
    store = Store(sim)
    got = []

    def producer():
        for it in items:
            yield sim.timeout(0.1)
            store.put(it)

    def consumer():
        for _ in items:
            it = yield store.get()
            got.append(it)

    sim.process(producer())
    sim.process(consumer())
    sim.run()
    assert got == items
