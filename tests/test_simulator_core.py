"""Unit tests for the discrete-event engine core."""

import pytest

from repro.simulator import Event, Process, SimulationError, Simulator, Timeout


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.5)
        return "done"

    p = sim.process(proc(sim))
    sim.run()
    assert sim.now == pytest.approx(1.5)
    assert p.value == "done"


def test_timeout_value_passthrough():
    sim = Simulator()

    def proc(sim):
        got = yield sim.timeout(0.1, value="payload")
        return got

    p = sim.process(proc(sim))
    sim.run()
    assert p.value == "payload"


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.timeout(-1.0)


def test_sequential_timeouts_accumulate():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)
        yield sim.timeout(2.0)
        yield sim.timeout(3.0)

    sim.process(proc(sim))
    sim.run()
    assert sim.now == pytest.approx(6.0)


def test_parallel_processes_share_clock():
    sim = Simulator()
    log = []

    def proc(sim, name, delay):
        yield sim.timeout(delay)
        log.append((name, sim.now))

    sim.process(proc(sim, "b", 2.0))
    sim.process(proc(sim, "a", 1.0))
    sim.run()
    assert log == [("a", 1.0), ("b", 2.0)]


def test_same_time_events_fifo_order():
    sim = Simulator()
    log = []

    def proc(sim, name):
        yield sim.timeout(1.0)
        log.append(name)

    for name in "abcde":
        sim.process(proc(sim, name))
    sim.run()
    assert log == list("abcde")


def test_event_succeed_wakes_waiter():
    sim = Simulator()
    ev = sim.event("flag")
    log = []

    def waiter(sim):
        value = yield ev
        log.append((sim.now, value))

    def setter(sim):
        yield sim.timeout(3.0)
        ev.succeed(99)

    sim.process(waiter(sim))
    sim.process(setter(sim))
    sim.run()
    assert log == [(3.0, 99)]


def test_event_double_succeed_rejected():
    sim = Simulator()
    ev = sim.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_raises():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_event_fail_requires_exception():
    sim = Simulator()
    ev = sim.event()
    with pytest.raises(SimulationError):
        ev.fail("not an exception")  # type: ignore[arg-type]


def test_failed_event_throws_into_process():
    sim = Simulator()
    ev = sim.event()

    def waiter(sim):
        try:
            yield ev
        except ValueError as exc:
            return f"caught {exc}"

    def failer(sim):
        yield sim.timeout(1.0)
        ev.fail(ValueError("boom"))

    p = sim.process(waiter(sim))
    sim.process(failer(sim))
    sim.run()
    assert p.value == "caught boom"


def test_unhandled_process_exception_propagates():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("kaput")

    sim.process(bad(sim))
    with pytest.raises(RuntimeError, match="kaput"):
        sim.run()


def test_defused_process_failure_does_not_abort():
    sim = Simulator()

    def bad(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("kaput")

    p = sim.process(bad(sim))
    p.defuse()
    sim.run()
    assert p.exception is not None


def test_process_return_value():
    sim = Simulator()

    def inner(sim):
        yield sim.timeout(1.0)
        return 41

    def outer(sim):
        v = yield sim.process(inner(sim))
        return v + 1

    p = sim.process(outer(sim))
    sim.run()
    assert p.value == 42


def test_yield_from_subroutine():
    sim = Simulator()

    def sub(sim):
        yield sim.timeout(2.0)
        return "sub-result"

    def main(sim):
        v = yield from sub(sim)
        return v

    p = sim.process(main(sim))
    sim.run()
    assert p.value == "sub-result"
    assert sim.now == pytest.approx(2.0)


def test_waiting_on_already_processed_event():
    sim = Simulator()
    ev = sim.event()
    ev.succeed("early")

    def late(sim):
        yield sim.timeout(5.0)
        got = yield ev
        return got

    p = sim.process(late(sim))
    sim.run()
    assert p.value == "early"
    assert sim.now == pytest.approx(5.0)


def test_yield_non_event_fails_process():
    sim = Simulator()

    def bad(sim):
        yield 42  # type: ignore[misc]

    p = sim.process(bad(sim))
    p.defuse()
    sim.run()
    assert isinstance(p.exception, SimulationError)


def test_process_requires_generator():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.process(lambda: None)  # type: ignore[arg-type]


def test_run_until_pauses_clock():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(10.0)

    sim.process(proc(sim))
    t = sim.run(until=4.0)
    assert t == pytest.approx(4.0)
    assert sim.now == pytest.approx(4.0)
    sim.run()
    assert sim.now == pytest.approx(10.0)


def test_peek_next_event_time():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(7.0)
    assert sim.peek() == pytest.approx(7.0)


def test_is_alive_lifecycle():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)

    p = sim.process(proc(sim))
    assert p.is_alive
    sim.run()
    assert not p.is_alive


def test_max_events_backstop():
    sim = Simulator()

    def spinner(sim):
        while True:
            yield sim.timeout(0.0)

    sim.process(spinner(sim))
    with pytest.raises(SimulationError, match="max_events"):
        sim.run(max_events=100)


def test_active_process_visible_during_step():
    sim = Simulator()
    seen = []

    def proc(sim):
        seen.append(sim.active_process)
        yield sim.timeout(0.0)

    p = sim.process(proc(sim))
    sim.run()
    assert seen == [p]
    assert sim.active_process is None


def test_start_runs_the_first_step_inside_the_caller():
    """``Simulator.start`` steps the generator at once (no kick-start
    entry), restores the caller's active process, and then behaves as
    any process: resumed by its events, succeeding with its return."""
    sim = Simulator()
    trace = []

    def inner(sim):
        trace.append(("inner", sim.now))
        yield sim.timeout(1.0)
        return "done"

    def outer(sim):
        yield sim.timeout(2.0)
        before = sim.stats.scheduled
        child = sim.start(inner(sim))
        # Only the child's timeout was scheduled, and it ran in this step.
        trace.append(("outer", sim.stats.scheduled - before, sim.active_process is me[0]))
        value = yield child
        return value, sim.now

    me = [sim.process(outer(sim))]
    sim.run()
    assert trace == [("inner", 2.0), ("outer", 1, True)]
    assert me[0].value == ("done", 3.0)


def test_fire_now_resumes_the_waiter_in_the_same_step():
    sim = Simulator()
    ev = sim.event("sync")
    got = []

    def waiter(sim):
        got.append((yield ev))

    sim.process(waiter(sim))
    sim.run()  # the waiter is parked on ev
    before = sim.stats.processed
    ev.fire_now("v")
    assert got == ["v"] and ev.processed
    assert sim.stats.processed == before  # no scheduler entry was used


def test_call_at_shares_the_heap_order_of_events():
    """A bare call, a ``wake_at`` event and a timeout due at one instant
    pop in the order they were submitted, each one scheduler entry."""
    sim = Simulator()
    order = []
    sim.call_at(1.0, order.append, "call")
    sim.wake_at(1.0).callbacks.append(lambda _ev: order.append("wake_at"))
    sim.timeout(1.0).callbacks.append(lambda _ev: order.append("timeout"))
    sim.call_at(1.0, lambda arg: order.append((arg, sim.now)))
    sim.run()
    assert order == ["call", "wake_at", "timeout", (None, 1.0)]
    assert (sim.stats.scheduled, sim.stats.processed) == (4, 4)


def test_call_at_into_the_past_raises():
    sim = Simulator()
    sim.call_at(1.0, lambda _arg: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(0.5, lambda _arg: None)


# ------------------------------------------------- global stats hygiene
def test_reset_global_stats_preserves_counter_types():
    """Reset must go through a fresh SimStats so ``degraded_time`` stays
    a float (an int 0 would silently change arithmetic/serialization
    downstream) and every other counter stays an int."""
    from repro.simulator.core import GLOBAL_STATS, SimStats, reset_global_stats

    GLOBAL_STATS.degraded_time += 1.25
    GLOBAL_STATS.scheduled += 7
    out = reset_global_stats()
    assert out is GLOBAL_STATS  # in place: held references stay live
    assert GLOBAL_STATS.degraded_time == 0.0
    assert isinstance(GLOBAL_STATS.degraded_time, float)
    for name in SimStats.__slots__:
        if name == "degraded_time":
            continue
        assert getattr(GLOBAL_STATS, name) == 0
        assert isinstance(getattr(GLOBAL_STATS, name), int)


def test_flush_stats_idempotent_after_reset():
    """flush_stats folds only the delta since the previous flush, and a
    reset in between must not resurrect already-flushed counters."""
    from repro.simulator.core import GLOBAL_STATS, reset_global_stats

    reset_global_stats()
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)

    sim.process(proc(sim))
    sim.run()
    sim.flush_stats()
    first = GLOBAL_STATS.as_dict()
    assert first["scheduled"] > 0
    sim.flush_stats()  # no new work: a second flush adds nothing
    assert GLOBAL_STATS.as_dict() == first
    reset_global_stats()
    sim.flush_stats()  # still no new work: reset must stay clean
    assert all(v == 0 for v in GLOBAL_STATS.as_dict().values())
    reset_global_stats()


def test_absorb_keeps_degraded_time_float():
    from repro.simulator.core import SimStats

    a, b = SimStats(), SimStats()
    b.degraded_time = 0.5
    b.retries = 3
    a.absorb(b)
    assert a.degraded_time == 0.5
    assert isinstance(a.degraded_time, float)
    assert a.retries == 3
