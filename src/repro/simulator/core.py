"""Core of the discrete-event engine: events, processes, the scheduler.

Design notes
------------
The scheduler keeps two structures:

* a binary heap of ``(time, seq, fn, arg)`` entries whose pop calls
  ``fn(arg)``: an event scheduled at NORMAL priority (a timeout, a
  plain ``succeed()``) is ``(time, seq, Event._run_callbacks, event)``,
  and a bare call (:meth:`Simulator.call_at`) is any callable with its
  one argument, no Event built;
* a FIFO *ready queue* for URGENT work at the current instant —
  resource hand-offs, link grants and process resumptions.

``seq`` is a monotonically increasing tie-breaker so that entries
scheduled at the same instant fire in FIFO order — this makes every
simulation fully deterministic, which the test-suite relies on.

The split is an optimization, not a semantic change: URGENT entries
are *only ever* pushed with zero delay (``succeed``/``fail`` fire at
the current instant; timeouts are always NORMAL), so draining the
ready queue before the heap reproduces the exact
``(time, priority, seq)`` order the old single-heap scheduler
produced.  Two kinds of work ride the ready queue as plain tuples
instead of throwaway Event allocations, in every mode:

* process resumptions, ``(process, value, exc)``;
* link grants, ``(None, owner, direction)``: a
  :class:`~repro.hardware.links.LinkDirection` pushes one when it
  hands a slot to an owner, and its pop calls ``owner(direction)``.
  (The link-hold machine takes a free slot inline instead when that
  tuple would be the very next pop; see
  :class:`~repro.hardware.links.AnalyticTransfer`.)

Both count as scheduler work in ``scheduled``/``processed``; only
resumptions count in ``resumed_fast``.  Observing a run (the span
tracer in :mod:`repro.obs`) never changes how the engine schedules it.

Virtual time is a ``float`` in **seconds**.  All hardware constants in
:mod:`repro.hardware.params` are expressed in seconds / bytes-per-second
so latencies printed by the benchmark harness are simple unit
conversions.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, Iterable, List, Optional, Union


class SimulationError(RuntimeError):
    """Raised for illegal engine usage (double-trigger, bad yield, ...)."""


#: Priority used for ordinary events.
NORMAL = 1
#: Priority used for events that must fire before ordinary ones at the
#: same instant (e.g. resource hand-off).
URGENT = 0


class SimStats:
    """Engine counters; read via :attr:`Simulator.stats`.

    ``scheduled``/``processed`` count every unit of scheduler work
    (heap entries, ready-queue events, link grants and process
    resumptions alike; ``resumed_fast`` counts the resumptions),
    so a drop between two equivalent runs is direct evidence that a
    fast path elided events (compare ``processed`` with
    :attr:`Simulator.fastpath` on and off).  ``fastpath_batches`` counts
    the tier-0 batches (``Runtime._fast_staged``): quiescent staged-host
    copies that took the closed-form path.

    The tiered analytic engine adds its own population counters:
    ``analytic_flows`` counts putmem's tier-2 commits, single-RDMA puts
    whose ``RdmaWrite`` is posted at the op's call (no issue wake-up,
    no resume of putmem's generator); ``contended_windows`` counts link
    holds — of any transfer, in every mode — whose grant was queued
    behind other traffic.
    ``collective_closed_forms``, ``vectorised_events`` and
    ``cq_errors`` are always 0: they counted analytic commits inside
    collective rounds, the numpy wake lane and flushed completion-queue
    entries, all gone, and stay only because the benchmark's traced run
    maps every counter by name (``perfbench/tracing.py``) and reports
    incorrect on a missing one.

    The reliability counters (``retries`` .. ``degraded_time``) are only
    ever non-zero when a :class:`repro.faults.FaultPlan` is attached:
    ``retries`` counts RC retransmissions (plus staged-chunk replays),
    ``failovers`` counts protocol re-routes away from an unhealthy path,
    ``flap_windows``/``hca_stalls`` count injected faults as they bite,
    and ``degraded_time`` accumulates virtual seconds paths spent in the
    health tracker's DEGRADED state.

    ``rc_retx_holds``/``rc_aborted_wrs`` are the RC span ledger for
    ``rdma_write`` work requests: extra wire holds re-priced by
    retransmission after an in-flight loss, and WRs that exhausted
    retry without ever holding the wire.  The span-parity oracle uses
    them to reconcile one-span-per-WR against one-event-per-hold.

    The two-sided messaging layer (:mod:`repro.msg`) adds
    ``msg_eager``/``msg_rendezvous`` (matched message pairs by
    protocol), and the UD transport adds ``ud_packets`` (datagram
    segments posted), ``ud_drops`` (segments lost to a link fault —
    UD never retries at the transport level), and ``ud_resends``
    (segments re-posted by ``UDTransport.send``'s resend timer).
    """

    __slots__ = (
        "scheduled",
        "processed",
        "resumed_fast",
        "fastpath_batches",
        "analytic_flows",
        "contended_windows",
        "collective_closed_forms",
        "vectorised_events",
        "retries",
        "failovers",
        "flap_windows",
        "hca_stalls",
        "cq_errors",
        "rc_retx_holds",
        "rc_aborted_wrs",
        "msg_eager",
        "msg_rendezvous",
        "ud_packets",
        "ud_drops",
        "ud_resends",
        "degraded_time",
    )

    def __init__(self) -> None:
        for name in self.__slots__:
            setattr(self, name, 0)
        self.degraded_time = 0.0

    def absorb(self, other: "SimStats") -> None:
        for name in self.__slots__:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def as_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}

    def __repr__(self) -> str:  # pragma: no cover
        body = " ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"<SimStats {body}>"


#: Process-wide accumulator.  :meth:`Simulator.flush_stats` folds a
#: simulator's counters in here; :class:`repro.shmem.job.ShmemJob` does
#: so automatically at the end of every run, so harnesses that drive
#: many jobs (the benchmark runner, the test-suite) can report engine
#: totals without threading a Simulator handle around.
GLOBAL_STATS = SimStats()


def reset_global_stats() -> SimStats:
    """Zero the process-wide counters in place; returns the accumulator.

    In place so that ``from ... import GLOBAL_STATS`` references held by
    other modules keep observing the live tally after a reset.  Resets
    through a fresh :class:`SimStats` so each counter keeps its
    initialized type (``degraded_time`` stays a float) across
    reset/absorb round-trips.
    """
    fresh = SimStats()
    for name in SimStats.__slots__:
        setattr(GLOBAL_STATS, name, getattr(fresh, name))
    return GLOBAL_STATS


class Event:
    """A one-shot occurrence in virtual time.

    An event starts *pending*, becomes *triggered* when
    :meth:`succeed`/:meth:`fail` is called (at which point it is placed
    on the scheduler's queue), and is *processed* once its callbacks
    have run.  Processes waiting on the event are resumed with its
    ``value`` (or have ``exception`` thrown into them on failure).
    """

    __slots__ = (
        "sim",
        "callbacks",
        "_value",
        "_exc",
        "_triggered",
        "_processed",
        "_handled",
        "name",
    )

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self.callbacks: List[Callable[["Event"], None]] = []
        self._value: Any = None
        self._exc: Optional[BaseException] = None
        self._triggered = False
        self._processed = False
        self._handled = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given an outcome."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have been run by the scheduler."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True when the event succeeded (only meaningful if triggered)."""
        return self._triggered and self._exc is None

    @property
    def value(self) -> Any:
        if not self._triggered:
            raise SimulationError(f"value of untriggered event {self!r}")
        if self._exc is not None:
            raise self._exc
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        return self._exc

    # -- outcome -------------------------------------------------------
    def succeed(self, value: Any = None, priority: int = NORMAL) -> "Event":
        """Mark the event successful; callbacks run at the current instant."""
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._triggered = True
        self._value = value
        self.sim._push(self, 0.0, priority)
        return self

    def fail(self, exc: BaseException, priority: int = NORMAL) -> "Event":
        """Mark the event failed; waiters get ``exc`` thrown into them."""
        if not isinstance(exc, BaseException):
            raise SimulationError("fail() requires an exception instance")
        if self._triggered:
            raise SimulationError(f"event {self!r} already triggered")
        self._triggered = True
        self._exc = exc
        self.sim._push(self, 0.0, priority)
        return self

    def fire_now(self, value: Any = None, exc: Optional[BaseException] = None) -> None:
        """Trigger the event (failed when ``exc`` is given) and run its
        callbacks inside the current pop, with no scheduler entry: a
        waiting process resumes here, as a generator returning into its
        caller would."""
        self._triggered = True
        if exc is None:
            self._value = value
        else:
            self._exc = exc
        self._run_callbacks()

    def _run_callbacks(self) -> None:
        self._processed = True
        callbacks, self.callbacks = self.callbacks, []
        for cb in callbacks:
            cb(self)
        if self._exc is not None and not self._defused():
            # An unhandled failed event aborts the simulation rather
            # than being silently dropped.
            raise self._exc

    def _defused(self) -> bool:
        return self._handled

    def defuse(self) -> None:
        """Mark a failure as handled so it does not abort the run."""
        self._handled = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else ("triggered" if self._triggered else "pending")
        label = self.name or self.__class__.__name__
        return f"<{label} {state}>"


#: A scheduled event's heap call (see the module notes).
_run_callbacks = Event._run_callbacks


class Timeout(Event):
    """An event that fires ``delay`` seconds into the future."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None, name: str = ""):
        if delay < 0:
            raise SimulationError(f"negative timeout delay {delay!r}")
        super().__init__(sim, name or f"timeout({delay:g})")
        self.delay = delay
        self._triggered = True
        self._value = value
        sim._push(self, delay, NORMAL)


class Process(Event):
    """Wraps a generator; each yielded :class:`Event` suspends it.

    The process is itself an event: it succeeds with the generator's
    ``return`` value, or fails with any exception that escapes the
    generator.
    """

    __slots__ = ("_gen", "_waiting_on")

    def __init__(self, sim: "Simulator", gen: Generator, name: str = "", now: bool = False):
        if not hasattr(gen, "send"):
            raise SimulationError(f"Process requires a generator, got {type(gen).__name__}")
        super().__init__(sim, name or getattr(gen, "__name__", "process"))
        self._gen = gen
        self._waiting_on: Optional[Event] = None
        if now:
            # First step inside the caller's (see Simulator.start).
            outer = sim._active_process
            self._step(None, None)
            sim._active_process = outer
        else:
            # Kick-start at the current instant.
            sim._push_resume(self, None, None)

    @property
    def is_alive(self) -> bool:
        return not self._triggered

    def _resume(self, trigger: Event) -> None:
        if trigger._exc is not None:
            trigger.defuse()
        self._step(trigger._value, trigger._exc)

    def _step(self, value: Any, exc: Optional[BaseException]) -> None:
        self._waiting_on = None
        sim = self.sim
        sim._active_process = self
        try:
            if exc is not None:
                target = self._gen.throw(exc)
            else:
                target = self._gen.send(value)
        except StopIteration as stop:
            sim._active_process = None
            self._do_succeed(stop.value)
            return
        except BaseException as caught:
            sim._active_process = None
            self._do_fail(caught)
            return
        sim._active_process = None
        if not isinstance(target, Event):
            bad = SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must yield Events"
            )
            self._gen.close()
            self._do_fail(bad)
            return
        if target.sim is not self.sim:
            self._gen.close()
            self._do_fail(SimulationError("yielded event belongs to a different Simulator"))
            return
        self._waiting_on = target
        if target._processed:
            # Already fired: resume immediately (next scheduler step).
            sim._push_resume(self, target._value, target._exc)
        else:
            target.callbacks.append(self._resume)

    def _do_succeed(self, value: Any) -> None:
        if not self._triggered:
            super().succeed(value)

    def _do_fail(self, exc: BaseException) -> None:
        if not self._triggered:
            super().fail(exc)


class Simulator:
    """The event scheduler.

    Typical usage::

        sim = Simulator()

        def worker(sim):
            yield sim.timeout(1.0)
            return 42

        proc = sim.process(worker(sim))
        sim.run()
        assert proc.value == 42 and sim.now == 1.0
    """

    def __init__(self) -> None:
        self._queue: List[tuple] = []
        self._ready: Deque[Union[Event, tuple]] = deque()
        #: Current virtual time in seconds: set by :meth:`step` and
        #: :meth:`run` only, read everywhere else.
        self.now: float = 0.0
        self._seq: int = 0
        self._active_process: Optional[Process] = None
        #: Span collector (:class:`repro.obs.spans.SpanTracer`) or None.
        #: Emission sites across the runtime/ib/hardware layers guard on
        #: this; an attached tracer disarms tier 0 and putmem's tier-2
        #: commit, as ``fastpath = False`` does, since those elide the
        #: op spans.  The event path itself schedules
        #: the same work traced or not: spans and instants take their
        #: timestamps, so none waits for a wake-up of its own.
        self.tracer = None  # type: Optional[Any]
        self.stats = SimStats()
        self._flushed = SimStats()
        #: Master switch for the tier-0 staged-host batch and putmem's
        #: tier-2 commit in the shmem runtime.  They additionally require
        #: no tracer and no fault plan; tests flip this off to force the
        #: per-op generators.  Link holds and RDMA writes ignore it.
        self.fastpath = True

    # -- clock ---------------------------------------------------------
    @property
    def active_process(self) -> Optional[Process]:
        return self._active_process

    def quiescent(self) -> bool:
        """True when nothing besides the currently-running process is
        runnable or scheduled.

        This is the safety gate for the tier-0 staged-host batch
        (``Runtime._fast_staged``), its only caller: when it holds,
        every other process is blocked on events that only *this*
        operation's completion callbacks can trigger, so collapsing the
        operation's per-chunk events into one absolutely-timed wake-up
        cannot reorder any grant or wake-up another party would have
        observed.
        """
        return not self._ready and not self._queue

    # -- event construction --------------------------------------------
    def event(self, name: str = "") -> Event:
        return Event(self, name)

    def timeout(self, delay: float, value: Any = None, name: str = "") -> Timeout:
        return Timeout(self, delay, value, name)

    def wake_at(self, when: float, value: Any = None, name: str = "") -> Event:
        """An event firing at absolute time ``when`` (NORMAL priority),
        for a process to yield on.

        Used where an instant is computed in absolute terms (the issue
        wake-up, the tier-0 batch's end): scheduling
        ``timeout(when - now)`` would re-round the float and could drift
        off the event-accurate path by one ulp.  A callback machine that
        only needs to run at ``when`` uses :meth:`call_at` instead.
        """
        ev = Event(self, name or f"wake_at({when:g})")
        ev._triggered = True
        ev._value = value
        self.call_at(when, _run_callbacks, ev)
        return ev

    def call_at(self, when: float, fn: Callable[[Any], None], arg: Any = None) -> None:
        """Call ``fn(arg)`` at absolute time ``when``: one heap entry,
        ordered exactly as :meth:`wake_at`'s event would be, with no
        Event built.  The link-hold and RDMA-write machines schedule
        their fixed-instant wake-ups this way."""
        if when < self.now:
            raise SimulationError(f"call_at({when!r}) is in the past (now={self.now!r})")
        self._seq += 1
        self.stats.scheduled += 1
        heapq.heappush(self._queue, (when, self._seq, fn, arg))

    def process(self, gen: Generator, name: str = "") -> Process:
        return Process(self, gen, name)

    def start(self, gen: Generator, name: str = "") -> Process:
        """Like :meth:`process`, but the first step runs now, inside the
        current one, rather than from the ready queue.  A callback that
        hands the rest of an operation to a generator uses it: the
        generator's first yield then draws its scheduler entry at the
        point where a waiting generator would have drawn it."""
        return Process(self, gen, name, now=True)

    def all_of(self, events: Iterable[Event]) -> Event:
        return AllOf(self, list(events))

    def any_of(self, events: Iterable[Event]) -> Event:
        return AnyOf(self, list(events))

    # -- scheduling -----------------------------------------------------
    def _push(self, event: Event, delay: float, priority: int) -> None:
        self.stats.scheduled += 1
        if priority == URGENT:
            # succeed()/fail() always push at the current instant, so
            # URGENT entries never carry a delay; FIFO order here equals
            # the old heap's (time, URGENT, seq) order.
            self._ready.append(event)
        else:
            self._seq += 1
            heapq.heappush(self._queue, (self.now + delay, self._seq, _run_callbacks, event))

    def _push_resume(self, process: Process, value: Any, exc: Optional[BaseException]) -> None:
        self.stats.scheduled += 1
        self._ready.append((process, value, exc))

    def _push_grant(self, owner: Callable[[Any], None], direction: Any) -> None:
        """Queue a link grant: ``owner(direction)`` runs at its pop."""
        self.stats.scheduled += 1
        self._ready.append((None, owner, direction))

    def step(self) -> None:
        """Process the single next event.

        The ready queue holds Events, resumption tuples and link-grant
        tuples (see the module notes), drained FIFO before the heap,
        whose entries are calls.
        """
        self.stats.processed += 1
        if self._ready:
            item = self._ready.popleft()
            if item.__class__ is tuple:
                if item[0] is None:
                    item[1](item[2])
                    return
                self.stats.resumed_fast += 1
                proc, value, exc = item
                proc._step(value, exc)
                return
            item._run_callbacks()
            return
        when, _seq, fn, arg = heapq.heappop(self._queue)
        self.now = when
        fn(arg)

    def run(self, until: Optional[float] = None, max_events: int = 50_000_000) -> float:
        """Run until the queue drains or virtual time reaches ``until``.

        Returns the virtual time at which the run stopped.  ``max_events``
        is a runaway-loop backstop.
        """
        count = 0
        while self._ready or self._queue:
            if not self._ready and until is not None and self._queue[0][0] > until:
                self.now = until
                return self.now
            self.step()
            count += 1
            if count > max_events:
                raise SimulationError(f"exceeded max_events={max_events}; livelock?")
        return self.now

    def peek(self) -> float:
        """Time of the next scheduled event, or +inf if the queue is empty."""
        if self._ready:
            return self.now
        return self._queue[0][0] if self._queue else float("inf")

    def flush_stats(self) -> SimStats:
        """Fold this simulator's counters into :data:`GLOBAL_STATS`.

        Safe to call repeatedly: only the delta since the previous
        flush is added, and :attr:`stats` keeps accumulating.  Returns
        the process-wide accumulator.
        """
        cur, prev = self.stats, self._flushed
        for name in SimStats.__slots__:
            delta = getattr(cur, name) - getattr(prev, name)
            if delta:
                setattr(GLOBAL_STATS, name, getattr(GLOBAL_STATS, name) + delta)
            setattr(prev, name, getattr(cur, name))
        return GLOBAL_STATS

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Simulator t={self.now:.9f} queued={len(self._queue) + len(self._ready)}>"


# The condition events subclass Event, so they load after this module
# is complete; the package imports this module first.
from repro.simulator.conditions import AllOf, AnyOf  # noqa: E402
