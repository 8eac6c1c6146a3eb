"""Span-based tracing for the simulated stack.

A :class:`Span` is an interval of *virtual* time attributed to a named
track ("pe0", "ib:pe1", "link:n0.pcie.gpu0:fwd", ...): the runtime
opens one per SHMEM op, the verbs layer one per work request, and the
hardware layer one per link crossing, so a single operation unfolds as
a nested op -> protocol decision -> per-hop stack — the breakdown the
paper's Figs 6-12 and Table III reason about.

Spans are the simulator's one event recorder.  Emission is pull-free
and costless when disabled: every hook guards on ``sim.tracer is None``
(one attribute load) and nothing is recorded.  Attaching a
:class:`SpanTracer` closes tier 0 and putmem's tier-2 commit, which
elide the op spans, just as ``Simulator.fastpath = False`` does, and
changes nothing else: the event path schedules exactly as it does
untraced (a route instant and a write's ``ib`` span are stamped
with their own timestamps, :meth:`SpanTracer.instant` ``at=`` and
:meth:`SpanTracer.complete`), and every link hold runs the same
:class:`~repro.hardware.links.AnalyticTransfer` traced or not,
emitting one ``link:`` span per hop direction at hold end (arg
``hop`` = the direction's index, so ``hop == 0`` spans count holds).
Every simulated timestamp stays bit-identical (spans only *read*
``sim.now``).

The collector is bounded: past ``limit`` spans it counts drops in
:attr:`SpanTracer.dropped` and flags :attr:`SpanTracer.truncated`
instead of silently losing data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.simulator import Simulator


@dataclass
class Span:
    """One closed (or still-open) interval of virtual time."""

    name: str
    cat: str
    track: str
    start: float
    end: Optional[float] = None
    #: Index of the job/simulator this span belongs to (Chrome pid).
    scope: int = 0
    #: Nesting depth on the track at open time (0 = top level).
    depth: int = 0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        if self.end is None:
            raise ValueError(f"span {self.name!r} is still open")
        return self.end - self.start


@dataclass
class Instant:
    """A zero-duration marker (e.g. a protocol-route decision)."""

    name: str
    cat: str
    track: str
    time: float
    scope: int = 0
    args: Dict[str, Any] = field(default_factory=dict)


class SpanTracer:
    """Attachable span collector; one instance may observe many jobs.

    Example::

        tracer = SpanTracer().attach(job.sim)
        job.run(program)
        write_chrome_trace(tracer, "trace.json")
    """

    def __init__(self, limit: int = 2_000_000):
        self.spans: List[Span] = []
        self.instants: List[Instant] = []
        self.dropped = 0
        self._limit = limit
        #: id(sim) -> scope index; each attached simulator becomes one
        #: "process" in the Chrome export.
        self._scopes: Dict[int, int] = {}
        #: scope index -> human label ("enhanced-gdr x2PE"), if given.
        self._scope_labels: Dict[int, str] = {}
        #: (scope, track) -> stack of open spans, for nesting depth.
        self._open: Dict[tuple, List[Span]] = {}

    # ------------------------------------------------------------ lifecycle
    def attach(self, sim: Simulator, label: Optional[str] = None) -> "SpanTracer":
        """Start observing ``sim``.  Also disarms its tier-0 batch and
        putmem's tier-2 commit, as ``sim.fastpath = False`` does (they
        elide the per-op generators that emit op spans); past that, a
        traced run takes the untraced event path, event for event."""
        scope = self._scopes.setdefault(id(sim), len(self._scopes))
        if label is not None:
            self._scope_labels.setdefault(scope, label)
        sim.tracer = self
        return self

    def detach(self, sim: Simulator) -> None:
        if sim.tracer is self:
            sim.tracer = None

    def _scope(self, sim: Simulator) -> int:
        return self._scopes.setdefault(id(sim), len(self._scopes))

    def scope_label(self, scope: int) -> str:
        return self._scope_labels.get(scope, f"job {scope}")

    @property
    def nscopes(self) -> int:
        return len(self._scopes)

    @property
    def truncated(self) -> bool:
        """True when at least one span/instant was dropped at ``limit``."""
        return self.dropped > 0

    def _room(self) -> bool:
        if len(self.spans) + len(self.instants) >= self._limit:
            self.dropped += 1
            return False
        return True

    # ------------------------------------------------------------- emission
    def begin(self, sim: Simulator, name: str, cat: str, track: str, **args) -> Optional[Span]:
        """Open a span at the current virtual instant.  Returns ``None``
        (and counts a drop) once the collector is full."""
        if not self._room():
            return None
        scope = self._scope(sim)
        stack = self._open.setdefault((scope, track), [])
        span = Span(name, cat, track, sim.now, scope=scope, depth=len(stack), args=args)
        stack.append(span)
        self.spans.append(span)
        return span

    def end(self, sim: Simulator, span: Optional[Span], **args) -> None:
        """Close ``span`` at the current instant (no-op for ``None``,
        so callers can thread the result of a dropped :meth:`begin`)."""
        if span is None:
            return
        span.end = sim.now
        if args:
            span.args.update(args)
        stack = self._open.get((span.scope, span.track))
        if stack and span in stack:
            stack.remove(span)

    def complete(
        self, sim: Simulator, name: str, cat: str, track: str, start: float, **args
    ) -> Optional[Span]:
        """Record an already-finished span: ``[start, sim.now]``.  Used
        by the hardware layer, which knows a crossing's full interval
        only once the hold ends, and by an RDMA write at its ack."""
        if not self._room():
            return None
        span = Span(name, cat, track, start, end=sim.now, scope=self._scope(sim), args=args)
        self.spans.append(span)
        return span

    def instant(
        self, sim: Simulator, name: str, cat: str, track: str, at: Optional[float] = None,
        **args,
    ) -> None:
        """Record a zero-duration marker (route decisions, faults) at
        ``at``, or at the current instant when ``at`` is ``None``.  The
        runtime stamps a route decision ahead of the wake-up it lands
        in, so no wake-up exists only to be traced."""
        if not self._room():
            return
        self.instants.append(
            Instant(name, cat, track, sim.now if at is None else at, scope=self._scope(sim),
                    args=args)
        )

    # -------------------------------------------------------------- queries
    def by_name(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def by_cat(self, cat: str) -> List[Span]:
        return [s for s in self.spans if s.cat == cat]

    def tracks(self) -> List[str]:
        return sorted({s.track for s in self.spans} | {i.track for i in self.instants})

    def open_spans(self) -> List[Span]:
        """Spans begun but never ended (a leak unless the run aborted)."""
        return [s for s in self.spans if s.end is None]

    def clear(self) -> None:
        self.spans.clear()
        self.instants.clear()
        self._open.clear()
        self.dropped = 0
