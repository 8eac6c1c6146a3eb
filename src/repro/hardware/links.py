"""Timed, contended point-to-point links.

A :class:`Link` has two independent directions, each serialized by a
FIFO :class:`~repro.simulator.resources.Resource`.  A transfer holds
its direction for ``latency + nbytes / bandwidth`` (store-and-forward
per modeled hop; protocols that want pipelining chunk their transfers
explicitly, exactly like the real runtimes do).

:class:`TransferSpec` is the unit the topology layers hand back: a
latency, an effective bandwidth, and the set of link directions the
transfer must occupy.  :class:`AnalyticTransfer` is the single machine
through which *all* simulated data movement holds its links (via
``TransferSpec.execute``, or wrapped by putmem's tier-2 RDMA-write flow), so
failure injection and tracing hook in there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError, LinkDown
from repro.simulator import Event, Resource, Simulator


class LinkDirection:
    """One direction of a duplex link.

    Failure injection supports two scopes:

    * ``fail()`` downs the direction for *all* traffic — the physical
      wire is dead;
    * ``fail(label="gdrP2P")`` blocks only transfers whose spec label
      starts with the given prefix.  This models faults that kill one
      *access path* over a shared physical link: e.g. the HCA's PCIe
      peer-to-peer/BAR window into a GPU can wedge (blocking
      ``gdrP2Pread``/``gdrP2Pwrite``) while the GPU's own DMA engines
      keep serving ``cudaMemcpy`` traffic over the same slot — exactly
      the situation where the runtime should fail over to the
      host-staged pipeline.

    Every ``fail()`` is also appended to a per-direction *failure log*;
    an in-flight transfer records the log position when it acquires the
    wire and re-checks it when its hold ends, so a failure window that
    overlaps the transfer loses the payload even if ``repair()`` ran
    before the completion instant (a repaired link does not resurrect
    bits that were on the wire when it dropped).
    """

    __slots__ = (
        "link",
        "tag",
        "resource",
        "bytes_moved",
        "transfers",
        "_down",
        "_blocked",
        "_fail_log",
    )

    def __init__(self, link: "Link", tag: str, capacity: int):
        self.link = link
        self.tag = tag
        self.resource = Resource(link.sim, capacity=capacity, name=f"{link.name}:{tag}")
        self.bytes_moved = 0
        self.transfers = 0
        self._down = False
        #: label-prefix -> active fail count (overlapping windows nest).
        self._blocked: dict = {}
        #: Every fail() appends its label (None = whole direction); see
        #: :class:`AnalyticTransfer` for the mid-flight check.
        self._fail_log: List[Optional[str]] = []

    @property
    def name(self) -> str:
        return f"{self.link.name}:{self.tag}"

    @property
    def is_down(self) -> bool:
        return self._down

    def fail(self, label: Optional[str] = None) -> None:
        """Failure injection: matching transfers raise :class:`LinkDown`.

        ``label`` restricts the failure to transfers whose spec label
        starts with that prefix; ``None`` downs the direction entirely.
        """
        if label is None:
            self._down = True
        else:
            self._blocked[label] = self._blocked.get(label, 0) + 1
        self._fail_log.append(label)

    def repair(self, label: Optional[str] = None) -> None:
        """Undo a :meth:`fail` of the same scope.

        Repairing only re-opens the direction for *new* transfers; a
        transfer that was in flight when the failure hit still observes
        it at the end of its hold (see the failure log above).
        """
        if label is None:
            self._down = False
            self._blocked.clear()
            return
        n = self._blocked.get(label, 0) - 1
        if n > 0:
            self._blocked[label] = n
        else:
            self._blocked.pop(label, None)

    def blocks(self, label: str) -> bool:
        """Would a transfer labelled ``label`` be refused right now?"""
        if self._down:
            return True
        if self._blocked:
            for prefix in self._blocked:
                if label.startswith(prefix):
                    return True
        return False

    def failed_since(self, mark: int, label: str) -> bool:
        """Did a failure applying to ``label`` occur after log position
        ``mark``?  (True even if the direction has been repaired.)"""
        for prefix in self._fail_log[mark:]:
            if prefix is None or label.startswith(prefix):
                return True
        return False

    @property
    def fail_mark(self) -> int:
        """Current failure-log position (pass to :meth:`failed_since`)."""
        return len(self._fail_log)

    @property
    def idle(self) -> bool:
        """Up (for every label), unoccupied, and nobody queued — a
        batched fast path may claim this direction without perturbing
        any FIFO ordering."""
        return (
            not self._down
            and not self._blocked
            and self.resource.count == 0
            and self.resource.queued == 0
        )


class Link:
    """A duplex link with per-direction serialization.

    ``capacity`` > 1 models links that can carry several concurrent
    transfers at full rate each (used for the abstracted IB switch
    ports, where per-flow bandwidth is enforced by the HCA, not the
    wire).
    """

    def __init__(self, sim: Simulator, name: str, capacity: int = 1):
        if capacity < 1:
            raise ConfigurationError(f"link capacity must be >= 1: {name}")
        self.sim = sim
        self.name = name
        self.fwd = LinkDirection(self, "fwd", capacity)
        self.rev = LinkDirection(self, "rev", capacity)

    def direction(self, forward: bool) -> LinkDirection:
        return self.fwd if forward else self.rev

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Link {self.name}>"


@dataclass
class TransferSpec:
    """A fully-resolved timed transfer: where the time is charged.

    ``segments`` is an ordered list of ``(direction, latency, bandwidth)``
    hops.  Hops are traversed store-and-forward; most protocol steps in
    this reproduction resolve to a single hop with an *effective*
    bandwidth (see DESIGN.md §2) because the paper's own bottleneck
    numbers (Table III) are end-to-end effective rates.
    """

    nbytes: int
    segments: List[Tuple[LinkDirection, float, float]] = field(default_factory=list)
    #: Fixed software time charged before the first hop (post overheads).
    setup: float = 0.0
    #: Human-readable protocol tag, surfaced in traces and tests.
    label: str = "transfer"
    #: Per-direction labels preserved across :meth:`extend` merges, so a
    #: label-scoped failure (e.g. ``"gdrP2P"``) still matches the GDR
    #: leg of a composite path relabelled ``"rdma_write"``.
    leg_labels: Dict[int, str] = field(default_factory=dict)

    def add(self, direction: LinkDirection, latency: float, bandwidth: float) -> "TransferSpec":
        self.segments.append((direction, latency, bandwidth))
        return self

    def extend(self, other: "TransferSpec") -> "TransferSpec":
        """Concatenate another spec's hops (and setup) onto this one.

        Each side's directions remember the label they were built under
        (first label wins for a direction both sides cross)."""
        if other.nbytes != self.nbytes:
            raise ConfigurationError(
                f"cannot merge specs of different sizes ({self.nbytes} vs {other.nbytes})"
            )
        for d, _lat, _bw in self.segments:
            self.leg_labels.setdefault(id(d), self.label)
        for key, lbl in other.leg_labels.items():
            self.leg_labels.setdefault(key, lbl)
        for d, _lat, _bw in other.segments:
            self.leg_labels.setdefault(id(d), other.label)
        self.setup += other.setup
        self.segments.extend(other.segments)
        return self

    def leg_label(self, direction: LinkDirection) -> str:
        """The label failure scoping applies to ``direction``."""
        return self.leg_labels.get(id(direction), self.label) if self.leg_labels else self.label

    def bottleneck_bandwidth(self) -> float:
        """Slowest hop's bandwidth (0.0 when every hop is latency-only)."""
        rates = [bw for _d, _lat, bw in self.segments if bw > 0]
        return min(rates) if rates else 0.0

    def total_latency(self) -> float:
        """Uncontended end-to-end duration.

        Hops are *pipelined* (cut-through), as real DMA engines and HCAs
        are: latencies add, but the payload streams at the bottleneck
        hop's rate rather than paying every hop's serialization.
        """
        t = self.setup + sum(lat for _d, lat, _bw in self.segments)
        bw = self.bottleneck_bandwidth()
        if bw > 0:
            t += self.nbytes / bw
        return t

    def duration(self) -> float:
        """The held time of :meth:`execute` (everything after ``setup``).

        The batched fast paths replay :meth:`execute` in closed form, so
        this must perform the *same float operations in the same order*
        as the event-accurate path — down to the last ulp.
        """
        duration = sum(lat for _d, lat, _bw in self.segments)
        bw = self.bottleneck_bandwidth()
        if bw > 0:
            duration += self.nbytes / bw
        return duration

    def directions(self) -> List[LinkDirection]:
        """The deduplicated hop directions, in global acquisition order."""
        out: List[LinkDirection] = []
        seen = set()
        for d, _lat, _bw in self.segments:
            if id(d) not in seen:
                seen.add(id(d))
                out.append(d)
        out.sort(key=lambda d: d.name)
        return out

    def count_transfer(self) -> None:
        """Bump per-direction byte/transfer counters for one execution."""
        for d in self.directions():
            d.bytes_moved += self.nbytes
            d.transfers += 1

    def execute(self, sim: Simulator) -> Generator:
        """Run the transfer (cut-through across hops); returns ``nbytes``.

        All hop directions are acquired in a global deterministic order
        (no deadlock between overlapping paths), held for the pipelined
        duration, then released together — by one
        :class:`AnalyticTransfer`, the single link-hold machine.

        Failure semantics: a transfer raises :class:`LinkDown` when a
        matching failure is active at request or grant time, **and**
        when a failure window overlapped its hold — even if the link was
        repaired before the completion instant, the bytes that were in
        flight are lost (time was charged; the payload was not
        delivered).  The retry layer re-executes the spec, re-pricing
        the wire crossing.
        """
        tr = AnalyticTransfer(sim, self)
        if tr.boot_exc is not None:
            # Zero setup and a direction already down: raise before the
            # first yield, in the caller's own frame.
            raise tr.boot_exc
        return (yield tr.completion)


class AnalyticTransfer:
    """The one link-hold machine: acquire, hold, fail-check, release.

    :meth:`TransferSpec.execute` yields on one of these for every timed
    crossing, and :class:`~repro.shmem.fastpath.AnalyticFlow` wraps one
    per signaled RDMA write it commits.  The machine acquires FIFO
    resources one request per scheduler step — contended windows price
    themselves exactly as processes queueing on the resources would —
    but runs as callbacks rather than as a generator: no per-hop
    resumes, and the setup and hold-end instants are absolute wake-ups
    (named ``"<label>:setup"`` and ``"<label>"``) instead of ``Timeout``
    allocations.

    Timeline:

    * ``t_req = now + spec.setup`` — hop directions requested in global
      acquisition order, one request per scheduler step; a queued
      request suspends the acquisition, resuming in the holder's
      release callback;
    * ``t_end = last_grant + spec.duration()`` — one ``link`` span per
      direction recorded when a tracer is attached (arg ``hop`` is the
      direction's index, so ``hop == 0`` spans count holds), then the
      failure check, per-direction byte and transfer counters bumped, holds
      released (waking queued transfers URGENT), :attr:`completion`
      fired with the byte count.

    Failure semantics: a matching failure at request or grant time, or
    a failure window overlapping the hold, fails :attr:`completion`
    with :class:`LinkDown` (``in_flight=True`` for the last) at that
    instant, releasing every granted direction to its queued waiters.
    With zero setup the first request happens in the constructor, and
    a failure there lands in :attr:`boot_exc` for the caller to raise
    in its own frame.  The machine runs identically with or without a
    fault plan or a tracer attached.
    """

    __slots__ = (
        "sim",
        "spec",
        "dirs",
        "duration",
        "completion",
        "_granted",
        "_marks",
        "_idx",
        "_dead",
        "_booting",
        "_hold_start",
        "boot_exc",
        "contended",
    )

    def __init__(
        self,
        sim: Simulator,
        spec: TransferSpec,
        dirs: Optional[Sequence[LinkDirection]] = None,
        duration: Optional[float] = None,
    ):
        self.sim = sim
        self.spec = spec
        # Commit sites with a route cache pass the spec's (topology-pure)
        # acquisition order and pipelined duration instead of
        # recomputing them per transfer.
        self.dirs = spec.directions() if dirs is None else dirs
        self.duration = spec.duration() if duration is None else duration
        self.completion = Event(sim, name="an-x:done")
        self._granted: List[Tuple[LinkDirection, object]] = []
        self._marks: List[Tuple[LinkDirection, int]] = []
        self._idx = 0
        self._dead = False
        self._hold_start = 0.0
        self.boot_exc: Optional[BaseException] = None
        self.contended = False
        if spec.setup:
            self._booting = False
            w = sim.wake_at(sim.now + spec.setup, name=f"{spec.label}:setup")
            w.callbacks.append(self._acquire)
        else:
            # No setup leg: request synchronously at the current
            # instant.  A failure here surfaces through ``boot_exc``.
            self._booting = True
            self._acquire(None)
            self._booting = False

    def _fire(self, value=None, exc: Optional[BaseException] = None) -> None:
        """Trigger ``completion``: synchronously, inside the current
        pop, when a waiter is already attached (it resumes within the
        hold-end wake-up); through the scheduler otherwise."""
        c = self.completion
        if c._triggered:
            return
        if c.callbacks:
            c._triggered = True
            if exc is not None:
                c._exc = exc
            else:
                c._value = value
            c._run_callbacks()
        elif exc is not None:
            c.fail(exc)
        else:
            c.succeed(value)

    def _die(self, exc: BaseException) -> None:
        self._dead = True
        for d, req in self._granted:
            d.resource.release(req)
        self._granted = []
        if self._booting:
            self.boot_exc = exc
            return
        self._fire(exc=exc)

    def _acquire(self, ev: Optional[Event]) -> None:
        # First entry arrives from the setup wake-up (or synchronously
        # from the constructor); re-entries arrive from each request's
        # own pop — granted or queued — so the transfer takes exactly
        # one resource request per scheduler step, the cadence of a
        # process that yields after *every* ``request()``, immediate
        # grant or not (the pinned timings depend on it).  Chaining
        # consecutive immediate grants inline here would jump ahead of
        # same-instant parties whose resumes already sat in the ready
        # queue, flipping a FIFO grant on a shared direction once three
        # or more transfers contend.
        if self._dead:
            return
        dirs = self.dirs
        spec = self.spec
        granted = self._granted
        i = self._idx
        if i and granted:
            d = dirs[i - 1]
            if d.blocks(spec.leg_label(d)):
                self._die(LinkDown(f"link direction {d.name} went down", direction=d))
                return
        if i < len(dirs):
            d = dirs[i]
            if d.blocks(spec.leg_label(d)):
                self._die(LinkDown(f"link direction {d.name} is down", direction=d))
                return
            req = d.resource.request()
            granted.append((d, req))
            self._idx = i + 1
            if not req._triggered and not self.contended:
                self.contended = True
                self.sim.stats.contended_windows += 1
            req.callbacks.append(self._acquire)
            return
        self._marks = [(d, d.fail_mark) for d in dirs]
        sim = self.sim
        self._hold_start = sim.now
        end = sim.wake_at(sim.now + self.duration, name=spec.label)
        end.callbacks.append(self._finish)

    def _finish(self, _ev: Event) -> None:
        if self._dead:
            return
        spec = self.spec
        sim = self.sim
        tracer = sim.tracer
        if tracer is not None:
            # One completed crossing per hop direction, recorded
            # post-hoc so the span costs nothing on the timed path.
            for hop, d in enumerate(self.dirs):
                tracer.complete(
                    sim, spec.label, "link", f"link:{d.name}",
                    self._hold_start, nbytes=spec.nbytes, hop=hop,
                )
        for d, mark in self._marks:
            if d.failed_since(mark, spec.leg_label(d)):
                self._die(
                    LinkDown(
                        f"link direction {d.name} failed mid-transfer; payload lost",
                        direction=d,
                        in_flight=True,
                    )
                )
                return
        nbytes = spec.nbytes
        for d in self.dirs:
            d.bytes_moved += nbytes
            d.transfers += 1
        for d, req in self._granted:
            d.resource.release(req)
        self._granted = []
        # Fired synchronously: the waiting caller resumes inside the
        # hold-end pop, so its post-copy actions run *before* the
        # released waiters' grant events.
        self._fire(value=nbytes)


def chunked(nbytes: int, chunk: int) -> Sequence[int]:
    """Split a transfer into pipeline chunks (last may be short)."""
    if chunk <= 0:
        raise ConfigurationError(f"chunk must be positive, got {chunk}")
    if nbytes < 0:
        raise ConfigurationError(f"cannot chunk a negative byte count: {nbytes}")
    if nbytes == 0:
        return []
    full, rem = divmod(nbytes, chunk)
    sizes = [chunk] * full
    if rem:
        sizes.append(rem)
    return sizes
