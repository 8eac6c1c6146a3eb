"""Closed-form replay of the chunked pipeline protocols.

The event-accurate pipeline handlers in :mod:`repro.shmem.runtime` and
:mod:`repro.shmem.proxy` cost ~15-25 scheduler events per chunk.  When
the simulation is *quiescent* at protocol-dispatch time (ready queue and
event heap both empty — every other process is blocked on events only
this operation's completions can trigger), the whole chunk pipeline is
deterministic and its timing can be computed in closed form, then
committed as a handful of absolute wake-ups.

The planners below MUST perform the same float operations in the same
order as the event path — ``TransferSpec.duration()`` exists for exactly
this reason — so the batched schedule is bit-identical to the
event-by-event one.  Golden-timing tests in ``tests/test_fastpath.py``
hold both paths to that standard.

Recurrence (0-indexed chunk ``i``, pipeline depth ``d``):

* copy start: ``cursor`` (previous copy end) until the staging pool
  runs dry, then additionally waits for the slot recycled by chunk
  ``i - d``'s ack;
* copy end ``e_i = start + copy.setup + copy.duration()``;
* WR posted ``u_i = e_i + rdma_post_overhead`` (put-return point is
  ``u_{N-1}``);
* the wire is FIFO with capacity 1, so the write transmits at
  ``g_i = max(u_i + write.setup, F_{i-1})`` and completes (bytes
  visible remotely) at ``F_i = g_i + write.duration()``;
* the ack returns at ``A_i = F_i + rdma_ack_latency``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

from repro.cuda.memory import Snapshot
from repro.hardware.links import AnalyticTransfer, LinkDirection, TransferSpec
from repro.simulator import Event, Simulator


@dataclass
class PipelinePlan:
    """Absolute instants of the externally observable pipeline moments."""

    #: Last staging copy complete (source buffer logically drained).
    copy_end: float
    #: Last work request posted — the put-return instant.
    posted: float
    #: Last wire transmission complete — write directions free, all
    #: remote bytes visible.
    wire_release: float
    #: Per-chunk ack arrival instants (remote completion, slot recycle).
    acks: List[float]


def plan_pipeline(
    now: float,
    chunks: Sequence[int],
    depth: int,
    copy_specs: Dict[int, TransferSpec],
    write_specs: Dict[int, TransferSpec],
    post_overhead: float,
    ack_latency: float,
) -> PipelinePlan:
    """Replay the copy/post/transmit/ack recurrence in closed form.

    ``copy_specs`` / ``write_specs`` map chunk size -> spec (a pipeline
    has at most two distinct chunk sizes: full and the short tail).
    """
    acks: List[float] = []
    cursor = now
    posted = now
    wire_free: float = now
    first = True
    for i, csize in enumerate(chunks):
        start = cursor
        if i >= depth and acks[i - depth] > start:
            start = acks[i - depth]
        cspec = copy_specs[csize]
        t = start + cspec.setup
        t = t + cspec.duration()
        cursor = t
        u = t + post_overhead
        posted = u
        wspec = write_specs[csize]
        g = u + wspec.setup
        if not first and wire_free > g:
            g = wire_free
        first = False
        wire_free = g + wspec.duration()
        acks.append(wire_free + ack_latency)
    return PipelinePlan(copy_end=cursor, posted=posted, wire_release=wire_free, acks=acks)


def plan_staged(
    now: float,
    chunks: Sequence[int],
    first_specs: Dict[int, TransferSpec],
    second_specs: Dict[int, TransferSpec],
) -> float:
    """Completion instant of the strictly serial two-copy staging loop
    (``STAGED_HOST_COPY``): chunk copies never overlap, so the end time
    is a plain accumulation of both legs per chunk."""
    t = now
    for csize in chunks:
        s1 = first_specs[csize]
        t = t + s1.setup
        t = t + s1.duration()
        s2 = second_specs[csize]
        t = t + s2.setup
        t = t + s2.duration()
    return t


class AnalyticFlow:
    """Callback-driven closed-form replay of one signaled RDMA write.

    This is the contended-window tier of the analytic engine, committed
    by putmem for its single-RDMA protocols: unlike the
    quiescence-gated planners above, it does *not* require idle links.
    A flow is a post/ack wrapper around one
    :class:`~repro.hardware.links.AnalyticTransfer`, which holds the
    write's path through the very same FIFO link slots the
    event path would — so a link shared by N concurrent flows prices
    its bandwidth-sharing schedule exactly as the event-by-event engine
    does, down to the last ulp.  The flow adds only what a one-sided
    write has on top of the link hold: the post instant, the payload
    snapshot and the posted gate before it; the HCA counters, the
    payload write, the delivery notification and the ack after it.
    What the closed form elides is the *machinery*: no ``Process``
    wrapping putmem's generator per put, no dispatch/lookup/post/ack
    ``Timeout`` allocations — only a handful of absolutely-timed
    wake-ups.

    Timeline (same float operations in the same order as putmem's
    dispatch + ``Verbs.rdma_write`` + ``TransferSpec.execute``):

    * ``t_post = base + rdma_post_overhead`` — payload snapshotted,
      ``posted`` fires (the put-return instant the caller yields on),
      source HCA tx counted, and the transfer is constructed;
    * ``t_end``, the transfer's hold end — target HCA rx counted,
      payload written, delivery notified;
    * ``t_ack = t_end + rdma_ack_latency`` — ``completion`` fires with
      the byte count (what ``shmem_quiet`` waits on).

    Any exception in a timed callback (e.g. a source read racing a
    free, or a ``LinkDown`` from the transfer) fails
    ``posted``/``completion`` at the instant the event path's process
    would have died, so error surfacing is preserved.  The commit site
    gates hard — fastpath on, no span tracer, no health tracker (no
    fault plan) — and declines on any setup-time validation error so
    the event path raises at the accurate instant.
    """

    __slots__ = (
        "sim",
        "spec",
        "src",
        "dst_ptr",
        "nbytes",
        "ack_latency",
        "src_hca",
        "dst_hca",
        "notify",
        "completion",
        "posted",
        "payload",
    )

    def __init__(
        self,
        sim: Simulator,
        spec: TransferSpec,
        src,
        dst_ptr,
        nbytes: int,
        base: float,
        post_overhead: float,
        ack_latency: float,
        src_hca,
        dst_hca,
        notify: Callable[[], None],
    ):
        self.sim = sim
        self.spec = spec
        self.src = src
        self.dst_ptr = dst_ptr
        self.nbytes = nbytes
        self.ack_latency = ack_latency
        self.src_hca = src_hca
        self.dst_hca = dst_hca
        self.notify = notify
        # Completion is a spawned-``Process`` event on the event path,
        # so it is delivered through the scheduler (tie-order rule 2).
        self.completion = Event(sim, name="an-flow:done")
        # The caller-facing posted event, succeeded with a scheduler
        # push at t_post — the same extra hop the event path's
        # ``posted.succeed`` inserts before the caller resumes.
        self.posted = Event(sim, name="an:posted")
        self.payload: Optional[Snapshot] = None
        w = sim.wake_at(base + post_overhead, name="an:post")
        w.callbacks.append(self._at_posted)

    def _die(self, exc: BaseException) -> None:
        if self.payload is not None:
            self.payload.release()
        self.completion.fail(exc)

    def _at_posted(self, _ev: Event) -> None:
        sim = self.sim
        try:
            self.payload = self.src.snapshot(self.nbytes)
        except BaseException as exc:  # surfaces where the event path's would
            self._die(exc)
            # The caller's pending resume defuses and re-raises,
            # mirroring _bridge_failure on the event path's gate.
            self.posted.fail(exc)
            return
        self.posted.succeed(sim.now)
        self.src_hca.count_tx()
        # Constructed here — not at commit — so its setup wake-up draws
        # its scheduler sequence number at the same instant the event
        # path allocates its setup timeout (tie order among same-instant
        # events).
        tr = AnalyticTransfer(sim, self.spec)
        if tr.boot_exc is not None:
            # Zero setup and a direction already down: the event path's
            # write raises here, at the post instant.
            self._die(tr.boot_exc)
            return
        tr.completion.callbacks.append(self._finish)

    def _finish(self, ev: Event) -> None:
        exc = ev._exc
        if exc is not None:
            ev.defuse()
            self._die(exc)
            return
        self.dst_hca.count_rx()
        sim = self.sim
        try:
            self.dst_ptr.write(self.payload)
        except BaseException as exc:
            self._die(exc)
            return
        self.payload.release()
        delivered = Event(sim, name="an:delivered")
        delivered.callbacks.append(self._deliver)
        delivered.succeed(sim.now)
        ack = sim.wake_at(sim.now + self.ack_latency, name="an:ack")
        ack.callbacks.append(self._complete)

    def _deliver(self, _ev: Event) -> None:
        self.notify()

    def _complete(self, _ev: Event) -> None:
        self.completion.succeed(self.nbytes)


def merged_directions(specs: Sequence[TransferSpec]) -> List[LinkDirection]:
    """Union of the specs' hop directions (dedup by identity)."""
    out: List[LinkDirection] = []
    seen = set()
    for spec in specs:
        for d in spec.directions():
            if id(d) not in seen:
                seen.add(id(d))
                out.append(d)
    return out


def claimable(*direction_sets: Sequence[LinkDirection]) -> bool:
    """All directions idle, and no direction appears in two sets (the
    fast paths hold the sets for different windows, so overlap would
    mean double-acquiring a capacity-1 direction)."""
    seen = set()
    for dirs in direction_sets:
        for d in dirs:
            if not d.idle or id(d) in seen:
                return False
            seen.add(id(d))
    return True


def _held(_direction: LinkDirection) -> None:
    """Owner of a claimed slot: the batch needs no word of its grant."""


def claim(dirs: Sequence[LinkDirection]) -> List[LinkDirection]:
    """Synchronously acquire every (idle) direction; returns the holds."""
    for d in dirs:
        d.grant(_held)
    return list(dirs)


def release(holds: Sequence[LinkDirection]) -> None:
    for d in holds:
        d.release()
