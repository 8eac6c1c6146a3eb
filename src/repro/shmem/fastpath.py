"""Closed-form commits that stand in for event-by-event transfers.

Two tiers live here, both bit-identical to the event path (the
golden-timing tests in ``tests/test_fastpath.py`` hold them to it):

* **Tier 0** (:func:`plan_staged`, committed by
  ``Runtime._fast_staged``): the baseline's serial two-copy staging
  loop (``STAGED_HOST_COPY``).  When the simulation is *quiescent* at
  dispatch (:meth:`~repro.simulator.Simulator.quiescent`: ready queue
  and event heap both empty), the loop's completion instant is a plain
  accumulation of each chunk's two copies, so the batch claims the
  idle directions (:func:`claim`), schedules one absolute wake-up and
  releases them there.  It performs the same float operations in the
  same order as the event path; ``TransferSpec.duration()`` exists for
  exactly this reason.
* **Tier 2** (:class:`AnalyticFlow`, committed by putmem): one
  signaled RDMA write, replayed through callbacks on the same FIFO
  link slots the event path holds, so it does not need quiescence.

Every other chunked protocol (Pipeline-GDR-write puts, proxy gets,
the host pipeline) runs on the event path only, through
:func:`repro.shmem.staging.chunk_stream`.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.cuda.memory import Snapshot
from repro.hardware.links import AnalyticTransfer, LinkDirection, TransferSpec
from repro.simulator import Event, Simulator


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
    quiescence-gated tier 0 above, it does *not* require idle links.
    A flow is a post/ack wrapper around one
    :class:`~repro.hardware.links.AnalyticTransfer`, which holds the
    write's path through the very same FIFO link slots the
    event path would — so a link shared by N concurrent flows prices
    its bandwidth-sharing schedule exactly as the event-by-event engine
    does, down to the last ulp.  The flow adds only what a one-sided
    write has on top of the link hold: the post instant, the payload
    snapshot and the posted gate before it; the HCA counters, the
    payload write, the delivery notification and the ack after it.
    What the closed form elides is the *machinery*: no resume of
    putmem's generator per put and no issue wake-up — only a handful
    of absolutely-timed heap calls
    (:meth:`~repro.simulator.Simulator.call_at`), no Event built for
    any of them.

    Timeline (same float operations in the same order as putmem's
    issue wake-up + :class:`~repro.ib.verbs.RdmaWrite`):

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
        # Completion is the caller-posted write's own event on the event
        # path, delivered through the scheduler (tie-order rule 2).
        self.completion = Event(sim, name="an-flow:done")
        # The caller-facing posted event, succeeded with a scheduler
        # push at t_post — the same extra hop the event path's
        # ``posted.succeed`` inserts before the caller resumes.
        self.posted = Event(sim, name="an:posted")
        self.payload: Optional[Snapshot] = None
        sim.call_at(base + post_overhead, self._at_posted)

    def _die(self, exc: BaseException) -> None:
        if self.payload is not None:
            self.payload.release()
        self.completion.fail(exc)

    def _at_posted(self, _arg) -> None:
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
        sim.call_at(sim.now, self._deliver)
        sim.call_at(sim.now + self.ack_latency, self._complete)

    def _deliver(self, _arg) -> None:
        self.notify()

    def _complete(self, _arg) -> None:
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
