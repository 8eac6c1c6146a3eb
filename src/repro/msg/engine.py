"""Tag/source matching and the eager/rendezvous protocol pair.

:class:`TwoSided` is the posting and matching front end of both
two-sided engines: :class:`MsgEngine` here and the lowercase MPI
baseline (:class:`repro.mpi.MpiWorld`).  Each engine keeps its own
instance of that state and adds only how a matched message moves.

Matching follows MPI rules: a receive names a source (or
:data:`ANY_SOURCE`) and a tag (or :data:`ANY_TAG`); posted receives are
scanned in post order and the first compatible one wins, so
same-(source, tag) traffic is non-overtaking.  Unmatched sends park in
an unexpected-message list, also drained in post order.

Two protocols, split at ``params.msg_eager_threshold``:

* **eager** — the payload is snapshotted at post time, the send
  completes immediately, and delivery copies through a pre-registered
  host bounce slot at the receiver (one extra copy, zero handshake).
  Device-resident *source* buffers never take this path (the snapshot
  copy cannot complete synchronously at post), mirroring CUDA-aware
  MPI.
* **rendezvous** — an RTS/CTS control round-trip first (spans
  ``msg_rts``/``msg_cts``), then a zero-copy transfer straight between
  the user buffers: one RDMA write on the RC route, or MTU-segmented
  datagrams staged through bounce slots on the UD route.

Transport is chosen per route (``set_route``): "rc" rides the existing
:class:`~repro.ib.verbs.Verbs` paths (and therefore the RC retry
engine under faults); "ud" rides :class:`~repro.ib.ud.UDTransport`,
where faults *drop* packets and :meth:`UDTransport.send`'s resend
loop, above the datagrams it posts, restores them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Generator, List, Optional, Tuple

from repro.cuda.api import CudaContext
from repro.cuda.memory import MemKind, Ptr, Snapshot
from repro.errors import CompletionError, LinkDown, ShmemError
from repro.ib.mr import MemoryRegion
from repro.ib.ud import UDTransport
from repro.shmem.staging import StagingPool, chunk_stream
from repro.simulator import Event

#: Wildcard source for :meth:`MsgEngine.irecv` (matches any sender).
ANY_SOURCE = -1
#: Wildcard tag for :meth:`MsgEngine.irecv` (matches any tag).
ANY_TAG = -1

_TRANSPORTS = ("rc", "ud")


@dataclass
class Posted:
    """One posted two-sided send or recv awaiting its match."""

    kind: str  # "send" | "recv"
    pe: int
    peer: int  # send: destination; recv: source filter (may be ANY_SOURCE)
    tag: int  # recv side may be ANY_TAG
    buf: Ptr
    nbytes: int
    done: Event
    transport: str = "rc"  # send side only
    #: Eager sends snapshot their payload at post time; released once
    #: delivered, refused or failed.
    payload: Optional[Snapshot] = None


class TwoSided:
    """The two-sided front end both engines share: posting, matching,
    the truncation check, failure routing, and the per-(PE, kind) host
    pools and per-allocation registrations.

    A subclass sets :attr:`name` (the prefix of its event, process and
    pool names) and :attr:`eager_limit`, and supplies ``_transfer(send,
    recv)``, the generator that moves one matched message.
    """

    name: str
    #: Host-resident sends at or below this size snapshot their payload
    #: at post and complete at once.
    eager_limit: int

    def __init__(self, job):
        self.job = job
        self.sim = job.sim
        self.params = job.params
        self.verbs = job.verbs
        #: Unmatched sends / posted receives, per destination PE, in
        #: post order (the order matching scans).
        self._unexpected: Dict[int, List[Posted]] = {}
        self._posted: Dict[int, List[Posted]] = {}
        self._pools: Dict[Tuple[int, str], StagingPool] = {}
        #: Registrations of the buffers rendezvous wrote into, by
        #: ``id(alloc)``; an allocation leaves as it is freed.
        self._mrs: Dict[int, MemoryRegion] = {}
        job.space.on_free.append(self._forget_mr)
        self.messages = 0

    # ---------------------------------------------------------------- plumbing
    def _endpoint(self, pe: int):
        return self.job.runtime.endpoints[pe]

    def _host_pool(self, pe: int, kind: str) -> StagingPool:
        """PE ``pe``'s ``"tx"`` or ``"rx"`` host pool: separate pools
        per side keep simultaneous exchanges in both directions from
        deadlocking on each other's slots."""
        pool = self._pools.get((pe, kind))
        if pool is None:
            node_id, _ = self.job.hw.pe_location(pe)
            pool = StagingPool.host(self.job, node_id, pe, f"{self.name}.pe{pe}.{kind}-bounce")
            self._pools[(pe, kind)] = pool
        return pool

    def _mr_of(self, alloc) -> MemoryRegion:
        """``alloc``'s registration, made on its first use (the memo
        charges no time).  A freed allocation is never kept: the memo
        drops it as it is freed (:meth:`_forget_mr`) and never takes it
        in after, so no entry outlives its buffer."""
        mr = self._mrs.get(id(alloc))
        if mr is None:
            mr = MemoryRegion(alloc)
            if not alloc.freed:
                self._mrs[id(alloc)] = mr
        return mr

    def _forget_mr(self, alloc) -> None:
        self._mrs.pop(id(alloc), None)

    # ---------------------------------------------------------------- posting
    def post_send(
        self, pe: int, buf: Ptr, nbytes: int, dst: int, tag: int, transport: str = "rc"
    ) -> Event:
        """Post a send; the event fires when the buffer is reusable (at
        once for an eager send, whose payload is already snapshotted)."""
        sim = self.sim
        done = sim.event(f"{self.name}:send:{pe}->{dst}")
        item = Posted("send", pe, dst, tag, buf, nbytes, done, transport)
        if nbytes <= self.eager_limit and buf.kind is not MemKind.DEVICE:
            item.payload = buf.snapshot(nbytes)
            done.succeed(sim.now)
        self._match(item)
        return done

    def post_recv(self, pe: int, buf: Ptr, nbytes: int, src: int, tag: int) -> Event:
        """Post a receive; the event fires on delivery."""
        done = self.sim.event(f"{self.name}:recv:{pe}<-{src}")
        self._match(Posted("recv", pe, src, tag, buf, nbytes, done))
        return done

    # ---------------------------------------------------------------- matching
    def _match(self, item: Posted) -> None:
        """Start ``item`` with the first compatible opposite entry
        queued at its destination, scanning in post order, or queue it
        there."""
        is_send = item.kind == "send"
        dst = item.peer if is_send else item.pe
        waiting = (self._posted if is_send else self._unexpected).get(dst)
        if waiting:
            for i, other in enumerate(waiting):
                send, recv = (item, other) if is_send else (other, item)
                if self._compatible(send, recv):
                    del waiting[i]
                    self._start(send, recv)
                    return
        (self._unexpected if is_send else self._posted).setdefault(dst, []).append(item)

    @staticmethod
    def _compatible(send: Posted, recv: Posted) -> bool:
        return recv.peer in (ANY_SOURCE, send.pe) and recv.tag in (ANY_TAG, send.tag)

    def _start(self, send: Posted, recv: Posted) -> None:
        if recv.nbytes < send.nbytes:
            self._fail(send, recv, ShmemError(
                f"{self.name} truncation: recv of {recv.nbytes} B matched a send of "
                f"{send.nbytes} B (src {send.pe} -> dst {recv.pe}, tag {send.tag})"
            ))
            return
        self.messages += 1
        self.sim.process(
            self._guarded(self._transfer(send, recv), send, recv),
            name=f"{self.name}:{send.pe}->{recv.pe}",
        )

    @staticmethod
    def _fail(send: Posted, recv: Posted, exc: Exception) -> None:
        """Release an eager payload and fail whichever side is still
        waiting."""
        if send.payload is not None:
            send.payload.release()
        for done in (send.done, recv.done):
            if not done.triggered:
                done.fail(exc)

    def _guarded(self, body: Generator, send: Posted, recv: Posted) -> Generator:
        """Route transfer failures (UD delivery exhaustion, link loss)
        into the posted events instead of killing the process."""
        try:
            yield from body
        except Exception as exc:  # noqa: BLE001 — any failure fails the message
            self._fail(send, recv, exc)


class MsgEngine(TwoSided):
    """Per-job two-sided state: match lists, bounce pools, UD transport."""

    name = "msg"

    def __init__(self, job):
        super().__init__(job)
        self.ud = UDTransport(job.verbs)
        #: Route-level transport selection; falls back to
        #: :attr:`default_transport` for unlisted (src, dst) pairs.
        self.default_transport = "rc"
        self._routes: Dict[Tuple[int, int], str] = {}
        #: Matched pairs in match order — one
        #: ``(dst, src, tag, nbytes, protocol, transport, now)`` tuple
        #: per message.  Identical across the analytic, event, and
        #: traced engines (the determinism tests pin this).
        self.match_log: List[Tuple[int, int, int, int, str, str, float]] = []
        self.eager = 0
        self.rendezvous = 0

    # ----------------------------------------------------------- configuration
    @property
    def eager_limit(self) -> int:
        """Effective eager cutover: the tunable threshold, capped by the
        bounce-slot size (an eager payload must fit one slot)."""
        return min(self.params.msg_eager_threshold, self.params.pipeline_chunk)

    def set_route(self, src: int, dst: int, transport: str) -> None:
        """Pin the transport for messages from ``src`` to ``dst``."""
        if transport not in _TRANSPORTS:
            raise ShmemError(
                f"unknown msg transport {transport!r} (expected one of {_TRANSPORTS})"
            )
        self._routes[(src, dst)] = transport

    def transport_for(self, src: int, dst: int) -> str:
        return self._routes.get((src, dst), self.default_transport)

    def _check_pe(self, pe: int) -> None:
        if not 0 <= pe < self.job.npes:
            raise ShmemError(f"msg peer {pe} out of range (npes={self.job.npes})")

    # ---------------------------------------------------------------- posting
    def isend(
        self,
        src_pe: int,
        buf: Ptr,
        nbytes: int,
        dst: int,
        tag: int = 0,
        transport: Optional[str] = None,
    ) -> Event:
        """Post a send; the event fires when the buffer is reusable.

        Eager sends (host-resident, at or below :attr:`eager_limit`)
        complete immediately — the payload is already snapshotted.
        """
        self._check_pe(dst)
        if tag < 0:
            raise ShmemError(f"send tag must be non-negative, got {tag}")
        if transport is not None and transport not in _TRANSPORTS:
            raise ShmemError(
                f"unknown msg transport {transport!r} (expected one of {_TRANSPORTS})"
            )
        return self.post_send(
            src_pe, buf, nbytes, dst, tag, transport or self.transport_for(src_pe, dst)
        )

    def irecv(
        self,
        dst_pe: int,
        buf: Ptr,
        nbytes: int,
        src: int = ANY_SOURCE,
        tag: int = ANY_TAG,
    ) -> Event:
        """Post a receive; the event fires on delivery with value
        ``(source, tag)`` — the matched envelope, which wildcard
        receivers need to learn who actually sent."""
        if src != ANY_SOURCE:
            self._check_pe(src)
        return self.post_recv(dst_pe, buf, nbytes, src, tag)

    def _transfer(self, send: Posted, recv: Posted) -> Generator:
        """Count the match and pick its protocol."""
        sim = self.sim
        eager = send.payload is not None
        if eager:
            self.eager += 1
            sim.stats.msg_eager += 1
        else:
            self.rendezvous += 1
            sim.stats.msg_rendezvous += 1
        self.match_log.append((
            recv.pe, send.pe, send.tag, send.nbytes,
            "eager" if eager else "rendezvous", send.transport, sim.now,
        ))
        return self._eager(send, recv) if eager else self._rendezvous(send, recv)

    # ------------------------------------------------------------- eager path
    def _eager(self, send: Posted, recv: Posted) -> Generator:
        sim = self.sim
        p = self.params
        job = self.job
        payload = send.payload
        same_node = job.hw.same_node(send.pe, recv.pe)
        pool = self._host_pool(recv.pe, "rx")
        slot = yield from pool.acquire()
        try:
            if same_node:
                # Into the receiver's bounce slot via shared host memory.
                spec = job.hw.node_of(send.pe).pcie.host_copy(send.nbytes)
                yield from spec.execute(sim)
            elif send.transport == "ud":
                yield from self.ud.send(
                    self._endpoint(send.pe), self._endpoint(recv.pe), send.nbytes
                )
            else:
                yield from self.verbs.post_send(
                    self._endpoint(send.pe), self._endpoint(recv.pe), payload
                )
                self._endpoint(recv.pe).recv_nowait()
                # RC completes reliably: the delivery ack crosses back
                # before the message is surfaced (UD never pays this).
                yield sim.timeout(p.rdma_ack_latency, name="msg:rc-ack")
            slot.ptr.write(payload)
            # Copy out of the bounce slot into the posted buffer — the
            # extra copy that defines the eager protocol.
            if recv.buf.kind is MemKind.DEVICE:
                yield from job.contexts[recv.pe].cuda.memcpy(
                    recv.buf, slot.ptr, send.nbytes
                )
            else:
                spec = job.hw.node_of(recv.pe).pcie.host_copy(send.nbytes)
                yield from spec.execute(sim)
        finally:
            pool.release(slot)
        recv.buf.write(payload)
        payload.release()
        recv.done.succeed((send.pe, send.tag))

    # -------------------------------------------------------- rendezvous path
    def _rendezvous(self, send: Posted, recv: Posted) -> Generator:
        sim = self.sim
        p = self.params
        job = self.job
        tracer = sim.tracer
        same_node = job.hw.same_node(send.pe, recv.pe)
        rtt_wire = 0.0 if same_node else p.ib_wire_latency

        # RTS (sender -> receiver) then CTS back: one control message
        # each way, priced as a post + wire crossing.  Spans are
        # recorded post-hoc so tracing stays timing-neutral.
        t0 = sim.now
        yield sim.timeout(p.rdma_post_overhead + rtt_wire, name="msg:rts")
        if tracer is not None:
            tracer.complete(
                sim, "msg_rts", "msg", f"msg:pe{send.pe}", t0,
                nbytes=p.msg_rts_bytes, target_pe=recv.pe,
            )
        t1 = sim.now
        yield sim.timeout(p.rdma_post_overhead + rtt_wire, name="msg:cts")
        if tracer is not None:
            tracer.complete(
                sim, "msg_cts", "msg", f"msg:pe{recv.pe}", t1,
                nbytes=p.msg_rts_bytes, target_pe=send.pe,
            )

        payload = send.buf.snapshot(send.nbytes)
        try:
            if same_node:
                yield from job.contexts[send.pe].cuda.memcpy(
                    recv.buf, send.buf, send.nbytes
                )
            elif send.transport == "ud":
                yield from self._ud_staged(send, recv)
            else:
                yield from self._rc_bulk(send, recv)
            recv.buf.write(payload)
        finally:
            payload.release()
        send.done.succeed(sim.now)
        recv.done.succeed((send.pe, send.tag))

    def _gdr_degraded(self, send: Posted, recv: Posted) -> bool:
        rt = self.job.runtime
        return (
            (send.buf.kind is MemKind.DEVICE
             and rt.gpu_leg_unhealthy(send.pe, "gdrP2Pread"))
            or (recv.buf.kind is MemKind.DEVICE
                and rt.gpu_leg_unhealthy(recv.pe, "gdrP2Pwrite"))
        )

    def _rc_bulk(self, send: Posted, recv: Posted) -> Generator:
        """Rendezvous bulk data over RC: a zero-copy RDMA write straight
        into the posted buffer (GDR legs price device residency on
        either side), riding the same health ladder as one-sided puts —
        steer off a down/degraded gdrP2P leg before posting, and replay
        through host staging if the write dies even after RC retries.
        The replay is idempotent: the payload lands whole via
        ``recv.buf.write`` after delivery, so a torn first attempt
        cannot leak."""
        if self._gdr_degraded(send, recv):
            self.sim.stats.failovers += 1
            yield from self._rc_staged(send, recv)
            return
        mr = self._mr_of(recv.buf.alloc)
        try:
            yield from self.verbs.rdma_write(
                self._endpoint(send.pe), send.buf, mr,
                recv.buf.offset, send.nbytes,
            )
        except (LinkDown, CompletionError):
            if (send.buf.kind is not MemKind.DEVICE
                    and recv.buf.kind is not MemKind.DEVICE):
                raise  # no GDR leg involved — staging cannot help
            self.sim.stats.failovers += 1
            yield from self._rc_staged(send, recv)

    def _rc_staged(self, send: Posted, recv: Posted) -> Generator:
        """Health failover for rendezvous bulk data: chunk device
        payloads through host bounce slots (cudaMemcpy legs survive
        ``gdrP2P``-scoped faults) and move each chunk with plain RC
        send/recv over the host path."""
        yield from self._staged(send, recv, self._rc_chunk, self.job.runtime.reliable_memcpy)

    def _rc_chunk(self, src_ep, dst_ep, csize: int) -> Generator:
        yield from self.verbs.post_send(src_ep, dst_ep, bytes(csize))
        dst_ep.recv_nowait()
        yield self.sim.timeout(self.params.rdma_ack_latency, name="msg:rc-staged-ack")

    def _ud_staged(self, send: Posted, recv: Posted) -> Generator:
        """UD bulk data: chunk through host bounce slots on both sides.

        Datagrams cannot RDMA into registered user memory, so device
        payloads cross PCIe through staging — store-and-forward, chunk
        by chunk.  This is precisely why UD loses the crossover at
        large sizes.
        """
        # Bounce-slot copy legs without the RC retry ladder.
        yield from self._staged(send, recv, self.ud.send, CudaContext.memcpy)

    def _staged(self, send: Posted, recv: Posted, wire, copy) -> Generator:
        """The store-and-forward chunk loop: a device payload's chunk
        is copied into a sender bounce slot with ``copy(cuda, dst, src,
        nbytes)``, crosses with ``wire(src_ep, dst_ep, nbytes)`` into a
        receiver bounce slot, and is copied out to a device buffer."""
        job = self.job
        src_ep, dst_ep = self._endpoint(send.pe), self._endpoint(recv.pe)
        src_cuda, dst_cuda = job.contexts[send.pe].cuda, job.contexts[recv.pe].cuda
        tx_pool = self._host_pool(send.pe, "tx")
        rx_pool = self._host_pool(recv.pe, "rx")

        def forward(_src, sslot, offset, csize) -> Generator:
            dslot = yield from rx_pool.acquire()
            try:
                yield from wire(src_ep, dst_ep, csize)
                if recv.buf.kind is MemKind.DEVICE:
                    yield from copy(dst_cuda, recv.buf + offset, dslot.ptr, csize)
            finally:
                rx_pool.release(dslot)
                if sslot is not None:
                    tx_pool.release(sslot)

        stage = (tx_pool, partial(copy, src_cuda)) if send.buf.kind is MemKind.DEVICE else None
        yield from chunk_stream(send.nbytes, self.params.pipeline_chunk, send.buf, forward, stage)
