"""Two-sided matching engine and the rendezvous pipeline transfer."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, Generator, Optional, Tuple

from repro.cuda.memory import MemKind, Ptr, Snapshot
from repro.errors import ShmemError
from repro.ib.mr import MemoryRegion
from repro.shmem.staging import StagingPool, chunk_stream
from repro.simulator import Event

#: Messages at or below this size (host-resident) use the eager path.
EAGER_LIMIT = 8 * 1024


def _snapshot_copy(dst: Ptr, src: Ptr, nbytes: int) -> Generator:
    """A host chunk copy: a snapshot write, with no copy event."""
    payload = src.snapshot(nbytes)
    dst.write(payload)
    payload.release()
    yield from ()


@dataclass
class _Posted:
    """One posted send or recv awaiting its match."""

    kind: str  # "send" | "recv"
    pe: int
    peer: int
    tag: int
    buf: Ptr
    nbytes: int
    done: Event
    #: Eager sends snapshot their payload at post time (released once
    #: delivered or refused); the sender's buffer is immediately
    #: reusable (its ``done`` fires at post).
    payload: Optional[Snapshot] = None


class MpiWorld:
    """Per-job two-sided state: match queues, staging, registrations."""

    def __init__(self, job):
        self.job = job
        self.sim = job.sim
        self.params = job.params
        self.verbs = job.verbs
        self._sends: Dict[Tuple[int, int, int], Deque[_Posted]] = {}
        self._recvs: Dict[Tuple[int, int, int], Deque[_Posted]] = {}
        self._staging: Dict[int, StagingPool] = {}
        self._rx_staging: Dict[int, StagingPool] = {}
        self._mrs: Dict[int, MemoryRegion] = {}
        self.messages = 0

    def comm(self, ctx) -> "MpiComm":
        return MpiComm(self, ctx)

    # ------------------------------------------------------------ plumbing
    def staging_of(self, pe: int, rx: bool = False) -> StagingPool:
        """Send-side and landing-side pools are separate (deadlock
        avoidance for simultaneous sendrecv in both directions)."""
        pools = self._rx_staging if rx else self._staging
        if pe not in pools:
            kind = "rx" if rx else "tx"
            node_id, _ = self.job.hw.pe_location(pe)
            pools[pe] = StagingPool.host(self.job, node_id, pe, f"mpi.pe{pe}.{kind}-staging")
        return pools[pe]

    def mr_of(self, alloc) -> MemoryRegion:
        mr = self._mrs.get(id(alloc))
        if mr is None:
            mr = MemoryRegion(alloc)
            self._mrs[id(alloc)] = mr
        return mr

    # ------------------------------------------------------------ matching
    def post(self, item: _Posted) -> None:
        """Register a send/recv; fire the transfer when a pair matches."""
        # A send from ``pe`` to ``peer`` matches a recv at ``peer`` from
        # ``pe``; both sides index the queues by (src, dst, tag).
        if item.kind == "send":
            key = (item.pe, item.peer, item.tag)
            queue = self._recvs.setdefault(key, deque())
            if queue:
                recv = queue.popleft()
                self._start(item, recv)
            else:
                self._sends.setdefault(key, deque()).append(item)
        else:
            key = (item.peer, item.pe, item.tag)  # (src, dst, tag)
            queue = self._sends.setdefault(key, deque())
            if queue:
                send = queue.popleft()
                self._start(send, item)
            else:
                self._recvs.setdefault(key, deque()).append(item)

    def _start(self, send: _Posted, recv: _Posted) -> None:
        if recv.nbytes < send.nbytes:
            exc = ShmemError(
                f"MPI truncation: recv of {recv.nbytes} B matched a "
                f"send of {send.nbytes} B (src {send.pe} -> dst {recv.pe})"
            )
            if send.payload is not None:
                send.payload.release()
            if not send.done.triggered:
                send.done.fail(exc)
            recv.done.fail(exc)
            return
        self.messages += 1
        self.sim.process(
            self._transfer(send, recv), name=f"mpi:{send.pe}->{recv.pe}"
        )

    # ------------------------------------------------------------ transfer
    def _transfer(self, send: _Posted, recv: _Posted) -> Generator:
        """Move one matched message; a failure fails the posted events,
        not the process (which would abort the whole run)."""
        p = self.params
        sim = self.sim
        job = self.job
        src_ep = self.verbs_endpoint(send.pe)
        same_node = job.hw.same_node(send.pe, recv.pe)
        gpu_involved = MemKind.DEVICE in (send.buf.kind, recv.buf.kind)
        try:
            if send.payload is not None:
                # Eager path: the payload was snapshotted at post; deliver it.
                try:
                    if same_node:
                        yield from job.hw.node_of(send.pe).pcie.host_copy(send.nbytes).execute(sim)
                    else:
                        yield from self.verbs.post_send(src_ep, self.verbs_endpoint(recv.pe), send.payload)
                        # drain the matched message from the endpoint queue
                        self.verbs_endpoint(recv.pe).recv_nowait()
                    recv.buf.write(send.payload)
                finally:
                    send.payload.release()
            else:
                # Rendezvous round-trip for anything past the eager limit or
                # touching GPU memory (MVAPICH2-GPU behaviour for device buffers).
                if send.nbytes > EAGER_LIMIT or gpu_involved:
                    rtt_wire = 0.0 if same_node else p.ib_wire_latency
                    yield sim.timeout(2 * (p.rdma_post_overhead + rtt_wire), name="mpi:rendezvous")
                if same_node:
                    # Intra-node: one staged/IPC copy issued on the sender's side.
                    yield from job.contexts[send.pe].cuda.memcpy(recv.buf, send.buf, send.nbytes)
                elif not gpu_involved:
                    # Host-host: single RDMA write into the recv buffer.
                    mr = self.mr_of(recv.buf.alloc)
                    yield from self.verbs.rdma_write(src_ep, send.buf, mr, recv.buf.offset, send.nbytes)
                else:
                    yield from self._pipeline(send, recv, src_ep)
        except Exception as exc:  # noqa: BLE001 — any failure fails the message
            for done in (send.done, recv.done):
                if not done.triggered:
                    done.fail(exc)
            return
        if not send.done.triggered:
            send.done.succeed(sim.now)
        recv.done.succeed(sim.now)

    def _pipeline(self, send: _Posted, recv: _Posted, src_ep) -> Generator:
        """Inter-node GPU pipeline: D2H -> IB -> H2D, chunked.  The last
        H2D is charged to the receiver, which sits blocked in recv."""
        sim = self.sim
        src_pool = self.staging_of(send.pe)
        dst_pool = self.staging_of(recv.pe, rx=True)
        ctxs = self.job.contexts
        stage = ctxs[send.pe].cuda.memcpy if send.buf.kind is MemKind.DEVICE else _snapshot_copy
        unstage = ctxs[recv.pe].cuda.memcpy if recv.buf.kind is MemKind.DEVICE else _snapshot_copy

        def land(sslot, dslot, offset, csize, ev) -> Generator:
            try:
                try:
                    yield from self.verbs.rdma_write(src_ep, sslot.ptr, dst_pool.mr, dslot.offset, csize)
                finally:
                    src_pool.release(sslot)
                try:
                    yield from unstage(recv.buf + offset, dslot.ptr, csize)
                finally:
                    dst_pool.release(dslot)
                ev.succeed()
            except Exception as exc:  # noqa: BLE001 — the chunk's event carries it
                ev.fail(exc)

        def tail(_src, sslot, offset, csize) -> Generator:
            dslot = yield from dst_pool.acquire()
            ev = sim.event("mpi:chunk")
            ev.defuse()  # observed via the all_of below, never raw
            sim.process(land(sslot, dslot, offset, csize, ev), name="mpi:chunk")
            return ev

        chunk_events = yield from chunk_stream(
            send.nbytes, self.params.pipeline_chunk, send.buf, tail, (src_pool, stage)
        )
        # Sender done: its buffer is drained after the last D2H stage.
        send.done.succeed(sim.now)
        yield sim.all_of(chunk_events)

    def verbs_endpoint(self, pe: int):
        return self.job.runtime.endpoints[pe]


class MpiComm:
    """Per-PE two-sided API (a tiny mpi4py-flavoured surface)."""

    def __init__(self, world: MpiWorld, ctx):
        self.world = world
        self.ctx = ctx
        self.rank = ctx.pe
        self.size = ctx.npes

    def _check_peer(self, peer: int) -> None:
        if not 0 <= peer < self.size:
            raise ShmemError(f"MPI peer {peer} out of range (size={self.size})")

    def isend(self, buf: Ptr, nbytes: int, dst: int, tag: int = 0) -> Event:
        """Non-blocking send; the returned event fires when the send
        buffer is reusable.

        Small host-resident messages take the *eager* path: the payload
        is snapshotted at post time and the send completes immediately,
        matching MPI eager-protocol semantics (and making out-of-order
        tag matching deadlock-free, as in real MPI)."""
        self._check_peer(dst)
        done = self.world.sim.event(f"mpi:send:{self.rank}->{dst}")
        item = _Posted("send", self.rank, dst, tag, buf, nbytes, done)
        if nbytes <= EAGER_LIMIT and buf.kind is not MemKind.DEVICE:
            item.payload = buf.snapshot(nbytes)
            done.succeed(self.world.sim.now)
        self.world.post(item)
        return done

    def irecv(self, buf: Ptr, nbytes: int, src: int, tag: int = 0) -> Event:
        """Non-blocking recv; the returned event fires on delivery."""
        self._check_peer(src)
        done = self.world.sim.event(f"mpi:recv:{self.rank}<-{src}")
        self.world.post(_Posted("recv", self.rank, src, tag, buf, nbytes, done))
        return done

    def send(self, buf: Ptr, nbytes: int, dst: int, tag: int = 0) -> Generator:
        """Blocking send (returns when the buffer is reusable)."""
        ev = self.isend(buf, nbytes, dst, tag)
        yield self.world.sim.timeout(self.world.params.shmem_dispatch_overhead)
        yield ev
        return None

    def recv(self, buf: Ptr, nbytes: int, src: int, tag: int = 0) -> Generator:
        """Blocking receive."""
        ev = self.irecv(buf, nbytes, src, tag)
        yield self.world.sim.timeout(self.world.params.shmem_dispatch_overhead)
        yield ev
        return None

    def sendrecv(
        self,
        sendbuf: Ptr,
        send_nbytes: int,
        dst: int,
        recvbuf: Ptr,
        recv_nbytes: int,
        src: int,
        tag: int = 0,
    ) -> Generator:
        """Simultaneous send+recv, the halo-exchange staple."""
        sev = self.isend(sendbuf, send_nbytes, dst, tag)
        rev = self.irecv(recvbuf, recv_nbytes, src, tag)
        yield self.world.sim.timeout(self.world.params.shmem_dispatch_overhead)
        yield self.world.sim.all_of([sev, rev])
        return None

    def waitall(self, events) -> Generator:
        live = [ev for ev in events if not ev.processed]
        if live:
            yield self.world.sim.all_of(live)
        return None

    # --------------------------------------------- MPI-over-SHMEM shim
    # The capitalised surface routes through the OpenSHMEM runtime's
    # two-sided engine (:mod:`repro.msg`) instead of this module's
    # private matching: same wildcard semantics, same eager/rendezvous
    # split, same RC/UD wire paths the crossover studies sweep.  The
    # lowercase API above keeps its original independent behaviour
    # (and timing — fig12 pins it).

    def MPI_Isend(self, buf: Ptr, nbytes: int, dst: int, tag: int = 0) -> Event:
        """``MPI_Isend`` over the SHMEM runtime's msg engine."""
        self._check_peer(dst)
        return self.ctx.isend(buf, nbytes, dst, tag)

    def MPI_Irecv(
        self, buf: Ptr, nbytes: int, src: Optional[int] = None, tag: Optional[int] = None
    ) -> Event:
        """``MPI_Irecv``; ``src=None``/``tag=None`` are
        ``MPI_ANY_SOURCE``/``MPI_ANY_TAG``.  The event's value is the
        matched ``(source, tag)`` envelope (the status object)."""
        if src is not None:
            self._check_peer(src)
        return self.ctx.irecv(buf, nbytes, src, tag)

    def MPI_Send(self, buf: Ptr, nbytes: int, dst: int, tag: int = 0) -> Generator:
        """Blocking ``MPI_Send`` over the SHMEM runtime's msg engine."""
        self._check_peer(dst)
        yield from self.ctx.send(buf, nbytes, dst, tag)
        return None

    def MPI_Recv(
        self, buf: Ptr, nbytes: int, src: Optional[int] = None, tag: Optional[int] = None
    ) -> Generator:
        """Blocking ``MPI_Recv``; returns the ``(source, tag)`` envelope."""
        if src is not None:
            self._check_peer(src)
        envelope = yield from self.ctx.recv(buf, nbytes, src, tag)
        return envelope
