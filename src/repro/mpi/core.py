"""The Fig 12 baseline's transfer over the shared two-sided front end.

Posting, matching, the truncation check and failure routing are
:class:`repro.msg.engine.TwoSided`'s; this module keeps only how a
matched lowercase-API message moves (the 8 KiB eager limit, the
rendezvous round-trip and the host-staged GPU pipeline) and the
:class:`MpiComm` surface.
"""

from __future__ import annotations

from typing import Generator

from repro.cuda.memory import MemKind, Ptr
from repro.errors import ShmemError
from repro.msg.engine import Posted, TwoSided
from repro.shmem.staging import chunk_stream
from repro.simulator import Event

#: Messages at or below this size (host-resident) use the eager path.
EAGER_LIMIT = 8 * 1024


def _snapshot_copy(dst: Ptr, src: Ptr, nbytes: int) -> Generator:
    """A host chunk copy: a snapshot write, with no copy event."""
    payload = src.snapshot(nbytes)
    dst.write(payload)
    payload.release()
    yield from ()


class MpiWorld(TwoSided):
    """Per-job lowercase-MPI state: its own match lists, pools and
    registrations, and the baseline's transfer."""

    name = "mpi"
    eager_limit = EAGER_LIMIT

    def comm(self, ctx) -> "MpiComm":
        return MpiComm(self, ctx)

    # ------------------------------------------------------------ transfer
    def _transfer(self, send: Posted, recv: Posted) -> Generator:
        """Move one matched message (a failure reaches the posted
        events through ``_guarded``)."""
        p = self.params
        sim = self.sim
        job = self.job
        src_ep = self._endpoint(send.pe)
        same_node = job.hw.same_node(send.pe, recv.pe)
        gpu_involved = MemKind.DEVICE in (send.buf.kind, recv.buf.kind)
        if send.payload is not None:
            # Eager path: the payload was snapshotted at post; deliver it.
            if same_node:
                yield from job.hw.node_of(send.pe).pcie.host_copy(send.nbytes).execute(sim)
            else:
                yield from self.verbs.post_send(src_ep, self._endpoint(recv.pe), send.payload)
                # drain the matched message from the endpoint queue
                self._endpoint(recv.pe).recv_nowait()
            recv.buf.write(send.payload)
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
                mr = self._mr_of(recv.buf.alloc)
                yield from self.verbs.rdma_write(src_ep, send.buf, mr, recv.buf.offset, send.nbytes)
            else:
                yield from self._pipeline(send, recv, src_ep)
        if not send.done.triggered:
            send.done.succeed(sim.now)
        recv.done.succeed(sim.now)

    def _pipeline(self, send: Posted, recv: Posted, src_ep) -> Generator:
        """Inter-node GPU pipeline: D2H -> IB -> H2D, chunked.  The last
        H2D is charged to the receiver, which sits blocked in recv."""
        sim = self.sim
        src_pool = self._host_pool(send.pe, "tx")
        dst_pool = self._host_pool(recv.pe, "rx")
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
        return self.world.post_send(self.rank, buf, nbytes, dst, tag)

    def irecv(self, buf: Ptr, nbytes: int, src: int, tag: int = 0) -> Event:
        """Non-blocking recv; the returned event fires on delivery."""
        self._check_peer(src)
        return self.world.post_recv(self.rank, buf, nbytes, src, tag)

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
