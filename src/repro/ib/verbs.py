"""Queue-pair level operations: RDMA write/read, send/recv, atomics.

All operations in this module follow the same template: charge the
posting CPU cost, traverse the source PCIe leg, the fabric, and the
destination PCIe leg, then touch real bytes.  The RDMA write runs as
a callback machine, :class:`RdmaWrite` (a put posts it without a
process of its own); ``rdma_write`` is its generator face.  The PCIe
legs are where GPUDirect RDMA lives — a device-memory buffer routes through
:meth:`~repro.hardware.pcie.PCIeTopology.p2p` with Table III rates,
a host buffer through the HCA's ordinary DMA engine at FDR rate.

Completion semantics:

* ``rdma_write``  — generator returns after the remote bytes are
  visible **and** the hardware ack reached the source (a *signaled*
  completion, what ``shmem_quiet`` waits for).
* ``rdma_read``   — returns once the data landed in the local buffer.
* ``post_send`` / ``recv`` — two-sided; the payload is delivered into
  the target endpoint's receive queue and must be matched by ``recv``.
* ``fetch_add`` / ``compare_swap`` — execute in the target HCA's
  atomics unit; the target CPU is never involved (§III-D).
"""

from __future__ import annotations

from typing import Dict, Generator, Optional, Tuple

from repro.cuda.memory import MemKind, Ptr
from repro.errors import IBError
from repro.hardware.cluster import ClusterHardware
from repro.hardware.links import AnalyticTransfer, TransferSpec
from repro.ib.mr import MemoryRegion
from repro.simulator import Event, Simulator, Store


class Endpoint:
    """A (process, HCA) attachment point — loosely a connected QP set."""

    __slots__ = ("verbs", "node_id", "hca_id", "owner", "node", "hca", "_recv_queue")

    def __init__(self, verbs: "Verbs", node_id: int, hca_id: int, owner: int):
        self.verbs = verbs
        self.node_id = node_id
        self.hca_id = hca_id
        self.owner = owner
        #: The node and HCA, fixed once the cluster is built; every
        #: work request reads them.
        self.node = verbs.hw.nodes[node_id]
        self.hca = self.node.hcas[hca_id]
        self._recv_queue: Store = Store(verbs.sim, name=f"ep(n{node_id}.h{hca_id}.pe{owner}).rq")

    def recv(self) -> Generator:
        """Block until a send arrives; returns ``(source_owner, payload)``."""
        item = yield self._recv_queue.get()
        return item

    def recv_nowait(self) -> Optional[Tuple[int, bytes]]:
        return self._recv_queue.get_nowait()

    @property
    def pending_recvs(self) -> int:
        return len(self._recv_queue)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Endpoint n{self.node_id}.hca{self.hca_id} pe{self.owner}>"


class Verbs:
    """Cluster-wide verbs provider (one instance per simulation)."""

    def __init__(self, hw: ClusterHardware):
        self.hw = hw
        self.sim: Simulator = hw.sim
        self.params = hw.params
        #: Reliable transport (:class:`repro.ib.rc.RCTransport`), set by
        #: the fault injector.  ``None`` means the plain single-attempt
        #: path: ``_execute`` hands back the raw transfer generator.
        self.rc = None
        #: :meth:`write_path` memo, keyed by the remote region's rkey
        #: (unique per registration), so a re-registration can never
        #: alias a stale path.
        self._write_paths: Dict[tuple, Tuple[TransferSpec, object]] = {}

    def _execute(self, spec: TransferSpec, hca=None) -> Generator:
        """Run a transfer spec, through the RC retry loop when one is
        attached.  Every timed wire/PCIe crossing in this module funnels
        through here, so attaching ``rc`` retrofits retransmission onto
        all verbs without touching the per-op generators.  (An RDMA
        write's first attempt is the exception: :class:`RdmaWrite` runs
        it from callbacks with RC's success path inline, and hands a
        failed or stalled one to ``rc.execute``.)

        A plain dispatcher (not a generator itself): it hands back the
        underlying generator so the no-plan path adds no delegation
        frame to every yield — measured at >1% wall-clock otherwise.
        """
        if self.rc is None:
            return spec.execute(self.sim)
        return self.rc.execute(spec, hca)

    # ------------------------------------------------------------ endpoints
    def endpoint(self, node_id: int, hca_id: int, owner: int) -> Endpoint:
        node = self.hw.nodes[node_id]
        if not 0 <= hca_id < len(node.hcas):
            raise IBError(f"node {node_id} has no HCA {hca_id}")
        return Endpoint(self, node_id, hca_id, owner)

    # ---------------------------------------------------------- PCIe legs
    def _local_leg(self, ep: Endpoint, ptr: Ptr, nbytes: int, *, read: bool) -> TransferSpec:
        """HCA <-> local buffer (source fetch when read=True, landing when False)."""
        pcie = ep.node.pcie
        if ptr.kind is MemKind.DEVICE:
            return pcie.p2p(ep.hca_id, ptr.device_id, nbytes, read=read)
        return pcie.hca_host_leg(ep.hca_id, nbytes, to_host=not read)

    def _check_local(self, ep: Endpoint, ptr: Ptr) -> None:
        if ptr.node_id != ep.node_id:
            raise IBError(
                f"local buffer on node {ptr.node_id} posted through endpoint on node {ep.node_id}"
            )

    def _remote_endpoint_hca(self, remote_mr: MemoryRegion, hint: Optional[int]) -> Tuple[int, int]:
        """Choose the target-side HCA for a one-sided op."""
        node = self.hw.nodes[remote_mr.node_id]
        if hint is not None:
            if not 0 <= hint < len(node.hcas):
                raise IBError(f"node {remote_mr.node_id} has no HCA {hint}")
            return remote_mr.node_id, hint
        if remote_mr.kind is MemKind.DEVICE:
            return remote_mr.node_id, node.hca_for_gpu(remote_mr.alloc.device_id)
        return remote_mr.node_id, node.hca_for_host()

    # ---------------------------------------------------------- RDMA write
    def write_path(
        self,
        ep: Endpoint,
        local: Ptr,
        remote_mr: MemoryRegion,
        nbytes: int,
        remote_hca: Optional[int] = None,
    ) -> Tuple[TransferSpec, "object"]:
        """The cut-through path :meth:`rdma_write` executes, plus the
        destination HCA.  Shared with putmem's put plans
        (``Runtime._put_plan``), so every write of one signature holds
        the same spec.

        A path is a pure function of the endpoint, the local buffer's
        placement, the remote region, the size and the remote-HCA hint,
        so it is built once per signature and memoised.  Callers share
        the returned spec, and with it the spec's own memos of its
        directions and duration, and never mutate it."""
        key = (ep.node_id, ep.hca_id, local.kind, local.alloc.device_id,
               remote_mr.rkey, nbytes, remote_hca)
        entry = self._write_paths.get(key)
        if entry is not None:
            return entry
        dst_node_id, dst_hca_id = self._remote_endpoint_hca(remote_mr, remote_hca)
        dst_hca = self.hw.nodes[dst_node_id].hcas[dst_hca_id]
        dst_pcie = self.hw.nodes[dst_node_id].pcie
        if remote_mr.kind is MemKind.DEVICE:
            landing = dst_pcie.p2p(dst_hca_id, remote_mr.alloc.device_id, nbytes, read=False)
        else:
            landing = dst_pcie.hca_host_leg(dst_hca_id, nbytes, to_host=True)

        # One cut-through path: source PCIe fetch -> fabric -> target PCIe.
        path = self._local_leg(ep, local, nbytes, read=True)
        path.extend(self.hw.fabric.wire(ep.hca, dst_hca, nbytes))
        path.extend(landing)
        path.setup += self.params.hca_tx_overhead + self.params.hca_rx_overhead
        path.label = "rdma_write"
        entry = self._write_paths[key] = (path, dst_hca)
        return entry

    def rdma_write(
        self,
        ep: Endpoint,
        local: Ptr,
        remote_mr: MemoryRegion,
        remote_offset: int,
        nbytes: int,
        *,
        remote_hca: Optional[int] = None,
        delivered: Optional[Event] = None,
        posted: Optional[Event] = None,
    ) -> Generator:
        """One-sided write: local buffer -> remote registered region.

        ``delivered`` (optional) is succeeded at the instant the bytes
        become visible at the target, before the ack returns.
        ``posted`` (optional) is succeeded once the work request is
        posted and the payload snapshotted — the point at which the
        source buffer is reusable (OpenSHMEM put-return semantics).  The
        payload is a deferred :class:`~repro.cuda.memory.Snapshot`:
        delivery copies straight from the source unless the source was
        overwritten after the post, and the snapshot is released when the
        write acks or dies.

        The generator face of :class:`RdmaWrite`: the write runs as the
        machine's callbacks and resumes this generator where its own
        yields would have; a failed or stalled attempt under RC continues
        in this frame (:meth:`RdmaWrite.resume`).
        """
        write = RdmaWrite(self, ep, local, remote_mr, remote_offset, nbytes,
                          remote_hca, delivered, posted)
        result = yield write
        if write.resuming:
            result = yield from write.resume()
        return result

    # ----------------------------------------------------------- RDMA read
    def rdma_read(
        self,
        ep: Endpoint,
        local: Ptr,
        remote_mr: MemoryRegion,
        remote_offset: int,
        nbytes: int,
        *,
        remote_hca: Optional[int] = None,
    ) -> Generator:
        """One-sided read: remote registered region -> local buffer."""
        self._check_local(ep, local)
        remote_mr.check_range(remote_offset, nbytes)
        src_ptr = remote_mr.ptr(remote_offset)
        p = self.params
        sim = self.sim
        tracer = sim.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                sim, "rdma_read", "ib", f"ib:pe{ep.owner}",
                nbytes=nbytes, source_node=remote_mr.node_id,
            )
        payload = None
        try:
            yield sim.timeout(p.rdma_post_overhead, name="rdma_read:post")
            ep.hca.count_tx()
            # Request travels to the remote HCA (tiny, latency only).
            src_node_id, src_hca_id = self._remote_endpoint_hca(remote_mr, remote_hca)
            src_hca = self.hw.nodes[src_node_id].hcas[src_hca_id]
            yield from self._execute(self.hw.fabric.wire(ep.hca, src_hca, 0), ep.hca)
            yield sim.timeout(p.hca_rx_overhead)

            # Response: remote fetch (GDR P2P *read* when on GPU) streams
            # cut-through across the fabric into the local buffer.
            src_pcie = self.hw.nodes[src_node_id].pcie
            if src_ptr.kind is MemKind.DEVICE:
                path = src_pcie.p2p(src_hca_id, src_ptr.device_id, nbytes, read=True)
            else:
                path = src_pcie.hca_host_leg(src_hca_id, nbytes, to_host=False)
            payload = src_ptr.snapshot(nbytes)
            src_hca.count_tx()
            path.extend(self.hw.fabric.wire(src_hca, ep.hca, nbytes))
            path.extend(self._local_leg(ep, local, nbytes, read=False))
            path.setup += p.hca_tx_overhead + p.hca_rx_overhead
            path.label = "rdma_read"
            yield from self._execute(path, src_hca)
            ep.hca.count_rx()
            local.write(payload)
        finally:
            if payload is not None:
                payload.release()
            if tracer is not None:
                tracer.end(sim, span)
        return nbytes

    # ------------------------------------------------------------ send/recv
    def post_send(self, ep: Endpoint, dst: Endpoint, payload: bytes) -> Generator:
        """Two-sided send; completes locally once injected (delivery is
        matched by the target's :meth:`Endpoint.recv`)."""
        p = self.params
        sim = self.sim
        nbytes = len(payload)
        tracer = sim.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                sim, "ib_send", "ib", f"ib:pe{ep.owner}",
                nbytes=nbytes, target_pe=dst.owner,
            )
        try:
            yield sim.timeout(p.rdma_post_overhead, name="send:post")
            ep.hca.count_tx()
            path = ep.node.pcie.hca_host_leg(ep.hca_id, nbytes, to_host=False)
            path.extend(self.hw.fabric.wire(ep.hca, dst.hca, nbytes))
            path.extend(dst.node.pcie.hca_host_leg(dst.hca_id, nbytes, to_host=True))
            path.setup += p.hca_tx_overhead + p.hca_rx_overhead
            path.label = "ib_send"
            yield from self._execute(path, ep.hca)
            dst.hca.count_rx()
            dst._recv_queue.put((ep.owner, payload))
        finally:
            if tracer is not None:
                tracer.end(sim, span)
        return nbytes

    # -------------------------------------------------------------- atomics
    def _atomic_execute(
        self,
        ep: Endpoint,
        remote_mr: MemoryRegion,
        remote_offset: int,
        nbytes: int,
        rmw,
        remote_hca: Optional[int],
    ) -> Generator:
        """The one body of every remote atomic: request leg, target-side
        RMW under the HCA atomic unit, then the response."""
        if nbytes not in (1, 2, 4, 8):
            raise IBError(f"atomic width must be 1/2/4/8 bytes, got {nbytes}")
        remote_mr.check_range(remote_offset, nbytes)
        p = self.params
        sim = self.sim
        tracer = sim.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                sim, "ib_atomic", "ib", f"ib:pe{ep.owner}",
                nbytes=nbytes, target_node=remote_mr.node_id,
            )
        try:
            # Request leg to the target HCA.
            yield sim.timeout(p.rdma_post_overhead, name="atomic:post")
            ep.hca.count_tx()
            dst_node_id, dst_hca_id = self._remote_endpoint_hca(remote_mr, remote_hca)
            node = self.hw.nodes[dst_node_id]
            dst_hca = node.hcas[dst_hca_id]
            yield from self._execute(self.hw.fabric.wire(ep.hca, dst_hca, 8), ep.hca)
            yield sim.timeout(p.hca_rx_overhead)
            dst_hca.count_rx()
            req = dst_hca.atomic_unit.request()
            yield req
            try:
                yield sim.timeout(p.hca_atomic_overhead)
                if nbytes < 8:
                    # Masked emulation for sub-8-byte types (§III-D).
                    yield sim.timeout(p.masked_atomic_overhead)
                target = remote_mr.ptr(remote_offset)
                if target.kind is MemKind.DEVICE:
                    # GDR atomic: one PCIe P2P round-trip to device memory.
                    same = node.pcie.same_socket(target.device_id, dst_hca_id)
                    extra = p.p2p_latency + (0.0 if same else p.qpi_latency)
                    yield sim.timeout(2 * extra)
                old = int.from_bytes(target.read(nbytes), "little")
                new = rmw(old)
                mask = (1 << (8 * nbytes)) - 1
                target.write(int(new & mask).to_bytes(nbytes, "little"))
            finally:
                dst_hca.atomic_unit.release(req)

            # Response (old value) returns to the source.
            yield from self._execute(self.hw.fabric.wire(dst_hca, ep.hca, 8), dst_hca)
            yield sim.timeout(p.hca_rx_overhead)
            ep.hca.count_rx()
        finally:
            if tracer is not None:
                tracer.end(sim, span)
        return old

    def fetch_add(
        self,
        ep: Endpoint,
        remote_mr: MemoryRegion,
        remote_offset: int,
        value: int,
        nbytes: int = 8,
        *,
        remote_hca: Optional[int] = None,
    ) -> Generator:
        """Hardware fetch-and-add; returns the previous value."""
        old = yield from self._atomic_execute(
            ep, remote_mr, remote_offset, nbytes, lambda o: o + value, remote_hca
        )
        return old

    def compare_swap(
        self,
        ep: Endpoint,
        remote_mr: MemoryRegion,
        remote_offset: int,
        compare: int,
        swap: int,
        nbytes: int = 8,
        *,
        remote_hca: Optional[int] = None,
    ) -> Generator:
        """Hardware compare-and-swap; returns the previous value."""
        old = yield from self._atomic_execute(
            ep,
            remote_mr,
            remote_offset,
            nbytes,
            lambda o: swap if o == compare else o,
            remote_hca,
        )
        return old

    def swap(
        self,
        ep: Endpoint,
        remote_mr: MemoryRegion,
        remote_offset: int,
        value: int,
        nbytes: int = 8,
        *,
        remote_hca: Optional[int] = None,
    ) -> Generator:
        """Unconditional atomic swap; returns the previous value."""
        old = yield from self._atomic_execute(
            ep, remote_mr, remote_offset, nbytes, lambda o: value, remote_hca
        )
        return old


class RdmaWrite(Event):
    """One signaled RDMA write, run as callbacks: the write machine.  It
    is itself the event that fires when the write completes.  Every
    RDMA write in every mode runs here: putmem's single-RDMA puts on the
    event path and as the tier-2 commit, and every other caller through
    :meth:`Verbs.rdma_write`.

    Timeline, with the float operations and same-instant hops of a
    generator that yields a post timeout, the path's transfer and an ack
    timeout:

    * built: the write is validated and its post wake-up drawn for
      ``start + rdma_post_overhead``, a bare heap call
      (:meth:`~repro.simulator.Simulator.call_at`), as is the ack's.
      ``start`` is the issue instant, ``sim.now`` unless the builder
      has computed a later one (putmem's tier-2 commit builds the write
      at the op's call, before its dispatch and lookup delays);
    * post: payload snapshotted, ``posted`` succeeded through the
      scheduler, source HCA tx counted, and the path's hold begun: an
      :class:`~repro.hardware.links.AnalyticTransfer`, whose completion
      calls back into the write (its setup wake-up is drawn now);
    * hold end: under RC the success is fed to the health tracker; the
      target HCA rx counted, payload written, ``delivered`` succeeded,
      the ack wake-up drawn;
    * ack: payload released, the ``rdma_write`` span recorded on
      ``ib:pe{owner}`` from ``start``, and the write fired with the byte
      count.

    :meth:`Verbs.rdma_write` waits on the write, which then fires inside
    the pop that ends it, so the waiting generator resumes where its own
    yield would have.  A *detached* write (putmem's, posted from the
    caller) has no waiter: it fires through the scheduler, the hop a
    spawned process's completion takes.

    Under RC (``Verbs.rc``), an attempt that fails or meets an HCA stall
    still in force leaves the callbacks: :meth:`resume` is the rest of
    the write as a generator, RC's retry loop from that attempt on, then
    delivery and ack.  The generator face runs it in its own frame.  A
    detached write starts it as a process whose first step runs in the
    failing pop (:meth:`~repro.simulator.Simulator.start`), wrapped in
    ``recover(first=...)`` when set (``Runtime._recover``), and that
    process's outcome fires the write.  Any other error dies at once:
    the write fails at the instant the generator would have raised, and
    so does ``posted`` if the write had not posted yet, so a caller
    waiting on it errors instead of hanging.

    ``planned`` is ``(dst_ptr, path, dst_hca)`` from a put plan
    (``Runtime._put_plan``), which has made this write's checks and
    resolved its path already; the write then skips both.
    """

    __slots__ = (
        "verbs", "ep", "local", "remote_mr", "dst_ptr", "nbytes", "remote_hca",
        "delivered", "posted", "recover", "detached", "payload", "path", "dst_hca",
        "failure", "resuming", "tracer", "start",
    )

    def __init__(
        self, verbs: Verbs, ep: Endpoint, local: Ptr, remote_mr: MemoryRegion,
        remote_offset: int, nbytes: int, remote_hca: Optional[int] = None,
        delivered: Optional[Event] = None, posted: Optional[Event] = None, *,
        detached: bool = False, planned: Optional[tuple] = None,
        start: Optional[float] = None,
    ):
        if planned is None:
            verbs._check_local(ep, local)
            remote_mr.check_range(remote_offset, nbytes)
            dst_ptr = remote_mr.ptr(remote_offset)
            path = dst_hca = None
        else:
            dst_ptr, path, dst_hca = planned
        sim = verbs.sim
        super().__init__(sim, "rdma_write")
        self.verbs = verbs
        self.ep = ep
        self.local = local
        self.remote_mr = remote_mr
        self.dst_ptr = dst_ptr
        self.nbytes = nbytes
        self.remote_hca = remote_hca
        self.delivered = delivered
        self.posted = posted
        #: Set by ``Runtime._put_rdma`` under a health tracker; see
        #: :meth:`_hand_over`.
        self.recover = None
        self.detached = detached
        self.payload = None
        self.path = path
        self.dst_hca = dst_hca
        #: The failed attempt's exception (``None``: a stall) once the
        #: write left its callbacks; ``resuming`` says it did so under
        #: the generator face.
        self.failure: Optional[BaseException] = None
        self.resuming = False
        self.tracer = sim.tracer
        if start is None:
            start = sim.now
        self.start = start
        sim.call_at(start + verbs.params.rdma_post_overhead, self._post)

    def _post(self, _arg) -> None:
        try:
            self.payload = self.local.snapshot(self.nbytes)  # source reusable from here on
        except BaseException as exc:
            self._die(exc)
            return
        posted = self.posted
        if posted is not None and not posted._triggered:
            posted.succeed(self.sim.now)
        ep = self.ep
        ep.hca.count_tx()
        if self.path is None:
            try:
                self.path, self.dst_hca = self.verbs.write_path(
                    ep, self.local, self.remote_mr, self.nbytes, self.remote_hca
                )
            except BaseException as exc:
                self._die(exc)
                return
        if self.verbs.rc is not None and ep.hca.stall_remaining(self.sim.now) > 0.0:
            self._hand_over(None)
            return
        hold = AnalyticTransfer(self.sim, self.path)
        if hold.boot_exc is not None:
            # Zero setup and a direction already down: the attempt fails
            # at the post instant.
            self._fault(hold.boot_exc)
            return
        hold.completion.callbacks.append(self._held)

    def _held(self, ev: Event) -> None:
        exc = ev._exc
        if exc is not None:
            ev.defuse()
            self._fault(exc)
            return
        rc = self.verbs.rc
        if rc is not None:
            rc.record_success(self.path)
        try:
            self._deliver()
        except BaseException as exc:
            self._die(exc)
            return
        sim = self.sim
        sim.call_at(sim.now + self.verbs.params.rdma_ack_latency, self._fire, self.nbytes)

    def _deliver(self) -> None:
        self.dst_hca.count_rx()
        self.dst_ptr.write(self.payload)
        delivered = self.delivered
        if delivered is not None and not delivered._triggered:
            delivered.succeed(self.sim.now)

    def _close(self) -> None:
        if self.payload is not None:
            self.payload.release()
        if self.tracer is not None:
            self.tracer.complete(
                self.sim, "rdma_write", "ib", f"ib:pe{self.ep.owner}", self.start,
                nbytes=self.nbytes, target_node=self.remote_mr.node_id,
            )

    def _fire(self, value=None, exc: Optional[BaseException] = None) -> None:
        """Close the write and fire it: at the ack with the byte count,
        or failed with ``exc``."""
        self._close()
        if not self.detached:
            self.fire_now(value, exc)
        elif exc is None:
            self.succeed(value)
        else:
            self.fail(exc)

    def _die(self, exc: BaseException) -> None:
        self._fire(exc=exc)
        posted = self.posted
        if posted is not None and not posted._triggered:
            posted.fail(exc)

    def _fault(self, exc: BaseException) -> None:
        if self.verbs.rc is None:
            self._die(exc)
        else:
            self._hand_over(exc)

    def _hand_over(self, failure: Optional[BaseException]) -> None:
        self.failure = failure
        if not self.detached:
            self.resuming = True
            self.fire_now()
            return
        rest = self.resume()
        if self.recover is not None:
            rest = self.recover(first=rest)
        proc = self.sim.start(rest, name=f"pe{self.ep.owner}:rdma-write")
        proc.callbacks.append(self._relay)

    def _relay(self, proc: Event) -> None:
        exc = proc._exc
        if exc is not None:
            proc.defuse()
        self.fire_now(proc._value, exc)

    def resume(self) -> Generator:
        """The rest of the write from its failed or stalled attempt:
        RC's retry loop takes that attempt over, then the bytes land and
        the ack returns as on the callback path.  Returns ``nbytes``."""
        try:
            yield from self.verbs.rc.execute(self.path, self.ep.hca, failure=self.failure)
            self._deliver()
            yield self.sim.timeout(self.verbs.params.rdma_ack_latency, name="rdma_write:ack")
        finally:
            self._close()
        return self.nbytes
