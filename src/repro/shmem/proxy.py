"""The proxy-based framework (§III-C, Fig 5).

One :class:`ProxyDaemon` runs per node.  At init it maps every local
GPU heap into its address space via CUDA IPC (no context switches on
the data path) and pins its own pre-registered host staging buffers.
PEs signal it with small work requests; the proxy then moves large
messages with IPC copies + RDMA, keeping both the *target PE* (puts)
and the *remote PE* (gets) completely out of the transfer — the
asynchronous, truly one-sided behaviour the paper claims.

The proxy progresses work for all PEs of its node; because it serves
only large messages, a single daemon saturates PCIe and the fabric
(§III-C), which the model reflects by contending on the same links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, Optional

from repro.cuda.api import CudaContext
from repro.cuda.memory import MemKind, Ptr
from repro.errors import ShmemError
from repro.hardware.links import chunked
from repro.ib.mr import MemoryRegion
from repro.shmem.fastpath import claim, claimable, plan_pipeline, release
from repro.shmem.service import ServiceItem
from repro.simulator import Event, Store


@dataclass
class ProxyRequest:
    """One unit of proxy work.

    ``put_h2d``      — a source PE RDMA-wrote a chunk into proxy staging
    ``slot``; copy it into ``dst_ptr`` (an IPC-mapped GPU buffer) and
    recycle the slot.

    ``get_pipeline`` — read ``nbytes`` at ``src_ptr`` (a local GPU heap
    region) and pipeline it back to ``requester_pe``'s ``dst_ptr``;
    when ``stage_at_requester`` is set, land in the requester's host
    staging and let its (blocked-in-get, hence in-runtime) service
    engine do the final H2D copy — the inter-socket workaround.
    """

    kind: str
    done: Event
    nbytes: int = 0
    slot: object = None
    src_ptr: Optional[Ptr] = None
    dst_ptr: Optional[Ptr] = None
    dst_mr: Optional[MemoryRegion] = None
    requester_pe: int = -1
    target_pe: int = -1
    stage_at_requester: bool = False


class ProxyDaemon:
    """Per-node communication proxy."""

    def __init__(self, runtime, node_id: int):
        self.runtime = runtime
        self.node_id = node_id
        self.sim = runtime.sim
        self.params = runtime.params
        node = runtime.hw.nodes[node_id]
        job = runtime.job
        #: The proxy's pinned staging buffers (pre-registered, §III-C).
        staging_alloc = job.space.allocate(
            MemKind.HOST,
            self.params.pipeline_chunk * self.params.pipeline_depth,
            node_id=node_id,
            owner=self._owner_id(),
            tag=f"proxy{node_id}.staging",
        )
        from repro.shmem.staging import StagingPool

        self.staging = StagingPool(
            self.sim, staging_alloc, MemoryRegion(staging_alloc),
            self.params.pipeline_chunk, name=f"proxy{node_id}.staging",
        )
        self.endpoint = runtime.verbs.endpoint(node_id, node.hca_for_host(), owner=self._owner_id())
        #: CUDA context used for IPC copies; bound to GPU 0 but routes
        #: each copy by the pointer's actual device (one context per GPU
        #: is maintained implicitly — mapping happened at heap creation).
        self.cuda = (
            CudaContext(self.sim, node, 0, owner=self._owner_id(), space=job.space)
            if node.gpus
            else None
        )
        self.queue: Store = Store(self.sim, name=f"proxy{node_id}.queue")
        self.requests_served = 0
        self.sim.process(self._loop(), name=f"proxy{node_id}")

    def _owner_id(self) -> int:
        return -(self.node_id + 1)

    def submit(self, req: ProxyRequest) -> None:
        self.queue.put(req)

    # ---------------------------------------------------------------- loop
    def _loop(self) -> Generator:
        while True:
            req = yield self.queue.get()
            yield self.sim.timeout(self.params.proxy_dispatch_overhead, name="proxy:dispatch")
            try:
                if req.kind == "put_h2d":
                    yield from self._do_put_h2d(req)
                elif req.kind == "get_pipeline":
                    yield from self._do_get_pipeline(req)
                else:
                    raise ShmemError(f"unknown proxy request kind {req.kind!r}")
            except BaseException as exc:
                if not req.done.triggered:
                    req.done.fail(exc)
                continue
            self.requests_served += 1
            if not req.done.triggered:
                req.done.succeed(self.sim.now)

    # ------------------------------------------------------------- handlers
    def _do_put_h2d(self, req: ProxyRequest) -> Generator:
        if self.cuda is None:
            raise ShmemError(f"proxy on GPU-less node {self.node_id} asked to do an H2D copy")
        try:
            # Idempotent retry: the staged chunk stays in the slot until
            # the H2D copy lands, so replays rewrite the same range.
            yield from self.runtime.reliable_memcpy(
                self.cuda, req.dst_ptr, req.slot.ptr, req.nbytes
            )
        finally:
            self.staging.release(req.slot)
        self.runtime._notify(req.target_pe)

    def _do_get_pipeline(self, req: ProxyRequest) -> Generator:
        if self.cuda is None:
            raise ShmemError(f"proxy on GPU-less node {self.node_id} asked to read a GPU")
        if not req.stage_at_requester:
            fast = self._fast_get_pipeline(req)
            if fast is not None:
                yield fast
                return
        runtime = self.runtime
        requester = runtime.job.contexts[req.requester_pe]
        pending = []
        offset = 0
        for csize in chunked(req.nbytes, self.params.pipeline_chunk):
            slot = yield from self.staging.acquire()
            # IPC read of the owning PE's GPU heap into proxy staging
            # (retried idempotently under an active fault plan).
            yield from self.runtime.reliable_memcpy(
                self.cuda, slot.ptr, req.src_ptr + offset, csize
            )
            ev = self.sim.event("proxy-get:chunk")
            ev.defuse()  # observed via the all_of below, never raw
            handler = (
                self._chunk_via_requester_staging(req, requester, slot, offset, csize, ev)
                if req.stage_at_requester
                else self._chunk_direct(req, slot, offset, csize, ev)
            )
            self.sim.process(handler, name=f"proxy{self.node_id}:get-chunk")
            pending.append(ev)
            offset += csize
        if pending:
            yield self.sim.all_of(pending)

    def _fast_get_pipeline(self, req: ProxyRequest) -> Optional[Event]:
        """Closed-form replay of the direct (reverse Pipeline-GDR-write)
        get: identical chunk machinery to the put fast path in
        :mod:`repro.shmem.runtime`, minus watcher notifies (the blocked
        requester is the only observer and wakes at the final ack).
        Returns the event the proxy loop resumes on, or ``None``."""
        sim = self.sim
        if not (
            sim.fastpath
            and self.runtime.health is None
            and sim.tracer is None
            and sim.quiescent()
        ):
            return None
        pool = self.staging
        if not pool.idle:
            return None
        p = self.params
        chunks = chunked(req.nbytes, p.pipeline_chunk)
        if not chunks:
            return None
        slot_ptr = pool.alloc.ptr(0)
        verbs = self.runtime.verbs
        try:
            req.dst_mr.check_range(req.dst_ptr.offset, req.nbytes)
            sizes = sorted(set(chunks))
            copy_specs = {c: self.cuda._spec_for(slot_ptr, req.src_ptr, c) for c in sizes}
            write_specs = {}
            dst_hca = None
            for c in sizes:
                write_specs[c], dst_hca = verbs.write_path(
                    self.endpoint, slot_ptr, req.dst_mr, c
                )
            req.src_ptr._check(req.nbytes)
        except Exception:
            return None  # let the event path raise at the accurate instant
        cdirs = copy_specs[chunks[0]].directions()
        wdirs = write_specs[chunks[0]].directions()
        if not claimable(cdirs, wdirs):
            return None
        payload = req.src_ptr.snapshot(req.nbytes)

        plan = plan_pipeline(
            sim.now, chunks, pool.depth, copy_specs, write_specs,
            p.rdma_post_overhead, p.rdma_ack_latency,
        )

        holds = claim(cdirs) + claim(wdirs)
        n = len(chunks)
        nslots = min(n, pool.depth)
        slots = [pool.take_nowait() for _ in range(nslots)]
        ep_hca = self.endpoint.hca
        dst = req.dst_ptr

        wrel = sim.wake_at(plan.wire_release, name="proxy-get:fast:wire")

        def at_wire(_ev) -> None:
            release(holds)
            for c in chunks:
                copy_specs[c].count_transfer()
                write_specs[c].count_transfer()
            for _ in range(n):
                ep_hca.count_tx()
                dst_hca.count_rx()
            dst.write(payload)
            payload.release()

        wrel.callbacks.append(at_wire)

        # Only the last min(N, depth) slot recycles outlive the pipeline;
        # earlier acks have no externally visible effect here (no
        # watchers to notify), so they need no wake-ups at all.
        last = wrel
        for i in range(n - nslots, n):
            ack = sim.wake_at(plan.acks[i], name="proxy-get:fast:ack")
            ack.callbacks.append(lambda _ev: pool.release(slots.pop()))
            last = ack
        sim.stats.fastpath_batches += 1
        return last

    def _chunk_direct(self, req, slot, offset, csize, ev) -> Generator:
        """Reverse Pipeline-GDR-write: staging chunk straight to the
        requester's final buffer (GDR write when it is device memory).
        Failures are routed into ``ev`` so the blocked requester sees
        them instead of the scheduler aborting."""
        try:
            try:
                yield from self.runtime.verbs.rdma_write(
                    self.endpoint, slot.ptr, req.dst_mr, req.dst_ptr.offset + offset, csize
                )
            finally:
                self.staging.release(slot)
        except BaseException as exc:
            if not ev.triggered:
                ev.fail(exc)
            return
        ev.succeed()

    def _chunk_via_requester_staging(self, req, requester, slot, offset, csize, ev) -> Generator:
        """Inter-socket landing: stage in the requester's host pool and
        let its service engine finish with a local IPC H2D copy."""
        runtime = self.runtime
        rpool = runtime.rx_staging[req.requester_pe]
        rslot = yield from rpool.acquire()
        try:
            try:
                yield from runtime.verbs.rdma_write(
                    self.endpoint, slot.ptr, rpool.mr, rslot.offset, csize
                )
            finally:
                self.staging.release(slot)
        except BaseException as exc:
            rpool.release(rslot)
            if not ev.triggered:
                ev.fail(exc)
            return

        def finish() -> Generator:
            try:
                yield from requester.cuda.memcpy(req.dst_ptr + offset, rslot.ptr, csize)
            finally:
                rpool.release(rslot)

        runtime.service[req.requester_pe].submit(
            ServiceItem(run=finish, done=ev, label="proxy-get:h2d")
        )
