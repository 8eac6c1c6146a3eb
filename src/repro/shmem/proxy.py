"""The proxy-based framework (§III-C, Fig 5).

One :class:`ProxyDaemon` runs per node.  At init it maps every local
GPU heap into its address space via CUDA IPC (no context switches on
the data path) and pins its own pre-registered host staging buffers.
PEs signal it with small work requests; the proxy then moves large
messages with IPC copies + RDMA, keeping both the *target PE* (puts)
and the *remote PE* (gets) completely out of the transfer — the
asynchronous, truly one-sided behaviour the paper claims.

The proxy's progress loop is an always-on
:class:`~repro.shmem.service.ServiceEngine`: the same engine that runs
the baseline's target-side copies, minus the runtime gate.  Put chunks
land in its staging pool through the runtime's one landing step
(:meth:`repro.shmem.runtime.Runtime._land`) and its :attr:`landing`;
gets run :meth:`ProxyDaemon.get_pipeline` on its engine.

The proxy progresses work for all PEs of its node; because it serves
only large messages, a single daemon saturates PCIe and the fabric
(§III-C), which the model reflects by contending on the same links.
"""

from __future__ import annotations

from functools import partial
from typing import Generator, Optional

from repro.cuda.api import CudaContext
from repro.cuda.memory import Ptr
from repro.errors import ShmemError
from repro.ib.mr import MemoryRegion
from repro.shmem.service import Landing, ServiceEngine
from repro.shmem.staging import StagingPool, chunk_stream
from repro.simulator import Event


class ProxyDaemon:
    """Per-node communication proxy."""

    def __init__(self, runtime, node_id: int):
        self.runtime = runtime
        self.node_id = node_id
        self.sim = runtime.sim
        self.params = runtime.params
        node = runtime.hw.nodes[node_id]
        job = runtime.job
        owner = -(node_id + 1)
        #: The proxy's pinned staging buffers (pre-registered, §III-C).
        self.staging = StagingPool.host(job, node_id, owner, f"proxy{node_id}.staging")
        self.endpoint = runtime.verbs.endpoint(node_id, node.hca_for_host(), owner=owner)
        #: CUDA context used for IPC copies; bound to GPU 0 but routes
        #: each copy by the pointer's actual device (one context per GPU
        #: is maintained implicitly — mapping happened at heap creation).
        self.cuda = (
            CudaContext(self.sim, node, 0, owner=owner, space=job.space)
            if node.gpus
            else None
        )
        self.engine = ServiceEngine(
            self.sim, owner, self.params.proxy_dispatch_overhead, always_on=True
        )
        #: Put chunks land in proxy staging; the proxy finishes them
        #: with an IPC copy after the PE's work-request signal.
        self.landing = Landing(
            self.staging, self.engine, self._ipc_copy, self.params.proxy_signal_overhead
        )

    def _ipc_copy(self, dst: Ptr, src: Ptr, nbytes: int) -> Generator:
        """Staging -> IPC-mapped buffer; retried idempotently under an
        active fault plan (the chunk stays in its slot until it lands)."""
        if self.cuda is None:
            raise ShmemError(f"proxy on GPU-less node {self.node_id} asked to do an H2D copy")
        yield from self.runtime.reliable_memcpy(self.cuda, dst, src, nbytes)

    # ------------------------------------------------------------------ get
    def get_pipeline(
        self,
        src_ptr: Ptr,
        dst: Ptr,
        dst_mr: Optional[MemoryRegion],
        landing: Optional[Landing],
        nbytes: int,
    ) -> Generator:
        """Read ``nbytes`` at ``src_ptr`` (a local GPU heap region) and
        pipeline it back to the requester's ``dst`` through ``dst_mr``.
        Given the requester's ``landing`` instead, land in its host
        staging and let its (blocked-in-get, hence in-runtime) service
        engine do the final H2D copy — the inter-socket workaround."""
        if self.cuda is None:
            raise ShmemError(f"proxy on GPU-less node {self.node_id} asked to read a GPU")

        def send(_src, slot, offset, csize) -> Event:
            ev = self.sim.event("proxy-get:chunk")
            ev.defuse()  # observed via the all_of below, never raw
            self.sim.process(
                self._get_chunk(slot, dst + offset, dst_mr, landing, csize, ev),
                name=f"proxy{self.node_id}:get-chunk",
            )
            return ev

        # IPC read of the owning PE's GPU heap into proxy staging
        # (retried idempotently under an active fault plan).
        stage = (self.staging, partial(self.runtime.reliable_memcpy, self.cuda))
        pending = yield from chunk_stream(nbytes, self.params.pipeline_chunk, src_ptr, send, stage)
        yield self.sim.all_of(pending)

    def _get_chunk(self, slot, dst, dst_mr, landing, csize, ev) -> Generator:
        """One staged get chunk to ``dst``: a reverse Pipeline-GDR-write
        through ``dst_mr``, or, given the requester's ``landing``, the
        inter-socket landing.  Failures are routed into ``ev`` so the
        blocked requester sees them instead of the scheduler aborting."""
        ep = self.endpoint
        try:
            if landing is None:
                try:
                    yield from self.runtime.verbs.rdma_write(ep, slot.ptr, dst_mr, dst.offset, csize)
                finally:
                    self.staging.release(slot)
                ev.succeed()
            else:
                rslot = yield from landing.pool.acquire()
                yield from self.runtime._land(ep, slot.ptr, slot, landing, rslot, dst, csize, ev)
        except BaseException as exc:
            if not ev.triggered:
                ev.fail(exc)
