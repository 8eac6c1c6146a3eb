"""The OpenSHMEM runtime: heaps, address translation, protocol execution.

One :class:`Runtime` instance serves a whole job.  The *design*
("naive", "host-pipeline", "enhanced-gdr", "device-initiated") resolves
through the unified registry (:mod:`repro.shmem.designs`) to a
protocol selector (Table I / §III) plus construction flags; protocol
*execution* is shared, so all designs run over identical simulated
hardware and differ only in the paths they take — which is precisely
the comparison the paper makes.  The device-initiated design
(NVSHMEM-style, beyond the paper) opts out of host staging entirely:
ops issue from device contexts after a one-time persistent-kernel
warm-up, and quiet/fence run device-side (DESIGN.md §11).

Completion semantics implemented here:

* ``putmem`` returns at **local completion** (source buffer reusable):
  immediately after the copy for copy-based protocols, after the work
  request is posted for RDMA-based ones.
* ``quiet`` blocks until every outstanding remote operation of the
  calling PE is complete at its target.
* ``getmem`` blocks until the data is in the local buffer.
* remote deliveries wake ``wait_until`` watchers on the target PE.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Generator, NamedTuple, Optional, Tuple

import numpy as np

from repro.cuda.memory import MemKind, Ptr
from repro.errors import CompletionError, LinkDown, ShmemError
from repro.hardware.links import TransferSpec, chunked
from repro.ib.mr import MemoryRegion
from repro.ib.rc import retry
from repro.ib.verbs import Endpoint, RdmaWrite, Verbs
from repro.shmem.address import SymAddr
from repro.shmem.capabilities import Capabilities
from repro.shmem.constants import Config, Domain, Locality, Op, Protocol
from repro.shmem.designs import DesignSpec, design_spec
from repro.shmem.fastpath import claim, claimable, merged_directions, plan_staged, release
from repro.shmem.heap import SymmetricHeap
from repro.shmem.protocols import ProtocolSelector, Route, make_selector
from repro.shmem.service import Landing, ServiceEngine, ServiceItem
from repro.shmem.staging import StagingPool, chunk_stream
from repro.simulator import Event, Simulator

#: Bytes reserved at the start of every host heap for runtime-internal
#: synchronization flags (barrier/bcast/reduce slots).  User shmalloc
#: offsets start above this.
SYNC_RESERVED = 4096

#: The single-RDMA put protocols: their event schedule is one
#: ``rdma_write`` (post, setup, FIFO hop acquisition, pipelined hold,
#: ack), so a put plan resolves their write and the tier-2 commit can
#: post it without an issue wake-up.  Chunked/staged protocols stay on
#: their own handlers.
_RDMA_PUT_PROTOCOLS = frozenset(
    {Protocol.DIRECT_GDR, Protocol.RDMA_HOST, Protocol.GDR_LOOPBACK, Protocol.DEVICE_GDR}
)

#: What :meth:`Runtime._recover` answers: a link loss or a failed WR.
_LINK_FAILURES = (LinkDown, CompletionError)


@dataclass
class HeapInfo:
    """Everything the init-time exchange publishes about one heap."""

    heap: SymmetricHeap
    mr: Optional[MemoryRegion]


class PutPlan(NamedTuple):
    """One put signature, validated and resolved once
    (:meth:`Runtime._put_plan`).

    Every field is a pure function of the signature, so a plan cannot
    go stale: the route is the design's selection (a health reroute is
    taken per op, never stored), the destination lives in a symmetric
    heap that outlives the job's ops, and nothing here refers to the
    source buffer, so a plan keeps no freed allocation alive."""

    route: Route
    #: The resolved destination.
    dst_ptr: Ptr
    #: ``route``'s probe series: global, then this PE's.
    series: Tuple[str, str]
    #: The rest is set for single-RDMA routes only: the remote region,
    #: the remote-HCA hint, and the write's ``(dst_ptr, path, dst_hca)``
    #: (:class:`~repro.ib.verbs.RdmaWrite`'s ``planned``).
    mr: Optional[MemoryRegion] = None
    remote_hca: Optional[int] = None
    write: Optional[Tuple[Ptr, TransferSpec, object]] = None


class Runtime:
    """Design-parameterized OpenSHMEM runtime over the simulated cluster."""

    def __init__(self, job, design: str, service_thread: bool = False):
        self.job = job
        self.design = design
        #: Model the reference implementation's progress thread (§III-C).
        self.service_thread = service_thread
        self.sim: Simulator = job.sim
        self.hw = job.hw
        self.params = job.params
        self.verbs: Verbs = job.verbs
        #: The one authoritative lookup: selector, capabilities and
        #: construction flags all come from the unified design registry
        #: (unknown designs raise the friendly ShmemError here, before
        #: any hardware is built).
        self.spec: DesignSpec = design_spec(design)
        self.selector: ProtocolSelector = self.spec.selector(self.params)
        self.caps: Capabilities = self.spec.caps
        self.npes = job.npes

        self.heaps: Dict[Tuple[int, Domain], HeapInfo] = {}
        #: Source-side (tx) and landing-side (rx) staging pools are
        #: separate, as in real runtimes — otherwise bidirectional
        #: streams deadlock on circular slot waits.
        self.staging: Dict[int, StagingPool] = {}
        self.rx_staging: Dict[int, StagingPool] = {}
        self.service: Dict[int, ServiceEngine] = {}
        #: Each PE's rx pool, finished by its own (gated) service engine.
        self.landings: Dict[int, Landing] = {}
        self.endpoints: Dict[int, Endpoint] = {}
        self.proxies: Dict[int, "ProxyDaemon"] = {}
        self.protocol_counts: Dict[Protocol, int] = {}
        #: On-the-fly registrations of user (non-heap) buffers.
        self._mr_cache: Dict[int, MemoryRegion] = {}
        #: Protocol decisions memoised by :meth:`_route`.
        self._routes: Dict[tuple, Route] = {}
        #: Put plans (:meth:`_put_plan`), by signature.
        self._plans: Dict[tuple, PutPlan] = {}
        #: Per target PE, the callback waking its watchers: every put's
        #: ``delivered`` to that PE calls it.
        self._notifiers = [partial(self._notify, pe) for pe in range(self.npes)]
        #: Probe series names, by ``(pe, kind, protocol)``.
        self._series_names: Dict[tuple, Tuple[str, str]] = {}
        #: Device-initiated design: PEs whose persistent communication
        #: kernel is running.  The first device-issued op of a PE pays
        #: ``kernel_launch_overhead`` once; after that, per-op host
        #: overhead is gone (the launch-amortisation model, DESIGN.md
        #: §11).  Filled identically on the fast and event paths, so
        #: bit-identity across engine modes is preserved.
        self._warmed_pes: set = set()
        p = self.params
        #: The (dispatch, lookup) delays of one op after warm-up.
        self._issue_delays: Tuple[float, float] = (
            (p.device_issue_overhead, p.device_translate_overhead)
            if self.spec.device_initiated
            else (p.shmem_dispatch_overhead, p.shmem_lookup_overhead)
        )
        #: Armed by :class:`repro.faults.FaultInjector`; ``None`` in a
        #: fault-free job (and every fault code path below is skipped).
        self.health = None
        #: ``(domain, seq) -> offset`` of every symmetric allocation
        #: (:meth:`audit_symmetric_alloc`).
        self._alloc_ledger: Dict[Tuple[Domain, int], int] = {}

        self._build_heaps()
        self._build_endpoints_and_staging()
        if self.spec.proxies:
            self._build_proxies()

    # ====================================================== construction
    def _build_heaps(self) -> None:
        job = self.job
        for pe in range(self.npes):
            node_id, _ = self.hw.pe_location(pe)
            host_alloc = job.space.allocate(
                MemKind.SHM,
                job.host_heap_size,
                node_id=node_id,
                owner=pe,
                tag=f"pe{pe}.host-heap",
            )
            host_heap = SymmetricHeap(pe, Domain.HOST, host_alloc)
            host_heap.allocator.allocate(SYNC_RESERVED, alignment=8)  # reserve sync area
            self.heaps[(pe, Domain.HOST)] = HeapInfo(host_heap, MemoryRegion(host_alloc))
            if self.caps.gpu_domain and len(self.hw.node_of(pe).gpus) > 0:
                cuda = job.cuda_of(pe)
                gpu_ptr = cuda.malloc(job.gpu_heap_size, tag=f"pe{pe}.gpu-heap")
                gpu_heap = SymmetricHeap(pe, Domain.GPU, gpu_ptr.alloc)
                # GDR designs register the GPU heap with the HCA (§III-A).
                # The BAR1 window bounds how much device memory the HCA
                # can map — the very limit that stopped the paper's
                # large-input LBM runs on Wilkes (§V-C).
                gpu_mr = None
                if self.spec.registers_gpu_heap:
                    if job.gpu_heap_size > self.params.gpu_max_registered:
                        raise ShmemError(
                            f"GPU symmetric heap of {job.gpu_heap_size} B exceeds "
                            f"the registrable window ({self.params.gpu_max_registered} B "
                            "BAR1 limit); shrink the heap or raise "
                            "gpu_max_registered — the same configuration limit "
                            "that blocked the paper's large LBM inputs on Wilkes"
                        )
                    gpu_mr = MemoryRegion(gpu_ptr.alloc)
                self.heaps[(pe, Domain.GPU)] = HeapInfo(gpu_heap, gpu_mr)

    def _build_endpoints_and_staging(self) -> None:
        job = self.job
        for pe in range(self.npes):
            node_id, _ = self.hw.pe_location(pe)
            node = self.hw.nodes[node_id]
            try:
                gpu_id = self.hw.pe_gpu(pe)
                hca_id = node.hca_for_gpu(gpu_id)
            except Exception:
                hca_id = node.hca_for_host()
            self.endpoints[pe] = self.verbs.endpoint(node_id, hca_id, owner=pe)
            if self.spec.host_staging:
                # Pipeline/staged-copy protocols bounce through these
                # pools.  A device-initiated kernel cannot reach host
                # staging at all, so that design skips them entirely
                # (and its init_pe registers one region fewer).
                self.staging[pe] = StagingPool.host(job, node_id, pe, f"pe{pe}.staging")
                self.rx_staging[pe] = StagingPool.host(job, node_id, pe, f"pe{pe}.rx-staging")
            self.service[pe] = ServiceEngine(
                self.sim, pe, self.params.target_progress_poll, always_on=self.service_thread
            )
            if self.spec.host_staging:
                self.landings[pe] = Landing(
                    self.rx_staging[pe], self.service[pe], job.contexts[pe].cuda.memcpy
                )

    def _build_proxies(self) -> None:
        from repro.shmem.proxy import ProxyDaemon

        for node_id in range(len(self.hw.nodes)):
            self.proxies[node_id] = ProxyDaemon(self, node_id)

    # ===================================================== init (timed)
    def init_pe(self, ctx) -> Generator:
        """Per-PE timed initialization: heap registration + exchange.

        The descriptor/IPC-handle exchange itself is collective; we
        charge each PE its registration costs and a small exchange
        round-trip (§III-A).
        """
        p = self.params
        regions = 1  # host heap
        if self.spec.host_staging:
            regions += 1  # staging pools
        if (ctx.pe, Domain.GPU) in self.heaps and self.spec.registers_gpu_heap:
            regions += 1
        yield self.sim.timeout(regions * p.mr_register_overhead, name="init:register")
        yield self.sim.timeout(p.ib_wire_latency * 2, name="init:exchange")
        return None

    # ------------------------------------------------- symmetry auditing
    def audit_symmetric_alloc(self, domain: Domain, seq: int, offset: int, pe: int) -> None:
        """Detect non-collective shmalloc misuse: the ``seq``-th
        allocation in a domain must land at the same offset on every PE."""
        key = (domain, seq)
        expected = self._alloc_ledger.setdefault(key, offset)
        if expected != offset:
            raise ShmemError(
                f"symmetric allocation diverged: PE {pe} got offset 0x{offset:x} "
                f"for {domain.value} allocation #{seq}, others got 0x{expected:x} "
                "(shmalloc must be called collectively, in the same order)"
            )

    # ==================================================== lookup helpers
    def heap_of(self, pe: int, domain: Domain) -> HeapInfo:
        try:
            return self.heaps[(pe, domain)]
        except KeyError:
            raise ShmemError(
                f"PE {pe} has no {domain.value} symmetric heap under the "
                f"{self.design!r} design"
            ) from None

    def heap_read_back(self, pe: int, domain: Domain, offset: int, nbytes: int) -> np.ndarray:
        """Untimed read-only view of ``nbytes`` at a symmetric ``offset``
        on PE ``pe`` (:meth:`SymmetricHeap.read_back`) — the post-run
        hook the differential harness (:mod:`repro.check`) uses to
        compare final heap bytes against its reference executor.  Never
        use this from inside a program: it bypasses the simulated
        transfer paths entirely, and the view sees later writes."""
        return self.heap_of(pe, domain).heap.read_back(offset, nbytes)

    def ensure_mr(self, alloc) -> Generator:
        """Register an arbitrary buffer with the HCA (cached, timed).

        Mirrors MVAPICH2-X's registration cache: the first touch of an
        allocation pays the pinning cost, later ops a table lookup."""
        mr = self._mr_cache.get(id(alloc))
        if mr is not None and not alloc.freed:
            yield self.sim.timeout(self.params.mr_cache_hit_overhead)
            return mr
        yield self.sim.timeout(self.params.mr_register_overhead, name="reg:miss")
        mr = MemoryRegion(alloc)
        self._mr_cache[id(alloc)] = mr
        return mr

    def resolve(self, sym: SymAddr, pe: int) -> Ptr:
        """Translate a symmetric address to PE ``pe``'s physical pointer."""
        info = self.heap_of(pe, sym.domain)
        if not 0 <= sym.offset < info.heap.alloc.size:
            raise ShmemError(
                f"symmetric offset 0x{sym.offset:x} outside the "
                f"{sym.domain.value} heap of {info.heap.alloc.size} bytes"
            )
        return info.heap.ptr(sym.offset)

    def locality(self, ctx, pe: int) -> Locality:
        if pe == ctx.pe:
            return Locality.SELF
        if self.hw.same_node(ctx.pe, pe):
            return Locality.INTRA_NODE
        return Locality.INTER_NODE

    def _socket_flags(self, ctx, pe: int) -> Tuple[bool, bool]:
        """(local_same_socket, remote_same_socket) for GPU<->HCA pairing."""

        def flag(p: int) -> bool:
            node = self.hw.node_of(p)
            if not node.gpus:
                return True
            gpu = self.hw.pe_gpu(p)
            return node.same_socket(gpu, self.endpoints[p].hca_id)

        return flag(ctx.pe), flag(pe)

    def _check_pe(self, pe: int) -> None:
        if not 0 <= pe < self.npes:
            raise ShmemError(f"target PE {pe} out of range (npes={self.npes})")

    def _count(self, route: Route) -> None:
        self.protocol_counts[route.protocol] = self.protocol_counts.get(route.protocol, 0) + 1

    def _notify(self, pe: int, _ev: Optional[Event] = None) -> None:
        self.job.contexts[pe].memory_changed()

    @staticmethod
    def _bridge_failure(proc: Event, gate: Event) -> None:
        """If a background transfer dies before its gate event (e.g.
        ``posted``) fires, fail the gate so the waiter errors instead of
        hanging."""

        def relay(ev: Event) -> None:
            if ev.exception is not None and not gate.triggered:
                gate.fail(ev.exception)

        proc.callbacks.append(relay)

    # ================================================ health-aware failover
    def _gpu_link(self, pe: int):
        """The PCIe link of PE ``pe``'s GPU (``None`` for host-only PEs)."""
        try:
            node_id, _ = self.hw.pe_location(pe)
            gpu = self.hw.pe_gpu(pe)
        except Exception:
            return None
        return self.hw.nodes[node_id].pcie.gpu_links[gpu]

    def _route_gdr_legs(self, route: Route, ctx, pe: int):
        """The (LinkDirection, label) GDR P2P crossings ``route`` needs.

        Only GDR protocols expose legs here: those are the paths a
        ``gdrP2P``-scoped fault downs and the health tracker steers
        around.  Host-staged protocols use cudaMemcpy/hostDMA labels and
        survive such faults by construction."""
        legs = []
        cfg = route.config
        if route.protocol in (Protocol.DIRECT_GDR, Protocol.GDR_LOOPBACK):
            if route.op is Op.PUT:
                if cfg.local_on_device:
                    link = self._gpu_link(ctx.pe)
                    if link is not None:
                        legs.append((link.rev, "gdrP2Pread"))
                if cfg.remote_on_device:
                    link = self._gpu_link(pe)
                    if link is not None:
                        legs.append((link.fwd, "gdrP2Pwrite"))
            else:
                if cfg.local_on_device:
                    link = self._gpu_link(ctx.pe)
                    if link is not None:
                        legs.append((link.fwd, "gdrP2Pwrite"))
                if cfg.remote_on_device:
                    link = self._gpu_link(pe)
                    if link is not None:
                        legs.append((link.rev, "gdrP2Pread"))
        elif route.protocol is Protocol.PIPELINE_GDR_WRITE:
            if cfg.remote_on_device:
                link = self._gpu_link(pe)
                if link is not None:
                    legs.append((link.fwd, "gdrP2Pwrite"))
        return legs

    def _leg_unhealthy(self, leg, label: str) -> bool:
        return leg.blocks(label) or not self.health.healthy(leg.name, self.sim.now)

    def gpu_leg_unhealthy(self, pe: int, label: str) -> bool:
        """Health probe for non-``Route`` users (the msg engine): is
        ``pe``'s GPU PCIe crossing for this ``gdrP2P`` label currently
        down or inside a degradation cooldown?  Always ``False`` when
        no fault injector is attached — zero overhead on clean runs."""
        if self.health is None:
            return False
        link = self._gpu_link(pe)
        if link is None:
            return False
        leg = link.rev if label == "gdrP2Pread" else link.fwd
        return self._leg_unhealthy(leg, label)

    def _failover_route(self, route: Route) -> Optional[Route]:
        """The next-best protocol when ``route``'s GDR path is unusable.

        Mirrors the design's own degradation ladder: Direct GDR drops to
        the host-staged pipeline (source staged through host memory),
        the pipeline's target-side GDR write drops to the proxy (which
        lands chunks with cudaMemcpy H2D), and loopback GDR drops to the
        copy-based intra-node protocols."""
        proto, op, cfg = route.protocol, route.op, route.config
        fallback = why = None
        if op is Op.PUT:
            if proto is Protocol.DIRECT_GDR:
                if cfg.local_on_device:
                    fallback, why = Protocol.PIPELINE_GDR_WRITE, "stage source via host"
                elif self.proxies:
                    fallback, why = Protocol.PROXY, "land via target proxy"
            elif proto is Protocol.PIPELINE_GDR_WRITE and self.proxies:
                fallback, why = Protocol.PROXY, "land via target proxy"
            elif proto is Protocol.GDR_LOOPBACK:
                fallback = Protocol.SHM_DIRECT_COPY if cfg is Config.DH else Protocol.IPC_COPY
                why = "copy-based loopback"
        else:
            if proto is Protocol.DIRECT_GDR and self.proxies:
                fallback, why = Protocol.PROXY, "pipeline back via proxy"
            elif proto is Protocol.GDR_LOOPBACK:
                fallback = Protocol.SHM_DIRECT_COPY if cfg is Config.DH else Protocol.IPC_COPY
                why = "copy-based loopback"
        if fallback is None or fallback is proto:
            return None
        return Route(
            fallback, op, cfg, route.locality, route.nbytes, f"health failover: {why}"
        )

    def _health_reroute(self, route: Route, ctx, pe: int) -> Route:
        """Proactive failover: steer off down/degraded GDR paths before
        posting.  Iterates because a fallback may share a bad leg (e.g.
        Direct GDR -> pipeline both write the target GPU): the ladder is
        short, four hops bound it."""
        for _ in range(4):
            legs = self._route_gdr_legs(route, ctx, pe)
            if not legs or not any(self._leg_unhealthy(d, lbl) for d, lbl in legs):
                return route
            fallback = self._failover_route(route)
            if fallback is None:
                return route
            self.sim.stats.failovers += 1
            route = fallback
        return route

    def reliable_memcpy(self, cuda, dst, src, nbytes) -> Generator:
        """cudaMemcpy with RC backoff on a ``LinkDown`` when faults are
        active (a plain dispatcher: it adds no generator frame).

        Staged chunks are replayed idempotently — each attempt re-reads
        the source and rewrites the destination whole, so a transfer
        that observed a link failure cannot leave a torn chunk."""
        if self.health is None:
            return cuda.memcpy(dst, src, nbytes)
        return self.verbs.rc.backoff(partial(cuda.memcpy, dst, src, nbytes))

    def _recover(
        self, ctx, route, attempt, handlers, args, pe, before=None, first=None
    ) -> Generator:
        """Run ``attempt()``, a put's or get's transfer on ``route``, and
        answer a failure that outlived RC retransmission the way the
        design does.  Returns the route the op completed on.  ``first``
        is the first attempt already under way (a caller-posted write
        whose attempt failed or stalled, :class:`~repro.ib.verbs.RdmaWrite`).

        The device-initiated design has no host-staged ladder (the
        kernel reaches neither staging pools nor a proxy): it replays
        ``attempt`` in place after ``health_cooldown``, up to
        ``rc_retry_cnt`` times, each attempt after ``before()``.  Host
        designs run the whole op one rung down (:meth:`_fallback`),
        through ``handlers``.  Either replay re-reads the source and
        rewrites the full destination, so no torn data is left."""
        if self.spec.device_initiated:
            p = self.params
            yield from retry(
                self.sim, attempt, p.rc_retry_cnt, lambda _k: p.health_cooldown,
                "device:replay-cooldown", errors=_LINK_FAILURES, count_last=False,
                before=before, first=first,
            )
            return route
        try:
            yield from (attempt() if first is None else first)
            return route
        except _LINK_FAILURES:
            rung = self._fallback(route, ctx, pe)
            if rung is None:
                raise
        yield from handlers[rung.protocol](self, ctx, rung, *args, pe)
        return rung

    # ================================================ op issue (per design)
    def _issue_dispatch(self, ctx, name: Optional[str] = "shmem:dispatch") -> Generator:
        """API-entry cost of one op.  Host-initiated designs pay the
        host-side software dispatch; the device-initiated design pays a
        (much cheaper) in-kernel issue slot — plus, on the very first
        device op of a PE, the one-time persistent-kernel launch that
        the design amortises away (DESIGN.md §11)."""
        p = self.params
        if not self.spec.device_initiated:
            yield self.sim.timeout(p.shmem_dispatch_overhead, name=name)
            return
        if ctx.pe not in self._warmed_pes:
            self._warmed_pes.add(ctx.pe)
            span = self._op_span(ctx, "device:kernel_warmup")
            try:
                yield self.sim.timeout(p.kernel_launch_overhead, name="device:warmup")
            finally:
                self._end_span(span)
        yield self.sim.timeout(p.device_issue_overhead, name="device:issue")

    def _issue_lookup(self, ctx) -> Generator:
        """Address-translation cost: the host-side heap-table lookup,
        or the device-side translation a device-resident table allows."""
        p = self.params
        if self.spec.device_initiated:
            yield self.sim.timeout(p.device_translate_overhead, name="device:translate")
        else:
            yield self.sim.timeout(p.shmem_lookup_overhead, name="shmem:lookup")

    def _route(
        self, ctx, op: Op, local_on_device: bool, domain: Domain, nbytes: int, pe: int
    ) -> Route:
        """The design's protocol for one put or get, selected once per
        key.  Selection is pure — the parameters are frozen and the
        topology is fixed after setup — so the memo never goes stale.  A
        selection error propagates and is never cached: every call that
        hits it raises again."""
        key = (op, ctx.pe, pe, local_on_device, domain, nbytes)
        route = self._routes.get(key)
        if route is None:
            local_ss, remote_ss = self._socket_flags(ctx, pe)
            route = self._routes[key] = self.selector.select(
                op, Config.of(local_on_device, domain is Domain.GPU), self.locality(ctx, pe),
                nbytes, local_same_socket=local_ss, remote_same_socket=remote_ss,
            )
        return route

    def _issue(
        self, ctx, op: Op, local_on_device: bool, sym: SymAddr, nbytes: int, pe: int,
        plan: Optional[PutPlan] = None,
    ) -> Generator:
        """The put/get prologue: dispatch, route (steered off unhealthy
        paths), count, ``route:`` instant, lookup, then resolve the
        remote address.  Returns ``(route, remote_ptr)``.  A put's
        ``plan``, when it has one, supplies the route and the address.

        The route is a pure memo, so it is selected at the issue instant
        and both fixed delays are one wake-up at ``(now + dispatch) +
        lookup``, the float sum the two timeouts give; the ``route:``
        instant is stamped at ``now + dispatch``.  The two timeouts stay
        where the gap between them can be observed: a selection error
        surfaces after dispatch, a device PE's first op pays the kernel
        warm-up inside dispatch, and under a health tracker a route with
        GDR legs is steered (and the tracker's cooldowns probed) at
        ``now + dispatch``, against live link state."""
        sim = self.sim
        if plan is not None:
            route = plan.route
        else:
            try:
                route = self._route(ctx, op, local_on_device, sym.domain, nbytes, pe)
            except Exception:
                route = None
        if (route is None
                or self.spec.device_initiated and ctx.pe not in self._warmed_pes
                or self.health is not None and self._route_gdr_legs(route, ctx, pe)):
            yield from self._issue_dispatch(ctx)
            if route is None:  # raises again, now after dispatch
                route = self._route(ctx, op, local_on_device, sym.domain, nbytes, pe)
            if self.health is not None:
                route = self._health_reroute(route, ctx, pe)
            self._count_route(ctx, route, sim.now)
            yield from self._issue_lookup(ctx)
        else:
            dispatch, lookup = self._issue_delays
            at = sim.now + dispatch
            self._count_route(ctx, route, at)
            yield sim.wake_at(at + lookup, name="shmem:issue")
        return route, self.resolve(sym, pe) if plan is None else plan.dst_ptr

    def _count_route(self, ctx, route: Route, at: float) -> None:
        """Count the op's protocol and trace its ``route:`` instant at ``at``."""
        self._count(route)
        tracer = self.sim.tracer
        if tracer is not None:
            tracer.instant(
                self.sim, f"route:{route.protocol_name}", "route", f"pe{ctx.pe}", at=at,
                **route.span_args(),
            )

    def _series(self, pe: int, kind: str, route: Route) -> Tuple[str, str]:
        """The probe series of a ``kind`` op on ``route`` from PE ``pe``:
        ``kind:protocol`` and ``pe<pe>.kind:protocol``, named once."""
        key = (pe, kind, route.protocol)
        names = self._series_names.get(key)
        if names is None:
            name = route.protocol_name
            names = self._series_names[key] = (f"{kind}:{name}", f"pe{pe}.{kind}:{name}")
        return names

    def _sample(self, ctx, series: Tuple[str, str], t0: float) -> None:
        """Record one op's protocol-execution time, globally and per PE."""
        elapsed = self.sim.now - t0
        probe = ctx.probe
        probe.sample(series[0], elapsed)
        probe.sample(series[1], elapsed)

    def _fallback(self, route: Route, ctx, pe: int) -> Optional[Route]:
        """Reactive failover step for a put or get that died even after
        RC retries: the next rung of the design's ladder (descending
        further while a rung shares the bad leg — the pipeline still
        GDR-writes the target GPU), counted; ``None`` when there is no
        rung to take."""
        fallback = self._failover_route(route)
        if fallback is None:
            return None
        self.sim.stats.failovers += 1
        fallback = self._health_reroute(fallback, ctx, pe)
        self._count(fallback)
        return fallback

    # ============================================================== put
    def putmem(self, ctx, dst: SymAddr, src: Ptr, nbytes: int, pe: int) -> Generator:
        """One-sided put; returns at local completion.  See module docs."""
        self._check_pe(pe)
        if nbytes <= 0:
            raise ShmemError(f"putmem of {nbytes} bytes")
        plan = self._put_plan(ctx, dst, src, nbytes, pe)
        fast = None if plan is None else self._fast_rdma_put(ctx, plan, src, dst, nbytes, pe)
        if fast is not None:
            posted, t0 = fast
            yield posted
            series = plan.series
        else:
            span = self._op_span(ctx, "shmem:put", nbytes=nbytes, target_pe=pe)
            try:
                route, dst_ptr = yield from self._issue(
                    ctx, Op.PUT, src.kind is MemKind.DEVICE, dst, nbytes, pe, plan
                )
                handler = self._PUT_HANDLERS[route.protocol]
                t0 = self.sim.now
                yield from handler(self, ctx, route, src, dst, dst_ptr, nbytes, pe)
            finally:
                self._end_span(span)
            if plan is not None and route is plan.route:
                series = plan.series
            else:
                series = self._series(ctx.pe, "put", route)
        self._sample(ctx, series, t0)
        return None

    def _put_plan(self, ctx, dst: SymAddr, src: Ptr, nbytes: int, pe: int) -> Optional[PutPlan]:
        """The plan of this put's signature: the calling and target PEs,
        where the source lives (kind, device, node), the destination's
        domain and offset, and the size.  ``None`` when the signature
        fails validation; a failure is never cached, so the op's own
        path raises it at the accurate instant every time."""
        alloc = src.alloc
        key = (ctx.pe, pe, alloc.kind, alloc.device_id, alloc.node_id, dst.domain, dst.offset,
               nbytes)
        plan = self._plans.get(key)
        if plan is None:
            try:
                plan = self._plans[key] = self._make_plan(ctx, dst, src, nbytes, pe)
            except Exception:
                return None
        return plan

    def _make_plan(self, ctx, dst: SymAddr, src: Ptr, nbytes: int, pe: int) -> PutPlan:
        """Validate and resolve one put signature (see :class:`PutPlan`):
        the checks and lookups the event path makes at issue and at post."""
        route = self._route(ctx, Op.PUT, src.kind is MemKind.DEVICE, dst.domain, nbytes, pe)
        dst_ptr = self.resolve(dst, pe)
        series = self._series(ctx.pe, "put", route)
        if route.protocol not in _RDMA_PUT_PROTOCOLS:
            return PutPlan(route, dst_ptr, series)
        ep = ctx.endpoint
        mr = self._remote_mr(dst, pe)
        self.verbs._check_local(ep, src)
        mr.check_range(dst.offset, nbytes)
        remote_hca = ep.hca_id if route.protocol is Protocol.GDR_LOOPBACK else None
        path, dst_hca = self.verbs.write_path(ep, src, mr, nbytes, remote_hca)
        return PutPlan(route, dst_ptr, series, mr, remote_hca, (dst_ptr, path, dst_hca))

    # --- copy-based puts (blocking; delivery == return) ----------------
    def _put_copy(self, ctx, route, src, dst, dst_ptr, nbytes, pe) -> Generator:
        yield from ctx.cuda.memcpy(dst_ptr, src, nbytes)
        self._notify(pe)

    def _put_staged_host(self, ctx, route, src, dst, dst_ptr, nbytes, pe) -> Generator:
        yield from self._staged_host(ctx, dst_ptr, src, nbytes)
        self._notify(pe)

    def _staged_host(self, ctx, final_dst, orig_src, nbytes) -> Generator:
        """Baseline's two-copy intra-node path, put or get: chunk by
        chunk through the caller's own host staging slots."""
        fast = self._fast_staged(ctx, final_dst, orig_src, nbytes)
        if fast is not None:
            yield fast
            return
        pool = self.staging[ctx.pe]

        def unstage(wire_src, slot, offset, csize) -> Generator:
            try:
                yield from ctx.cuda.memcpy(final_dst + offset, wire_src, csize)
            finally:
                pool.release(slot)

        stage = (pool, ctx.cuda.memcpy)
        yield from chunk_stream(nbytes, self.params.pipeline_chunk, orig_src, unstage, stage)

    @property
    def tiers_armed(self) -> bool:
        """Whether the fast tiers (:meth:`_fast_staged`,
        :meth:`_fast_rdma_put`) may commit at all: the kill switch is on
        and no span tracer or health tracker hooks the event path.  When
        this is false a run takes the event path for every op."""
        return self.sim.fastpath and self.sim.tracer is None and self.health is None

    def _fast_staged(self, ctx, final_dst, orig_src, nbytes) -> Optional[Event]:
        """Closed-form replay of the serial two-copy staging loop.

        Commits only when the simulation is quiescent (see
        :mod:`repro.shmem.fastpath`): the loop is then strictly
        sequential and its completion instant is a plain accumulation,
        so one absolute wake-up replaces ~14 events per chunk.  Returns
        the event to yield on, or ``None`` to take the event path.
        """
        sim = self.sim
        if not (self.tiers_armed and sim.quiescent()):
            return None
        pool = self.staging[ctx.pe]
        if not pool.idle:
            return None
        chunks = chunked(nbytes, self.params.pipeline_chunk)
        slot_ptr = pool.alloc.ptr(0)
        try:
            sizes = sorted(set(chunks))
            first_specs = {c: ctx.cuda._spec_for(slot_ptr, orig_src, c) for c in sizes}
            second_specs = {c: ctx.cuda._spec_for(final_dst, slot_ptr, c) for c in sizes}
            final_dst._check(nbytes)
            orig_src._check(nbytes)
        except Exception:
            return None  # let the event path raise at the accurate instant
        dirs = merged_directions(
            [first_specs[chunks[0]], second_specs[chunks[0]]]
        )
        if not claimable(dirs):
            return None
        payload = orig_src.snapshot(nbytes)

        t_end = plan_staged(sim.now, chunks, first_specs, second_specs)
        holds = claim(dirs)
        slot = pool.take_nowait()
        done = sim.wake_at(t_end, name="staged:fast")

        def finish(_ev) -> None:
            release(holds)
            pool.release(slot)
            for c in chunks:
                first_specs[c].count_transfer()
                second_specs[c].count_transfer()
            final_dst.write(payload)
            payload.release()

        done.callbacks.append(finish)
        sim.stats.fastpath_batches += 1
        return done

    # --- RDMA-based puts (return at post; completion tracked) ----------
    def _fast_rdma_put(self, ctx, plan: PutPlan, src: Ptr, dst: SymAddr, nbytes: int, pe: int):
        """Tier-2 commit: post a single-RDMA put's write at the op's
        call, with no issue wake-up and no resume of putmem's generator.

        The write is the event path's own planned, detached
        :class:`~repro.ib.verbs.RdmaWrite` (:meth:`_post_write`), built
        now with ``start=t0``, the instant the issue wake-up would end
        (the same float sum), so its post wake-up lands where the event
        path's does and draws its heap sequence number here, at the
        commit.  From the post on, the put runs the event path's very
        callbacks, so contended windows price themselves bit-identically.
        Returns ``(posted, t0)`` for the caller to yield/sample on, or
        ``None`` to take the event path: for a route that is not a
        single RDMA write, a device PE's first op (its kernel warm-up is
        charged inside dispatch), and whenever the tiers are disarmed
        (:attr:`tiers_armed`).
        """
        if plan.write is None or not self.tiers_armed:
            return None
        if self.spec.device_initiated and ctx.pe not in self._warmed_pes:
            return None
        dispatch, lookup = self._issue_delays
        t0 = (self.sim.now + dispatch) + lookup
        self._count(plan.route)
        posted, _, _ = self._post_write(
            ctx, src, dst, nbytes, pe, plan.mr, plan.remote_hca, plan.write, start=t0
        )
        self.sim.stats.analytic_flows += 1
        return posted, t0

    def _post_write(
        self, ctx, src, dst, nbytes, pe, mr, remote_hca, planned, start=None, post=True
    ) -> Tuple[Event, Event, Optional[RdmaWrite]]:
        """Build one put's write, for both put sites: ``posted``,
        ``delivered`` (whose callback is PE ``pe``'s shared notifier)
        and, when ``post``, the detached
        :class:`~repro.ib.verbs.RdmaWrite` over them, tracked by
        ``ctx``.  ``planned`` and ``start`` pass through to the write.
        Returns ``(posted, delivered, write)``; ``write`` is ``None``
        when not posted or when its checks raised, and the caller then
        runs the write as a process."""
        sim = self.sim
        posted = Event(sim, "put:posted")
        delivered = Event(sim, "put:delivered")
        delivered.callbacks.append(self._notifiers[pe])
        if not post:
            return posted, delivered, None
        try:
            write = RdmaWrite(
                self.verbs, self.endpoints[ctx.pe], src, mr, dst.offset, nbytes, remote_hca,
                delivered, posted, detached=True, planned=planned, start=start,
            )
        except Exception:
            return posted, delivered, None  # invalid: the caller's process raises it
        ctx.track(write)
        return posted, delivered, write

    def _remote_mr(self, dst: SymAddr, pe: int) -> MemoryRegion:
        info = self.heap_of(pe, dst.domain)
        if info.mr is None:
            raise ShmemError(
                f"{dst.domain.value} heap of PE {pe} is not registered with the "
                f"HCA under the {self.design!r} design"
            )
        return info.mr

    def _put_rdma(self, ctx, route, src, dst, dst_ptr, nbytes, pe) -> Generator:
        """Single-RDMA put: Direct GDR, host RDMA, GDR loopback (the
        local HCA writes back into its own node) and the device-initiated
        design's put.  In the last, a GPU thread rings the HCA doorbell
        itself: on the wire it is the same single RDMA as Direct GDR.

        The write is posted from here and runs as callbacks
        (:class:`~repro.ib.verbs.RdmaWrite`); the caller resumes on
        ``posted``.  Under faults a failed or stalled attempt hands the
        rest of the write to :meth:`_recover`, started as the op's one
        process; a write that fails has posted and not delivered, so
        replays reuse both events.  An invalid write, or a device write
        whose path is down at the doorbell, runs as a process from the
        start, so it raises or waits at the instants it always has.  A
        valid write has a put plan (``route`` is its route: a health
        reroute never lands on a single-RDMA protocol), which has made
        the write's checks and resolved its path."""
        plan = self._put_plan(ctx, dst, src, nbytes, pe)
        if plan is None:
            mr = self._remote_mr(dst, pe)
            remote_hca = ctx.endpoint.hca_id if route.protocol is Protocol.GDR_LOOPBACK else None
            planned = None
        else:
            mr, remote_hca, planned = plan.mr, plan.remote_hca, plan.write
        health = self.health
        post = health is None or not (
            self.spec.device_initiated and self._device_path_blocked(ctx, src, dst, nbytes, pe)
        )
        posted, delivered, done = self._post_write(
            ctx, src, dst, nbytes, pe, mr, remote_hca, planned, post=post
        )
        if health is not None or done is None:
            attempt = partial(
                self.verbs.rdma_write, ctx.endpoint, src, mr, dst.offset, nbytes,
                remote_hca=remote_hca, delivered=delivered, posted=posted,
            )
            recover = None
            if health is not None:
                recover = partial(
                    self._recover, ctx, route, attempt, self._PUT_HANDLERS,
                    (src, dst, dst_ptr, nbytes), pe,
                    before=partial(self._wait_device_path_clear, ctx, src, dst, nbytes, pe),
                )
            if done is not None:
                done.recover = recover  # read only once the write has posted
            else:
                done = self.sim.process(
                    attempt() if recover is None else recover(), name=f"pe{ctx.pe}:rdma-put"
                )
                ctx.track(done)
                self._bridge_failure(done, posted)
        yield posted

    def _device_path_blocked(self, ctx, src, dst, nbytes, pe) -> bool:
        """Is a leg of a device write's path down right now?  ``False``
        on any lookup error, so the write itself raises at its instant."""
        try:
            mr = self._remote_mr(dst, pe)
            path, _ = self.verbs.write_path(ctx.endpoint, src, mr, nbytes)
        except Exception:
            return False
        return any(d.blocks(path.leg_label(d)) for d in path.directions())

    def _wait_device_path_clear(self, ctx, src, dst, nbytes, pe) -> Generator:
        """Deferred WQE start for device-initiated writes under faults.

        The doorbell has rung, but an RC HCA does not begin the wire
        crossing while a leg of the path is down — it holds the WQE and
        retries on its own timer.  Host designs get the equivalent
        protection from :meth:`_health_reroute` (they steer onto a
        fallback protocol before posting); the device design has no
        ladder, so it waits the path out instead."""
        while self._device_path_blocked(ctx, src, dst, nbytes, pe):
            yield self.sim.timeout(self.params.health_cooldown, name="device:defer-wqe")

    def _put_pipeline_gdr_write(self, ctx, route, src, dst, dst_ptr, nbytes, pe) -> Generator:
        """Proposed large-message put (Fig 4 dotted): D2H staging chunks
        + RDMA written straight to the final destination (GDR when the
        destination is device memory).  Returns once the last staging
        copy is done and its write posted — the paper's stated put-return
        point (§III-C)."""
        mr = self._remote_mr(dst, pe)

        def write(_src, slot, offset, csize) -> Event:
            posted = self.sim.event("pgw:posted")
            proc = self.sim.process(
                self._write_then_release(ctx, slot, mr, dst.offset + offset, csize, pe, posted),
                name=f"pe{ctx.pe}:pgw",
            )
            ctx.track(proc)
            self._bridge_failure(proc, posted)
            return posted

        stage = (self.staging[ctx.pe], partial(self.reliable_memcpy, ctx.cuda))
        posts = yield from chunk_stream(nbytes, self.params.pipeline_chunk, src, write, stage)
        yield posts[-1]

    def _write_then_release(self, ctx, slot, mr, offset, csize, pe, posted) -> Generator:
        """Write one staged chunk to its final place.  Under a fault plan
        a write that dies even after RC retries is re-delivered through
        the target node's proxy (a pure host RDMA into proxy staging, no
        GDR legs); idempotent, as the chunk stays in its slot until then."""
        try:
            try:
                yield from self.verbs.rdma_write(
                    ctx.endpoint, slot.ptr, mr, offset, csize, posted=posted
                )
            except _LINK_FAILURES:
                target_node, _ = self.hw.pe_location(pe)
                proxy = self.proxies.get(target_node) if self.health is not None else None
                if proxy is None:
                    raise
                self.sim.stats.failovers += 1
                landing = proxy.landing
                pslot = yield from landing.pool.acquire()
                done = self.sim.event("pgw-failover:done")
                yield from self._land(
                    ctx.endpoint, slot.ptr, None, landing, pslot, mr.ptr(offset), csize, done, pe
                )
                yield done
        finally:
            self.staging[ctx.pe].release(slot)
        self._notify(pe)

    def _put_landed(self, ctx, route, src, dst, dst_ptr, nbytes, pe) -> Generator:
        """Far-side staged put: the baseline host pipeline (Fig 1) and
        the proxy put (Fig 5).  Each chunk — staged D2H first when the
        source is device memory — lands in far-side staging through
        :meth:`_land`.  The baseline pays a rendezvous handshake and
        lands at the target PE, whose engine progresses only while the
        target is inside the runtime; the target node's proxy is always
        on."""
        p = self.params
        if route.protocol is Protocol.HOST_PIPELINE:
            yield self.sim.timeout(p.pipeline_handshake_overhead, name="hp:handshake")
            landing = self.landings[pe]
        else:
            target_node, _ = self.hw.pe_location(pe)
            landing = self.proxies[target_node].landing

        def land(wire_src, src_slot, offset, csize) -> Generator:
            lslot = yield from landing.pool.acquire()
            done = self.sim.event("land:done")
            proc = self.sim.process(
                self._land(
                    ctx.endpoint, wire_src, src_slot, landing, lslot, dst_ptr + offset, csize,
                    done, pe,
                ),
                name=f"pe{ctx.pe}:land",
            )
            ctx.track(proc)
            ctx.track(done)

        stage = (self.staging[ctx.pe], ctx.cuda.memcpy) if src.kind is MemKind.DEVICE else None
        yield from chunk_stream(nbytes, p.pipeline_chunk, src, land, stage)

    def _land(
        self, endpoint, src, src_slot, landing, lslot, dst, nbytes, done, notify_pe=None
    ) -> Generator:
        """The far-side landing of one staged chunk: RDMA-write
        ``nbytes`` at ``src`` into ``landing``'s slot ``lslot``, hand
        back the source slot (``None``: the caller keeps it), wait the
        landing's signal delay, then queue on the landing's engine the
        final copy into ``dst``, the slot's release and a notify of
        ``notify_pe``; the engine succeeds or fails ``done``.  A write
        that dies hands back both slots, source first, and re-raises."""
        pool = landing.pool
        try:
            try:
                yield from self.verbs.rdma_write(endpoint, src, pool.mr, lslot.offset, nbytes)
            finally:
                if src_slot is not None:
                    src_slot.pool.release(src_slot)
        except BaseException:
            pool.release(lslot)
            raise
        if landing.signal is not None:
            yield self.sim.timeout(landing.signal, name="land:signal")

        def finish() -> Generator:
            try:
                yield from landing.copy(dst, lslot.ptr, nbytes)
            finally:
                pool.release(lslot)
            if notify_pe is not None:
                self._notify(notify_pe)

        landing.engine.submit(ServiceItem(run=finish, done=done, label="land"))

    _PUT_HANDLERS = {
        Protocol.LOCAL_COPY: _put_copy,
        Protocol.SHM_COPY: _put_copy,
        Protocol.IPC_COPY: _put_copy,
        Protocol.SHM_DIRECT_COPY: _put_copy,
        Protocol.STAGED_HOST_COPY: _put_staged_host,
        Protocol.GDR_LOOPBACK: _put_rdma,
        Protocol.DIRECT_GDR: _put_rdma,
        Protocol.RDMA_HOST: _put_rdma,
        Protocol.PIPELINE_GDR_WRITE: _put_pipeline_gdr_write,
        Protocol.HOST_PIPELINE: _put_landed,
        Protocol.PROXY: _put_landed,
        #: Device-initiated kernels load/store straight through
        #: peer-mapped memory; on simulated hardware that moves the
        #: same bytes over the same wires as the one-copy protocols.
        Protocol.DEVICE_P2P: _put_copy,
        Protocol.DEVICE_GDR: _put_rdma,
    }

    # ============================================================== get
    def getmem(self, ctx, dst: Ptr, src: SymAddr, nbytes: int, pe: int) -> Generator:
        """One-sided get; blocks until the data is locally available."""
        self._check_pe(pe)
        if nbytes <= 0:
            raise ShmemError(f"getmem of {nbytes} bytes")
        span = self._op_span(ctx, "shmem:get", nbytes=nbytes, target_pe=pe)
        try:
            route, src_ptr = yield from self._issue(
                ctx, Op.GET, dst.kind is MemKind.DEVICE, src, nbytes, pe
            )
            handler = self._GET_HANDLERS[route.protocol]
            t0 = self.sim.now
            if self.health is None:
                yield from handler(self, ctx, route, dst, src, src_ptr, nbytes, pe)
            else:
                # Gets block, so recovery runs inline in the caller.
                route = yield from self._recover(
                    ctx, route, partial(handler, self, ctx, route, dst, src, src_ptr, nbytes, pe),
                    self._GET_HANDLERS, (dst, src, src_ptr, nbytes), pe,
                )
        finally:
            self._end_span(span)
        self._sample(ctx, self._series(ctx.pe, "get", route), t0)
        ctx.memory_changed()
        return None

    def _get_copy(self, ctx, route, dst, src, src_ptr, nbytes, pe) -> Generator:
        yield from ctx.cuda.memcpy(dst, src_ptr, nbytes)

    def _get_staged_host(self, ctx, route, dst, src, src_ptr, nbytes, pe) -> Generator:
        yield from self._staged_host(ctx, dst, src_ptr, nbytes)

    def _get_rdma(self, ctx, route, dst, src, src_ptr, nbytes, pe) -> Generator:
        """Single-RDMA get: Direct GDR, host RDMA, GDR loopback and the
        device-initiated design's get (doorbell rung from the device)."""
        mr = self._remote_mr(src, pe)
        remote_hca = ctx.endpoint.hca_id if route.protocol is Protocol.GDR_LOOPBACK else None
        yield from self.verbs.rdma_read(
            ctx.endpoint, dst, mr, src.offset, nbytes, remote_hca=remote_hca
        )

    def _get_host_pipeline(self, ctx, route, dst, src, src_ptr, nbytes, pe) -> Generator:
        """Baseline inter-node get: ask the *remote process* to push the
        data back through the host pipeline (two-sided in disguise)."""
        p = self.params
        yield self.sim.timeout(p.pipeline_handshake_overhead, name="hp-get:handshake")
        remote_cuda = self.job.contexts[pe].cuda
        remote_pool, my_pool = self.staging[pe], self.rx_staging[ctx.pe]

        def push(wire_src, _slot, offset, csize) -> Generator:
            # Both slots are held before the remote stage copy starts.
            rslot = yield from remote_pool.acquire()
            mslot = yield from my_pool.acquire()
            try:
                yield from remote_cuda.memcpy(rslot.ptr, wire_src, csize)
                yield from self.verbs.rdma_write(
                    self.endpoints[pe], rslot.ptr, my_pool.mr, mslot.offset, csize
                )
                yield from ctx.cuda.memcpy(dst + offset, mslot.ptr, csize)
            finally:
                remote_pool.release(rslot)
                my_pool.release(mslot)

        done = self.sim.event("hp-get:done")
        respond = partial(chunk_stream, nbytes, p.pipeline_chunk, src_ptr, push)
        self.service[pe].submit(ServiceItem(run=respond, done=done, label="hp:get"))
        yield done

    def _get_proxy(self, ctx, route, dst, src, src_ptr, nbytes, pe) -> Generator:
        """Proposed large get: the *remote proxy* pipelines the data back
        (Fig 5) — reverse Pipeline-GDR-write, no remote PE involvement."""
        p = self.params
        remote_node, _ = self.hw.pe_location(pe)
        proxy = self.proxies[remote_node]
        # Signal crosses the fabric to the remote proxy.
        yield self.sim.timeout(
            p.proxy_signal_overhead + p.rdma_post_overhead + p.ib_wire_latency,
            name="proxy:signal",
        )
        local_ss, _ = self._socket_flags(ctx, pe)
        landing = dst_mr = None
        if dst.kind is MemKind.DEVICE and not local_ss:
            landing = self.landings[ctx.pe]  # the inter-socket workaround
        else:
            dst_mr = yield from self.ensure_mr(dst.alloc)
        done = self.sim.event("proxy-get:done")
        run = partial(proxy.get_pipeline, src_ptr, dst, dst_mr, landing, nbytes)
        proxy.engine.submit(ServiceItem(run=run, done=done, label="proxy-get"))
        yield done

    _GET_HANDLERS = {
        Protocol.LOCAL_COPY: _get_copy,
        Protocol.SHM_COPY: _get_copy,
        Protocol.IPC_COPY: _get_copy,
        Protocol.SHM_DIRECT_COPY: _get_copy,
        Protocol.STAGED_HOST_COPY: _get_staged_host,
        Protocol.GDR_LOOPBACK: _get_rdma,
        Protocol.DIRECT_GDR: _get_rdma,
        Protocol.RDMA_HOST: _get_rdma,
        Protocol.HOST_PIPELINE: _get_host_pipeline,
        Protocol.PROXY: _get_proxy,
        Protocol.DEVICE_P2P: _get_copy,
        Protocol.DEVICE_GDR: _get_rdma,
    }

    # ======================================================== ordering
    def quiet(self, ctx) -> Generator:
        """Block until every outstanding op of this PE completed remotely.

        Failed background operations (e.g. a downed link) re-raise here,
        the completion point one-sided semantics prescribe.

        Under the device-initiated design quiet executes *device-side*:
        once the persistent kernel is warm, the issuing thread flushes
        its in-kernel descriptor queue and fences device memory
        (``device_quiet_overhead``) before the completion wait — no
        host round-trip is involved."""
        if self.spec.device_initiated and ctx.pe in self._warmed_pes:
            yield self.sim.timeout(self.params.device_quiet_overhead, name="device:quiet")
        while ctx.pending:
            batch, ctx.pending[:] = list(ctx.pending), []
            live = [ev for ev in batch if not ev._processed]
            if live:
                # Always through the AllOf wrapper, even for a single
                # event: waiting on the op directly would resume this
                # PE one scheduler hop earlier, flipping same-instant
                # tie order against concurrent PEs (observable as
                # timing drift at scale).
                yield self.sim.all_of(live)  # raises on any failure
            for ev in batch:
                if ev._processed and ev._exc is not None:
                    raise ev._exc
        return None

    def fence(self, ctx) -> Generator:
        """Per-target ordering.  Deliveries already complete in post
        order per destination in this model, so fence == quiet."""
        yield from self.quiet(ctx)

    # ------------------------------------------------------ span helper
    def _op_span(self, ctx, name: str, **args):
        """Open a runtime-level span on PE ``ctx.pe``'s track (or None
        when no tracer is attached).  Close via ``_end_span``."""
        tracer = self.sim.tracer
        if tracer is None:
            return None
        return tracer.begin(self.sim, name, "shmem", f"pe{ctx.pe}", **args)

    def _end_span(self, span) -> None:
        if span is not None:
            self.sim.tracer.end(self.sim, span)

    # ========================================================= atomics
    def _atomic(
        self, ctx, name: str, call, sym: SymAddr, pe: int, nbytes: int, *operands
    ) -> Generator:
        """One remote atomic: span, dispatch, target validation, then the
        verbs ``call(endpoint, mr, offset, *operands, nbytes)``; wakes
        the target's watchers and returns the previous value.  Every
        design supports host-heap atomics (the host heap is always
        registered); GPU-resident atomics additionally need the GDR
        registration only the enhanced designs perform (§III-D)."""
        span = self._op_span(ctx, name, target_pe=pe, nbytes=nbytes)
        try:
            yield from self._issue_dispatch(ctx, name=None)
            self._check_pe(pe)
            mr = self._remote_mr(sym, pe)
            old = yield from call(ctx.endpoint, mr, sym.offset, *operands, nbytes)
        finally:
            self._end_span(span)
        self._notify(pe)
        return old

    def atomic_fetch_add(self, ctx, sym: SymAddr, value: int, pe: int, nbytes: int = 8) -> Generator:
        old = yield from self._atomic(
            ctx, "shmem:atomic_fetch_add", self.verbs.fetch_add, sym, pe, nbytes, value
        )
        return old

    def atomic_compare_swap(
        self, ctx, sym: SymAddr, compare: int, swap: int, pe: int, nbytes: int = 8
    ) -> Generator:
        old = yield from self._atomic(
            ctx, "shmem:atomic_compare_swap", self.verbs.compare_swap, sym, pe, nbytes,
            compare, swap,
        )
        return old

    def atomic_swap(self, ctx, sym: SymAddr, value: int, pe: int, nbytes: int = 8) -> Generator:
        old = yield from self._atomic(
            ctx, "shmem:atomic_swap", self.verbs.swap, sym, pe, nbytes, value
        )
        return old

    def atomic_fetch(self, ctx, sym: SymAddr, pe: int, nbytes: int = 8) -> Generator:
        old = yield from self.atomic_fetch_add(ctx, sym, 0, pe, nbytes)
        return old

    def atomic_set(self, ctx, sym: SymAddr, value: int, pe: int, nbytes: int = 8) -> Generator:
        yield from self.atomic_swap(ctx, sym, value, pe, nbytes)
        return None

    # ======================================================== shmem_ptr
    def shmem_ptr(self, ctx, sym: SymAddr, pe: int) -> Optional[Ptr]:
        """Direct load/store pointer to a peer's symmetric object, when
        the hardware allows it (same node: shm for host, IPC for GPU)."""
        self._check_pe(pe)
        if not self.hw.same_node(ctx.pe, pe):
            return None
        if sym.domain is Domain.GPU and (pe, Domain.GPU) not in self.heaps:
            return None
        return self.resolve(sym, pe)
