"""Calibrated hardware constants.

Every latency is in **seconds**, every bandwidth in **bytes/second**.

The defaults model a Wilkes-like node (dual-socket Intel IvyBridge,
NVIDIA Tesla K20, Mellanox FDR ConnectX-3).  The bandwidths are the
paper's own figures: FDR 6397 MB/s (Table III caption) and the four
Table III P2P rates.  The software overheads are fitted so the
micro-benchmarks land near the paper's anchor latencies; those anchors
are conditions of the experiments' claims
(:mod:`repro.reporting.experiments`), checked on the pinned runs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Dict

from repro.errors import ConfigurationError
from repro.units import MBps, usec


@dataclass(frozen=True)
class HardwareParams:
    """Timing/bandwidth constants for the simulated test bed."""

    # ----------------------------------------------------------- InfiniBand
    #: Peak FDR bandwidth usable by a single HCA port (Table III caption).
    ib_bandwidth: float = MBps(6397)
    #: One-way wire + switch traversal latency between two nodes.
    ib_wire_latency: float = usec(0.70)
    #: HCA processing to inject a message (per message, send side).
    hca_tx_overhead: float = usec(0.25)
    #: HCA processing to land a message into host memory (recv side).
    hca_rx_overhead: float = usec(0.25)
    #: CPU cost of posting one verbs work request (descriptor + doorbell).
    rdma_post_overhead: float = usec(0.30)
    #: Extra wire time for the RDMA ack returning to the source.
    rdma_ack_latency: float = usec(0.50)
    #: Loopback "wire" latency when source and target HCA are the same.
    loopback_wire_latency: float = usec(0.10)
    #: Hardware fetch-add / compare-swap execution time at the target HCA.
    hca_atomic_overhead: float = usec(0.60)
    #: Extra per-op cost of masked (<8 B) emulated atomics (§III-D).
    masked_atomic_overhead: float = usec(0.35)

    # ------------------------------------------------------ PCIe (host<->GPU)
    #: cudaMemcpy H2D / D2H streaming bandwidth (PCIe gen2 x16 on K20).
    pcie_h2d_bandwidth: float = MBps(6000)
    pcie_d2h_bandwidth: float = MBps(6200)
    #: Driver/launch overhead of a synchronous cudaMemcpy (dominates small).
    cuda_copy_overhead: float = usec(6.0)
    #: Extra overhead when the copy crosses a CUDA IPC mapping.
    cuda_ipc_overhead: float = usec(0.20)
    #: Device-to-device copy bandwidth inside one GPU.
    gpu_local_bandwidth: float = MBps(140_000)
    #: Kernel launch overhead.
    kernel_launch_overhead: float = usec(5.0)

    # -------------------------------------------- PCIe peer-to-peer (Table III)
    #: HCA (or peer device) *reading* GPU memory, same socket.
    p2p_read_bw_intra_socket: float = MBps(3421)
    #: HCA *writing* GPU memory, same socket.
    p2p_write_bw_intra_socket: float = MBps(6396)
    #: HCA reading GPU memory across the QPI socket interconnect.
    p2p_read_bw_inter_socket: float = MBps(247)
    #: HCA writing GPU memory across QPI.
    p2p_write_bw_inter_socket: float = MBps(1179)
    #: Added latency for one PCIe P2P transaction setup (per message).
    p2p_latency: float = usec(0.45)
    #: Extra latency when the P2P transaction crosses QPI.
    qpi_latency: float = usec(0.40)

    # ------------------------------------------------------------- host memory
    #: memcpy bandwidth between two host buffers (incl. POSIX shm).
    host_memcpy_bandwidth: float = MBps(9000)
    #: Fixed overhead of a host memcpy issued by the runtime.
    host_memcpy_overhead: float = usec(0.40)

    # ------------------------------------------------------------ GPU compute
    #: Sustained double-precision rate used by the app compute models.
    gpu_flops: float = 0.70e12  # K20: 1.17 TF peak, ~60% sustained
    #: Device-memory streaming bandwidth for bandwidth-bound kernels.
    gpu_mem_bandwidth: float = MBps(150_000)

    # -------------------------------------------------------- runtime software
    #: Per-call software overhead of the OpenSHMEM API layer.
    shmem_dispatch_overhead: float = usec(0.20)
    #: Address translation + descriptor lookup from the init-time table.
    shmem_lookup_overhead: float = usec(0.10)
    #: Device-initiated design: per-op issue slot inside a running
    #: kernel (queue a descriptor + ring the doorbell from a GPU
    #: thread) — replaces ``shmem_dispatch_overhead`` once the
    #: persistent kernel is warm (``kernel_launch_overhead`` covers the
    #: one-time warm-up per PE).
    device_issue_overhead: float = usec(0.08)
    #: Device-initiated design: device-side symmetric-heap translation
    #: (the table lives in device memory) — replaces
    #: ``shmem_lookup_overhead``.
    device_translate_overhead: float = usec(0.02)
    #: Device-initiated design: quiet/fence executed device-side
    #: (flush the in-kernel descriptor queue + memory fence).
    device_quiet_overhead: float = usec(0.15)
    #: Host-Pipeline runtime handshake per message (rendezvous/notify).
    pipeline_handshake_overhead: float = usec(4.20)
    #: Time for the target process to notice and service a pipeline stage
    #: when it is *inside* the runtime (its progress engine polls).
    target_progress_poll: float = usec(1.50)
    #: Signalling a proxy (small RDMA send into its work queue).
    proxy_signal_overhead: float = usec(0.90)
    #: Proxy dequeue + dispatch time per work item.
    proxy_dispatch_overhead: float = usec(0.60)
    #: CPU-compute slowdown when a service thread occupies cores
    #: (§III-C: "threads will consume half of the CPU resources").
    service_thread_compute_penalty: float = 2.0
    #: Memory registration cost (cold, per registration) and cache hit cost.
    mr_register_overhead: float = usec(60.0)
    mr_cache_hit_overhead: float = usec(0.05)
    #: BAR1 window: how much GPU memory the HCA can have registered at
    #: once.  Wilkes caps this (§V-C: "the limit on amount of memory
    #: that GPU can register ... a configuration limit on Wilkes"
    #: prevented the paper's large-input LBM runs).  K20 BAR1 = 256 MB.
    gpu_max_registered: int = 256 * 1024 * 1024

    # ------------------------------------------------- reliability (IB RC)
    #: Max RC retransmission attempts before RETRY_EXC_ERR — the QP's
    #: 3-bit ``retry_cnt`` field (7 = IB maximum).  Only exercised when
    #: a fault plan is attached; see :mod:`repro.ib.rc`.
    rc_retry_cnt: int = 7
    #: Base retransmission timeout (the QP local-ack-timeout analogue;
    #: real HCAs use 4.096 µs * 2^timeout — we keep it direct).
    rc_timeout: float = usec(40.0)
    #: Exponential backoff multiplier applied per successive retry.
    rc_backoff: float = 2.0
    #: Health tracker: consecutive observed retries on one path before
    #: it is marked DEGRADED and protocol selection fails over.
    health_fail_threshold: int = 2
    #: How long a DEGRADED path is avoided before a probe is allowed
    #: back onto it (returns to HEALTHY on a clean probe).
    health_cooldown: float = usec(300.0)

    # ------------------------------------- two-sided messaging (repro.msg) / UD
    #: Eager/rendezvous cutover for two-sided sends: at or below this,
    #: the payload is copied through pre-registered bounce buffers and
    #: the send completes at post time; above it, an RTS/CTS handshake
    #: precedes a zero-copy transfer.  Swept by the crossover study.
    msg_eager_threshold: int = 8 * 1024
    #: Size of the RTS/CTS control messages (header + rendezvous cookie).
    msg_rts_bytes: int = 64
    #: UD datagram MTU — payloads are segmented into packets of at most
    #: this size; each packet pays its own post + HCA overheads.
    ud_mtu: int = 4096
    #: CPU cost of posting one UD send WQE.  Cheaper than the RC post:
    #: no QP connection state to consult, address handle is precomputed.
    ud_post_overhead: float = usec(0.18)
    #: Sender-side resend timer for UD messages: ``UDTransport.send``
    #: waits this long for missing segments before re-posting them (a
    #: single datagram is never retried).
    ud_resend_timeout: float = usec(50.0)
    #: Resend rounds before ``UDTransport.send`` declares the peer unreachable.
    ud_resend_limit: int = 5

    # ------------------------------------------------------ protocol thresholds
    #: Direct-GDR cutover for operations whose network leg *writes* GPU memory.
    gdr_put_threshold: int = 32 * 1024
    #: Cutover for operations whose network leg *reads* GPU memory (P2P
    #: read is the bottleneck, hence the smaller threshold — §III-B).
    gdr_get_threshold: int = 8 * 1024
    #: Intra-node loopback cutover (write / read).
    loopback_put_threshold: int = 16 * 1024
    loopback_get_threshold: int = 8 * 1024
    #: Pipeline chunk size for staged designs.
    pipeline_chunk: int = 256 * 1024
    #: Pipeline depth (number of in-flight chunks / staging buffers).
    pipeline_depth: int = 4

    def validate(self) -> "HardwareParams":
        """Sanity-check all constants; returns self for chaining."""
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, (int, float)) and value < 0:
                raise ConfigurationError(f"{f.name} must be non-negative, got {value}")
        if self.pipeline_chunk <= 0 or self.pipeline_depth <= 0:
            raise ConfigurationError("pipeline_chunk and pipeline_depth must be positive")
        if self.rc_backoff < 1.0:
            raise ConfigurationError("rc_backoff must be >= 1 (delays may not shrink)")
        if self.ud_mtu <= 0:
            raise ConfigurationError("ud_mtu must be positive")
        if self.ud_resend_limit < 1:
            raise ConfigurationError("ud_resend_limit must be >= 1")
        if self.p2p_read_bw_inter_socket > self.p2p_read_bw_intra_socket:
            raise ConfigurationError("inter-socket P2P read cannot beat intra-socket")
        if self.gdr_get_threshold > self.gdr_put_threshold:
            raise ConfigurationError(
                "read-path GDR threshold must not exceed write-path threshold "
                "(P2P read is the tighter bottleneck)"
            )
        return self

    def tuned(self, **overrides) -> "HardwareParams":
        """Return a copy with the given fields replaced (runtime tuning)."""
        unknown = set(overrides) - {f.name for f in fields(self)}
        if unknown:
            raise ConfigurationError(f"unknown hardware parameters: {sorted(unknown)}")
        return replace(self, **overrides).validate()

    def p2p_bandwidth(self, *, read: bool, same_socket: bool) -> float:
        """Table III lookup: effective PCIe P2P bandwidth."""
        if read:
            return self.p2p_read_bw_intra_socket if same_socket else self.p2p_read_bw_inter_socket
        return self.p2p_write_bw_intra_socket if same_socket else self.p2p_write_bw_inter_socket

    def as_dict(self) -> Dict[str, float]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


def wilkes_params(**overrides) -> HardwareParams:
    """The default calibration: a Wilkes-like Tesla-partition node."""
    return HardwareParams().tuned(**overrides) if overrides else HardwareParams().validate()
