"""Protocol selection: which data-movement scheme serves an operation.

This module encodes the decision tables of the runtime designs (the
paper's three, the no-proxy ablation, and the NVSHMEM-style
device-initiated extension; the authoritative design list lives in
:mod:`repro.shmem.designs`).
Following the paper's configuration naming, a :class:`Config` here is
``(local buffer location, remote symmetric location)`` — so "H-D put"
moves host -> remote device, while "H-D get" moves remote device ->
local host.

The proposed design's table (§III-B/III-C), in brief:

==============  ======================  =====================================
where           small/medium            large
==============  ======================  =====================================
intra-node      GDR loopback RDMA       put H-D / any D-D: CUDA-IPC copy
(non H-H)       (read/write thresholds) put D-H, get D-H: direct copy through
                                        the shm-mapped host buffer (Fig 3)
                                        get H-D: IPC copy from mapped device
inter-node      Direct GDR (Fig 4)      put D-H/D-D: Pipeline GDR write
(non H-H)                               (intra-socket target), else proxy;
                                        gets from remote GPUs: proxy (Fig 5)
==============  ======================  =====================================

Thresholds differ for read-legs and write-legs because PCIe P2P *reads*
are the tight bottleneck (Table III): ``gdr_get_threshold`` <
``gdr_put_threshold``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ShmemError
from repro.hardware.params import HardwareParams
from repro.shmem.constants import Config, Locality, Op, Protocol


class UnsupportedConfiguration(ShmemError):
    """The selected runtime design cannot serve this configuration."""


@dataclass(frozen=True)
class Route:
    """A fully-resolved protocol decision."""

    protocol: Protocol
    op: Op
    config: Config
    locality: Locality
    nbytes: int
    reason: str = ""
    #: ``protocol.value`` as a plain string, for the per-op probe keys
    #: and spans (an Enum's ``value`` is a Python-level property).
    protocol_name: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "protocol_name", self.protocol.value)

    @property
    def one_sided(self) -> bool:
        """Does this route keep the target process out of the transfer?

        Only the baseline's inter-node host pipeline needs the target
        (its final H2D copy, Fig 1); everything else — including the
        proxy, which runs in a *separate* process — is truly one-sided.
        """
        return self.protocol is not Protocol.HOST_PIPELINE

    def span_args(self) -> dict:
        """The decision, flattened for a tracing instant marker."""
        return {
            "protocol": self.protocol_name,
            "op": self.op.value,
            "config": self.config.value,
            "locality": self.locality.value,
            "nbytes": self.nbytes,
            "reason": self.reason,
        }


class ProtocolSelector:
    """Base class: shared helpers for threshold reasoning."""

    design = "abstract"

    def __init__(self, params: HardwareParams):
        self.params = params

    # The network leg that touches a GPU determines the threshold: a
    # P2P *read* (fetching from device memory) cuts over much earlier
    # than a P2P *write* (landing into device memory).
    def _gdr_threshold(self, op: Op, config: Config) -> int:
        p = self.params
        # For PUT the local buffer is the source; for GET the remote is.
        local_dev, remote_dev = config.local_on_device, config.remote_on_device
        if op is Op.PUT:
            read_leg = local_dev  # HCA fetches the local buffer
            write_leg = remote_dev  # HCA lands into the remote buffer
        else:
            read_leg = remote_dev  # remote HCA fetches the remote buffer
            write_leg = local_dev  # local HCA lands into the local buffer
        if read_leg:
            return p.gdr_get_threshold
        if write_leg:
            return p.gdr_put_threshold
        return 0  # H-H: no GDR involved

    def _loopback_threshold(self, op: Op, config: Config) -> int:
        p = self.params
        local_dev, remote_dev = config.local_on_device, config.remote_on_device
        if op is Op.PUT:
            read_leg, write_leg = local_dev, remote_dev
        else:
            read_leg, write_leg = remote_dev, local_dev
        if read_leg:
            return p.loopback_get_threshold
        if write_leg:
            return p.loopback_put_threshold
        return 0

    def select(
        self,
        op: Op,
        config: Config,
        locality: Locality,
        nbytes: int,
        *,
        local_same_socket: bool = True,
        remote_same_socket: bool = True,
    ) -> Route:
        raise NotImplementedError


class NaiveSelector(ProtocolSelector):
    """The naive model: host symmetric heap only, users copy manually."""

    design = "naive"

    def select(self, op, config, locality, nbytes, *, local_same_socket=True, remote_same_socket=True):
        if config is not Config.HH:
            raise UnsupportedConfiguration(
                "naive OpenSHMEM has no GPU symmetric heap; move data to the "
                "host explicitly with cudaMemcpy first"
            )
        if locality is Locality.SELF:
            return Route(Protocol.LOCAL_COPY, op, config, locality, nbytes, "self H-H")
        if locality is Locality.INTRA_NODE:
            return Route(Protocol.SHM_COPY, op, config, locality, nbytes, "host shm")
        return Route(Protocol.RDMA_HOST, op, config, locality, nbytes, "host RDMA")


class HostPipelineSelector(ProtocolSelector):
    """The IPDPS'13 baseline [15]: CUDA-aware, host-staged, no GDR."""

    design = "host-pipeline"

    def select(self, op, config, locality, nbytes, *, local_same_socket=True, remote_same_socket=True):
        if locality is Locality.SELF:
            return Route(Protocol.LOCAL_COPY, op, config, locality, nbytes, "self")
        if locality is Locality.INTRA_NODE:
            if config is Config.HH:
                return Route(Protocol.SHM_COPY, op, config, locality, nbytes, "host shm")
            if config is Config.DD:
                return Route(Protocol.IPC_COPY, op, config, locality, nbytes, "CUDA IPC D-D")
            if op is Op.PUT and config is Config.HD:
                return Route(Protocol.IPC_COPY, op, config, locality, nbytes, "IPC H->mapped D")
            if op is Op.GET and config is Config.DH:
                return Route(
                    Protocol.SHM_DIRECT_COPY, op, config, locality, nbytes, "H2D from shm"
                )
            # put D-H and get H-D: two copies staged through the host.
            return Route(
                Protocol.STAGED_HOST_COPY, op, config, locality, nbytes,
                "no IPC mapping for host targets; stage via own host heap",
            )
        # inter-node
        if config is Config.HH:
            return Route(Protocol.RDMA_HOST, op, config, locality, nbytes, "host RDMA")
        if config is Config.DD:
            return Route(
                Protocol.HOST_PIPELINE, op, config, locality, nbytes,
                "D2H + IB + target-side H2D pipeline (Fig 1)",
            )
        raise UnsupportedConfiguration(
            f"host-pipeline design does not handle inter-node {config.value} "
            f"(inter-domain) communication — see §V-B / Fig 9"
        )


class EnhancedGDRSelector(ProtocolSelector):
    """The paper's proposed hybrid design (§III)."""

    design = "enhanced-gdr"

    def select(self, op, config, locality, nbytes, *, local_same_socket=True, remote_same_socket=True):
        if locality is Locality.SELF:
            return Route(Protocol.LOCAL_COPY, op, config, locality, nbytes, "self")
        if locality is Locality.INTRA_NODE:
            return self._intranode(op, config, nbytes)
        return self._internode(op, config, nbytes, local_same_socket, remote_same_socket)

    # ------------------------------------------------------------ intra-node
    def _intranode(self, op: Op, config: Config, nbytes: int) -> Route:
        loc = Locality.INTRA_NODE
        if config is Config.HH:
            return Route(Protocol.SHM_COPY, op, config, loc, nbytes, "host shm")
        threshold = self._loopback_threshold(op, config)
        if nbytes <= threshold:
            return Route(
                Protocol.GDR_LOOPBACK, op, config, loc, nbytes,
                f"<= loopback threshold {threshold} (Fig 2)",
            )
        # Large intra-node transfers: single copy, chosen per config.
        if op is Op.PUT:
            if config is Config.HD:
                return Route(Protocol.IPC_COPY, op, config, loc, nbytes, "IPC H->mapped D")
            if config is Config.DH:
                return Route(
                    Protocol.SHM_DIRECT_COPY, op, config, loc, nbytes,
                    "cudaMemcpy device -> shm-mapped target host buffer (Fig 3)",
                )
            return Route(Protocol.IPC_COPY, op, config, loc, nbytes, "IPC D-D")
        # GET
        if config is Config.HD:  # local host <- remote device
            return Route(
                Protocol.IPC_COPY, op, config, loc, nbytes, "D2H from IPC-mapped device"
            )
        if config is Config.DH:  # local device <- remote host
            return Route(
                Protocol.SHM_DIRECT_COPY, op, config, loc, nbytes, "H2D from shm-mapped host"
            )
        return Route(Protocol.IPC_COPY, op, config, loc, nbytes, "IPC D-D")

    # ------------------------------------------------------------ inter-node
    def _internode(
        self, op: Op, config: Config, nbytes: int, local_same_socket: bool, remote_same_socket: bool
    ) -> Route:
        loc = Locality.INTER_NODE
        if config is Config.HH:
            return Route(Protocol.RDMA_HOST, op, config, loc, nbytes, "host RDMA")
        threshold = self._gdr_threshold(op, config)
        if nbytes <= threshold:
            return Route(
                Protocol.DIRECT_GDR, op, config, loc, nbytes,
                f"<= GDR threshold {threshold} (Fig 4, solid)",
            )
        if op is Op.PUT:
            if config is Config.HD:
                # Only the write leg touches a GPU; intra-socket P2P
                # write runs at full FDR rate, so Direct GDR stays best.
                if remote_same_socket:
                    return Route(
                        Protocol.DIRECT_GDR, op, config, loc, nbytes,
                        "P2P write intra-socket ~ FDR; no staging needed",
                    )
                return Route(
                    Protocol.PROXY, op, config, loc, nbytes,
                    "inter-socket P2P write bottleneck; target proxy stages H2D",
                )
            # D-H / D-D puts: avoid the P2P *read* with the source-side
            # pipeline (Fig 4, dotted), provided the landing is healthy.
            if config is Config.DH or remote_same_socket:
                return Route(
                    Protocol.PIPELINE_GDR_WRITE, op, config, loc, nbytes,
                    "D2H staging + GDR write (Fig 4, dotted)",
                )
            return Route(
                Protocol.PROXY, op, config, loc, nbytes,
                "inter-socket landing; target proxy finishes with IPC H2D",
            )
        # GET
        if config is Config.DH:
            # Remote source is host memory; only the local landing
            # touches a GPU.
            if local_same_socket:
                return Route(
                    Protocol.DIRECT_GDR, op, config, loc, nbytes,
                    "landing P2P write intra-socket ~ FDR",
                )
            return Route(
                Protocol.PROXY, op, config, loc, nbytes,
                "inter-socket landing; stage via local host + IPC H2D",
            )
        # H-D / D-D gets: the remote GPU must be read — hand it to the
        # remote proxy, which runs the reverse pipeline (Fig 5).
        return Route(
            Protocol.PROXY, op, config, loc, nbytes,
            "remote proxy executes reverse pipeline GDR write (Fig 5)",
        )


class EnhancedNoProxySelector(EnhancedGDRSelector):
    """Ablation variant: the proposed design *without* the proxy
    framework.  Routes that would use the proxy fall back to Direct
    GDR — eating the P2P bottlenecks the proxy exists to avoid.  Used
    by ``bench_ablation_proxy`` to quantify Fig 5's contribution."""

    design = "enhanced-gdr-noproxy"

    def select(self, op, config, locality, nbytes, *, local_same_socket=True, remote_same_socket=True):
        route = super().select(
            op, config, locality, nbytes,
            local_same_socket=local_same_socket,
            remote_same_socket=remote_same_socket,
        )
        if route.protocol is Protocol.PROXY:
            return Route(
                Protocol.DIRECT_GDR, op, config, locality, nbytes,
                "no-proxy ablation: direct GDR despite the P2P bottleneck",
            )
        return route


class DeviceInitiatedSelector(ProtocolSelector):
    """NVSHMEM-style device-initiated design (beyond the paper).

    Put/get/atomics issue from GPU threads inside running kernels, the
    symmetric-heap translation table is device-resident, and there is
    no host proxy hop: every remote transfer is either a device-side
    load/store through peer-mapped memory (intra-node) or an RDMA whose
    doorbell the device rings itself (inter-node).  Every configuration
    and message size takes the same one-hop route — the size thresholds
    of the host-initiated designs exist to dodge host-side staging
    costs this design simply does not have.
    """

    design = "device-initiated"

    def select(self, op, config, locality, nbytes, *, local_same_socket=True, remote_same_socket=True):
        if locality is Locality.SELF:
            return Route(Protocol.LOCAL_COPY, op, config, locality, nbytes, "self")
        if locality is Locality.INTRA_NODE:
            return Route(
                Protocol.DEVICE_P2P, op, config, locality, nbytes,
                "device ld/st through peer-mapped memory",
            )
        return Route(
            Protocol.DEVICE_GDR, op, config, locality, nbytes,
            "device-rung doorbell, direct RDMA between registered heaps",
        )


def make_selector(design: str, params: HardwareParams) -> ProtocolSelector:
    from repro.shmem.designs import design_spec

    return design_spec(design).selector(params)
