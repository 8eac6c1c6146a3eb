"""Shared enums for the OpenSHMEM layer."""

from __future__ import annotations

import enum


class Domain(enum.Enum):
    """Symmetric-heap domain, per the paper's ``shmalloc(size, domain)``
    extension (§II-A / [15]): where a symmetric allocation lives."""

    __hash__ = object.__hash__  # identity: members are singletons

    HOST = "host"
    GPU = "gpu"


class Op(enum.Enum):
    """One-sided operation direction."""

    __hash__ = object.__hash__  # identity: members are singletons

    PUT = "put"
    GET = "get"


class Config(enum.Enum):
    """Communication configuration: (local buffer, remote symmetric buffer).

    The paper's taxonomy (§I), with the *local* side listed first —
    matching the OMB-GPU convention the evaluation uses.  So an
    "H-D put" moves host -> remote device, while an "H-D get" moves
    remote device -> local host.
    """

    __hash__ = object.__hash__  # identity: members are singletons

    HH = "H-H"
    HD = "H-D"
    DH = "D-H"
    DD = "D-D"

    @staticmethod
    def of(local_on_device: bool, remote_on_device: bool) -> "Config":
        return {
            (False, False): Config.HH,
            (False, True): Config.HD,
            (True, False): Config.DH,
            (True, True): Config.DD,
        }[(local_on_device, remote_on_device)]

    @property
    def local_on_device(self) -> bool:
        return self in (Config.DH, Config.DD)

    @property
    def remote_on_device(self) -> bool:
        return self in (Config.HD, Config.DD)


class Locality(enum.Enum):
    """Where source and target PEs sit relative to each other."""

    __hash__ = object.__hash__  # identity: members are singletons

    SELF = "self"
    INTRA_NODE = "intra-node"
    INTER_NODE = "inter-node"


class Protocol(enum.Enum):
    """Every data-movement scheme the three runtimes can choose (§III)."""

    __hash__ = object.__hash__  # identity: members are singletons

    #: Plain local copy (pe == self).
    LOCAL_COPY = "local-copy"
    #: Host shared-memory copy (intra-node H-H).
    SHM_COPY = "shm-copy"
    #: CUDA-IPC cudaMemcpy issued by the source process (intra-node).
    IPC_COPY = "ipc-copy"
    #: Source stages D2H into its own host heap then shm-copies (the
    #: baseline's two-copy intra-node D-H path).
    STAGED_HOST_COPY = "staged-host-copy"
    #: cudaMemcpy from device directly into the *target's* host buffer
    #: mapped via shmem_ptr/POSIX shm (proposed intra-node D-H, Fig 3).
    SHM_DIRECT_COPY = "shm-direct-copy"
    #: RDMA through the local HCA back to the same node, landing via
    #: GDR (proposed intra-node small-message path, Fig 2).
    GDR_LOOPBACK = "gdr-loopback"
    #: Single RDMA straight between the final buffers (Fig 4 solid).
    DIRECT_GDR = "direct-gdr"
    #: Plain host-host RDMA (no GPU involved).
    RDMA_HOST = "rdma-host"
    #: Chunked D2H + RDMA + *target-side* H2D (the baseline's inter-node
    #: pipeline, Fig 1 — requires target involvement).
    HOST_PIPELINE = "host-pipeline"
    #: Chunked D2H into pre-registered host buffers + GDR write straight
    #: to the destination buffer (proposed, Fig 4 dotted).
    PIPELINE_GDR_WRITE = "pipeline-gdr-write"
    #: Hand the transfer to a node-level proxy process (Fig 5).
    PROXY = "proxy"
    #: Device-initiated intra-node move: GPU threads load/store through
    #: peer-mapped memory from inside a running kernel (NVSHMEM-style;
    #: priced like the equivalent copy over the same wires).
    DEVICE_P2P = "device-p2p"
    #: Device-initiated RDMA: a GPU thread rings the HCA doorbell
    #: directly and the NIC moves data between registered heaps with no
    #: host proxy hop (NVSHMEM-style inter-node path).
    DEVICE_GDR = "device-gdr"
