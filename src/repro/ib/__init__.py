"""Simulated InfiniBand verbs: registration, RDMA, send/recv, atomics.

The layer below OpenSHMEM.  :class:`Verbs` resolves each operation into
timed PCIe + fabric hops, honouring the GPUDirect-RDMA rules:

* an RDMA whose **local** buffer is device memory makes the source HCA
  *read* the GPU over PCIe P2P (the slow direction, Table III);
* an RDMA whose **remote** buffer is device memory makes the target HCA
  *write* the GPU over PCIe P2P (fast intra-socket, poor inter-socket);
* host buffers use the HCA's ordinary DMA path at full FDR rate;
* the target *process* is never involved — RDMA is one-sided by
  construction, which is what the paper's designs exploit.

There are no completion queues: a posted operation is a simulator
generator, and every layer above learns of its completion (or its
failure) through simulator events.  Memory registration is cached by
``Runtime.ensure_mr``; this package only mints the regions and keys.
"""

from repro.ib.mr import MemoryRegion
from repro.ib.rc import RCTransport
from repro.ib.ud import UDReassembly, UDTransport
from repro.ib.verbs import Endpoint, Verbs

__all__ = [
    "Endpoint",
    "MemoryRegion",
    "RCTransport",
    "UDReassembly",
    "UDTransport",
    "Verbs",
]
