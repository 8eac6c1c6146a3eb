"""Simulated CUDA: allocations, memcpy, UVA.

This is a *functional + timed* model: every allocation is backed by a
real numpy byte buffer, every memcpy actually moves bytes (so the test
suite can verify end-to-end data correctness), and every operation
charges virtual time through the node's PCIe topology.

The surface mirrors the subset of CUDA the paper's runtime uses:

* ``cudaMalloc`` / ``cudaMallocHost``  -> :meth:`CudaContext.malloc`,
  :meth:`CudaContext.malloc_host`
* ``cudaMemcpy`` / ``cudaMemset``      -> :meth:`CudaContext.memcpy`,
  :meth:`CudaContext.memset`
* UVA pointer queries                  -> :attr:`Ptr.kind`
* CUDA IPC (intra-node peer copies)    -> the ``via_ipc`` cost terms of
  :class:`~repro.hardware.pcie.PCIeTopology`, charged by ``memcpy``
  when an endpoint belongs to another process
"""

from repro.cuda.memory import Allocation, MemKind, MemorySpace, Ptr
from repro.cuda.api import CudaContext

__all__ = [
    "Allocation",
    "CudaContext",
    "MemKind",
    "MemorySpace",
    "Ptr",
]
