"""The per-process CUDA API surface: malloc, memcpy, memset, kernels.

A :class:`CudaContext` binds a process (PE) to one GPU of one node.
``memcpy`` infers the copy kind from pointer locations (UVA style),
resolves a timed :class:`~repro.hardware.links.TransferSpec` through
the node's PCIe topology, and moves the actual bytes when the transfer
completes.  Copies whose endpoints belong to a *different process on
the same node* are charged the CUDA-IPC cost model.
"""

from __future__ import annotations

from typing import Generator

from repro.errors import CudaError
from repro.cuda.memory import MemKind, MemorySpace, Ptr
from repro.hardware.links import TransferSpec
from repro.hardware.node import Node
from repro.simulator import Simulator


class CudaContext:
    """CUDA as seen by one process bound to one GPU."""

    def __init__(self, sim: Simulator, node: Node, device_id: int, owner: int, space: MemorySpace):
        if not 0 <= device_id < len(node.gpus):
            raise CudaError(f"no GPU {device_id} on node {node.node_id}")
        self.sim = sim
        self.node = node
        self.device_id = device_id
        self.owner = owner
        self.space = space
        self._device_bytes = 0

    @property
    def gpu(self):
        return self.node.gpus[self.device_id]

    # ----------------------------------------------------------- allocation
    def malloc(self, size: int, tag: str = "") -> Ptr:
        """``cudaMalloc``: device memory on this context's GPU."""
        if self._device_bytes + size > self.gpu.mem_capacity:
            raise CudaError(
                f"cudaMalloc of {size} bytes exceeds GPU capacity "
                f"({self._device_bytes} already allocated)"
            )
        alloc = self.space.allocate(
            MemKind.DEVICE,
            size,
            node_id=self.node.node_id,
            owner=self.owner,
            device_id=self.device_id,
            tag=tag,
        )
        self._device_bytes += size
        return alloc.ptr()

    def malloc_host(self, size: int, tag: str = "", shm: bool = False) -> Ptr:
        """``cudaMallocHost`` (pinned host memory; ``shm=True`` marks a
        POSIX shared-memory segment mappable by node-local peers)."""
        kind = MemKind.SHM if shm else MemKind.HOST
        alloc = self.space.allocate(
            kind, size, node_id=self.node.node_id, owner=self.owner, tag=tag
        )
        return alloc.ptr()

    def free(self, ptr: Ptr) -> None:
        if ptr.kind is MemKind.DEVICE and ptr.alloc.owner == self.owner:
            self._device_bytes -= ptr.alloc.size
        self.space.free(ptr.alloc)

    # -------------------------------------------------------------- memcpy
    def _spec_for(self, dst: Ptr, src: Ptr, nbytes: int) -> TransferSpec:
        """Resolve the timed path for a copy (UVA kind inference)."""
        if dst.node_id != self.node.node_id or src.node_id != self.node.node_id:
            raise CudaError("cudaMemcpy endpoints must be on the calling process's node")
        pcie = self.node.pcie
        cross_process = src.alloc.owner != self.owner or dst.alloc.owner != self.owner
        if src.kind is MemKind.DEVICE and dst.kind is MemKind.DEVICE:
            return pcie.d2d_ipc(src.device_id, dst.device_id, nbytes)
        if src.kind is MemKind.DEVICE:  # D2H
            return pcie.d2h(src.device_id, nbytes, via_ipc=cross_process)
        if dst.kind is MemKind.DEVICE:  # H2D
            return pcie.h2d(dst.device_id, nbytes, via_ipc=cross_process)
        return pcie.host_copy(nbytes)

    def memcpy(self, dst: Ptr, src: Ptr, nbytes: int) -> Generator:
        """Synchronous ``cudaMemcpy``: blocks the caller, moves real bytes.

        The source is snapshotted at issue time (the DMA engine owns the
        buffer for the duration), the destination is written at the
        simulated completion instant.  The snapshot is deferred, so the
        bytes are copied once, source to destination, unless the source
        is overwritten while the copy is in flight.
        """
        if nbytes == 0:
            return 0
        spec = self._spec_for(dst, src, nbytes)
        payload = src.snapshot(nbytes)
        try:
            dst._check(nbytes)  # fail fast before charging time
            yield from spec.execute(self.sim)
            dst.write(payload)
        finally:
            payload.release()
        return nbytes

    def memset(self, ptr: Ptr, value: int, nbytes: int) -> Generator:
        """Timed ``cudaMemset`` (charged like a device-local fill)."""
        spec = self.node.pcie.d2d_local(self.device_id, nbytes) if ptr.kind is MemKind.DEVICE \
            else self.node.pcie.host_copy(nbytes)
        yield from spec.execute(self.sim)
        ptr.fill(value, nbytes)
        return nbytes

    # ------------------------------------------------------------- compute
    def launch_kernel(self, duration: float) -> Generator:
        """Run a kernel of a given modeled duration on this GPU."""
        yield from self.gpu.kernel(duration)
