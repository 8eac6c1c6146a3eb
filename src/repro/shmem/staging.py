"""Pre-registered host staging pools for pipelined protocols.

Both the baseline's host pipeline and the proposed Pipeline-GDR-write
protocol stream large messages through fixed-size, pre-registered host
chunks (§III-C).  :class:`StagingPool` owns those chunks: a slot is a
``pipeline_chunk``-sized window of one big registered host allocation,
recycled through a FIFO free list.  Pipeline depth is therefore bounded
by the slot count, exactly as in the real runtime.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.cuda.memory import MemKind, Ptr
from repro.errors import ShmemError
from repro.ib.mr import MemoryRegion
from repro.simulator import Simulator, Store


class StagingSlot:
    """One pipeline chunk of staging memory."""

    __slots__ = ("pool", "index", "ptr", "offset")

    def __init__(self, pool: "StagingPool", index: int):
        self.pool = pool
        self.index = index
        self.offset = index * pool.chunk
        self.ptr: Ptr = pool.alloc.ptr(self.offset)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<StagingSlot {self.index} of {self.pool.name}>"


class StagingPool:
    """A FIFO pool of pre-registered staging slots."""

    def __init__(self, sim: Simulator, alloc, mr: Optional[MemoryRegion], chunk: int, name: str):
        if chunk <= 0:
            raise ShmemError("staging chunk must be positive")
        if alloc.size < chunk:
            raise ShmemError(
                f"staging allocation of {alloc.size} B smaller than one chunk ({chunk} B)"
            )
        self.sim = sim
        self.alloc = alloc
        self.mr = mr
        self.chunk = chunk
        self.name = name
        self.depth = alloc.size // chunk
        self._free: Store = Store(sim, name=f"{name}.free")
        for i in range(self.depth):
            self._free.put(StagingSlot(self, i))

    @classmethod
    def host(cls, job, node_id: int, owner: int, name: str) -> "StagingPool":
        """A registered pool of ``pipeline_depth`` host chunks on node
        ``node_id``, its allocation tagged ``name``."""
        p = job.params
        alloc = job.space.allocate(
            MemKind.HOST,
            p.pipeline_chunk * p.pipeline_depth,
            node_id=node_id,
            owner=owner,
            tag=name,
        )
        return cls(job.sim, alloc, MemoryRegion(alloc), p.pipeline_chunk, name=name)

    def acquire(self) -> Generator:
        """Blocking: ``slot = yield from pool.acquire()``."""
        slot = yield self._free.get()
        return slot

    def release(self, slot: StagingSlot) -> None:
        if slot.pool is not self:
            raise ShmemError("slot released to the wrong staging pool")
        self._free.put(slot)

    @property
    def available(self) -> int:
        return len(self._free)

    @property
    def idle(self) -> bool:
        """Every slot is free and nobody is waiting for one."""
        return len(self._free) == self.depth

    def take_nowait(self) -> Optional[StagingSlot]:
        """Non-blocking acquire for the batched fast paths (the caller
        has already verified :attr:`idle`)."""
        return self._free.get_nowait()
