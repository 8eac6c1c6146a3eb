"""Pre-registered host staging pools and the one staged chunk stream.

Both the baseline's host pipeline and the proposed Pipeline-GDR-write
protocol stream large messages through fixed-size, pre-registered host
chunks (§III-C).  :class:`StagingPool` owns those chunks: a slot is a
``pipeline_chunk``-sized window of one big registered host allocation,
recycled through a FIFO free list.  Pipeline depth is therefore bounded
by the slot count, exactly as in the real runtime.

Every staged protocol is one loop, :func:`chunk_stream`: per chunk,
optionally *stage* it (acquire a slot, copy the chunk in), then hand it
to a *sink* that crosses the wire and lands it.  Only the agent doing
each step differs between the designs, so the sinks carry the
differences and the stream carries one slot-ownership rule: the stream
holds a stage slot until its stage copy succeeds, and releases it and
re-raises if the copy fails; after that the sink owns the slot.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Callable, Generator, Optional, Tuple

from repro.cuda.memory import MemKind, Ptr
from repro.errors import ShmemError
from repro.hardware.links import chunked
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
        return (yield self._free.get())

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


def chunk_stream(
    nbytes: int, chunk: int, src: Ptr, sink: Callable, stage: Optional[Tuple] = None
) -> Generator:
    """Stream the ``nbytes`` at ``src`` in ``chunk``-sized pieces;
    returns the chunk events.  The chunk at ``offset`` leaves from
    ``src + offset`` or, with ``stage=(pool, copy)``, from a ``pool``
    slot that ``copy(slot.ptr, src + offset, csize)`` filled (the slot
    goes back and the failure propagates if that copy fails).  Then
    ``sink(wire_src, slot, offset, csize)`` owns the slot (``None``
    unstaged) and returns the chunk's event or ``None``, directly or,
    when it waits first, as a generator's value."""
    events = []
    offset = 0
    for csize in chunked(nbytes, chunk):
        wire_src = src + offset
        slot = None
        if stage is not None:
            pool, copy = stage
            slot = yield from pool.acquire()
            try:
                yield from copy(slot.ptr, wire_src, csize)
            except BaseException:
                pool.release(slot)
                raise
            wire_src = slot.ptr
        ev = sink(wire_src, slot, offset, csize)
        if type(ev) is GeneratorType:
            ev = yield from ev
        if ev is not None:
            events.append(ev)
        offset += csize
    return events
