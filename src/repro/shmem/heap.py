"""Symmetric heap management.

Each PE owns one backing allocation per domain (host and, for
GPU-aware runtimes, device).  Offsets within the heap are *symmetric*:
because every PE performs the identical collective allocation sequence,
the same object has the same offset everywhere — which is exactly what
lets a PE translate a local symmetric address into a remote one with a
table lookup (§III-A).

:class:`HeapAllocator` is a deterministic first-fit free-list allocator
with alignment, so ``shfree``/``shmalloc`` interleavings stay symmetric
as long as calls remain collective.  Non-collective misuse is detected
by the runtime comparing ledger sequence numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import HeapExhausted, ShmemError

#: All symmetric allocations are aligned like ``shmemalign`` defaults.
DEFAULT_ALIGNMENT = 64


@dataclass
class _FreeBlock:
    offset: int
    size: int


class HeapAllocator:
    """Deterministic first-fit allocator over ``[0, capacity)``."""

    def __init__(self, capacity: int):
        if capacity <= 0:
            raise ShmemError(f"heap capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._free: List[_FreeBlock] = [_FreeBlock(0, capacity)]
        self._live: dict = {}  # offset -> size

    @property
    def live_bytes(self) -> int:
        return sum(self._live.values())

    @property
    def free_bytes(self) -> int:
        return sum(b.size for b in self._free)

    def allocate(self, size: int, alignment: int = DEFAULT_ALIGNMENT) -> int:
        """Return the offset of a new block; raises :class:`HeapExhausted`."""
        if size <= 0:
            raise ShmemError(f"allocation size must be positive, got {size}")
        if alignment <= 0 or alignment & (alignment - 1):
            raise ShmemError(f"alignment must be a positive power of two, got {alignment}")
        for i, block in enumerate(self._free):
            aligned = (block.offset + alignment - 1) & ~(alignment - 1)
            pad = aligned - block.offset
            if block.size >= pad + size:
                # Split: [pad][allocation][tail]
                tail_offset = aligned + size
                tail_size = block.size - pad - size
                new_blocks = []
                if pad:
                    new_blocks.append(_FreeBlock(block.offset, pad))
                if tail_size:
                    new_blocks.append(_FreeBlock(tail_offset, tail_size))
                self._free[i : i + 1] = new_blocks
                self._live[aligned] = size
                return aligned
        raise HeapExhausted(
            f"symmetric heap exhausted: requested {size} B, "
            f"largest hole {max((b.size for b in self._free), default=0)} B"
        )

    def free(self, offset: int) -> None:
        size = self._live.pop(offset, None)
        if size is None:
            raise ShmemError(f"shfree of unknown offset {offset}")
        self._free.append(_FreeBlock(offset, size))
        self._coalesce()

    def _coalesce(self) -> None:
        self._free.sort(key=lambda b: b.offset)
        merged: List[_FreeBlock] = []
        for block in self._free:
            if merged and merged[-1].offset + merged[-1].size == block.offset:
                merged[-1].size += block.size
            else:
                merged.append(block)
        self._free = merged

    def contains_live(self, offset: int, nbytes: int = 1) -> bool:
        """True when ``[offset, offset+nbytes)`` is inside one live block."""
        for base, size in self._live.items():
            if base <= offset and offset + nbytes <= base + size:
                return True
        return False

    def live_blocks(self) -> List[Tuple[int, int]]:
        """Sorted ``(offset, size)`` of every live allocation — the
        read-back hook the differential harness uses to compare final
        heap contents against its reference executor."""
        return sorted(self._live.items())

    def free_blocks(self) -> List[Tuple[int, int]]:
        """Sorted ``(offset, size)`` of every hole in the free list."""
        return sorted((b.offset, b.size) for b in self._free)


class SymmetricHeap:
    """One PE's symmetric heap for one domain: allocator + byte storage."""

    def __init__(self, pe: int, domain, alloc, allocator: Optional[HeapAllocator] = None):
        self.pe = pe
        self.domain = domain
        self.alloc = alloc  # repro.cuda.memory.Allocation
        self.allocator = allocator or HeapAllocator(alloc.size)
        #: Monotonic collective-call sequence number (symmetry auditing).
        self.seq = 0
        #: Block identity: offset -> the ``seq`` that allocated it.  An
        #: offset alone does not identify a block — free+shmalloc can
        #: recycle it — so frees check the generation too; otherwise a
        #: double-free of a recycled offset would silently release the
        #: *new* live block at that offset.
        self._gen: dict = {}

    def shmalloc(self, size: int, alignment: int = DEFAULT_ALIGNMENT) -> int:
        self.seq += 1
        offset = self.allocator.allocate(size, alignment)
        self._gen[offset] = self.seq
        return offset

    def generation(self, offset: int) -> int:
        """The allocation generation of the live block at ``offset``."""
        return self._gen[offset]

    def shfree(self, offset: int, generation: Optional[int] = None) -> None:
        self.seq += 1
        live_gen = self._gen.get(offset)
        if live_gen is None:
            # Not a shmalloc'd block (e.g. the reserved sync area) or
            # plain unknown: the allocator raises the canonical
            # unknown-offset error itself.
            self.allocator.free(offset)
            return
        if generation is not None and generation != live_gen:
            raise ShmemError(
                f"shfree of a stale block at offset {offset}: generation "
                f"{generation} was already freed and the offset recycled "
                f"(live generation is {live_gen}) — double free"
            )
        self.allocator.free(offset)
        del self._gen[offset]

    def ptr(self, offset: int):
        return self.alloc.ptr(offset)

    def live_blocks(self) -> List[Tuple[int, int]]:
        """Sorted ``(offset, size)`` of the live allocations."""
        return self.allocator.live_blocks()

    def read_back(self, offset: int, nbytes: int) -> np.ndarray:
        """A read-only uint8 view of ``[offset, offset+nbytes)`` with
        every delivered payload applied — untimed, for post-run
        differential checks only.  No bytes are copied: the view
        aliases the heap, which is final once the job has finished."""
        return self.ptr(offset).read_view(nbytes)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<SymmetricHeap pe{self.pe} {self.domain.value} "
            f"{self.allocator.live_bytes}/{self.alloc.size}B live>"
        )
