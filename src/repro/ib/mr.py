"""Memory registration: regions and their keys.

Registering memory with the HCA is expensive (page pinning, key
programming — modeled at ~60 µs), so MVAPICH2-X keeps a registration
cache; §III-A of the paper leans on it when registering both symmetric
heaps.  The runtime's cache is :meth:`repro.shmem.runtime.Runtime.ensure_mr`:
the first registration of a user buffer pays full price, later lookups
are nearly free.
"""

from __future__ import annotations

import itertools

from repro.cuda.memory import Allocation, MemKind, Ptr
from repro.errors import RegistrationError

_key_counter = itertools.count(0x1000)


class MemoryRegion:
    """A registered memory region with local and remote keys."""

    __slots__ = ("alloc", "lkey", "rkey")

    def __init__(self, alloc: Allocation):
        self.alloc = alloc
        self.lkey = next(_key_counter)
        self.rkey = next(_key_counter)

    @property
    def size(self) -> int:
        return self.alloc.size

    @property
    def kind(self) -> MemKind:
        return self.alloc.kind

    @property
    def node_id(self) -> int:
        return self.alloc.node_id

    def ptr(self, offset: int = 0) -> Ptr:
        if self.alloc.freed:
            raise RegistrationError("memory region refers to freed memory")
        if not 0 <= offset <= self.alloc.size:
            raise RegistrationError(
                f"offset {offset} outside registered region of {self.alloc.size} bytes"
            )
        return self.alloc.ptr(offset)

    def check_range(self, offset: int, nbytes: int) -> None:
        if offset < 0 or nbytes < 0 or offset + nbytes > self.alloc.size:
            raise RegistrationError(
                f"RDMA range [{offset}, {offset + nbytes}) exceeds region "
                f"of {self.alloc.size} bytes (remote key 0x{self.rkey:x})"
            )

    def __repr__(self) -> str:  # pragma: no cover
        return f"<MemoryRegion rkey=0x{self.rkey:x} {self.kind.value} size={self.size}>"

