"""Symmetric addresses and pointers.

A :class:`SymPtr` is what ``shmalloc`` hands the application: it knows
its domain and heap offset (identical on every PE) and carries the
calling PE's local pointer for direct access.  The runtime translates
``(domain, offset)`` plus a target PE into that PE's physical buffer
through the heap table exchanged at init (§III-A).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.cuda.memory import Ptr
from repro.errors import ShmemError
from repro.shmem.constants import Domain


@dataclass(frozen=True)
class SymAddr:
    """A location in symmetric space: domain + heap offset."""

    domain: Domain
    offset: int

    def __add__(self, nbytes: int) -> "SymAddr":
        if self.offset + nbytes < 0:
            raise ShmemError("symmetric address underflow")
        return SymAddr(self.domain, self.offset + nbytes)


class SymPtr:
    """A symmetric allocation as seen by one PE."""

    __slots__ = ("addr", "local", "size", "_ctx", "gen")

    def __init__(self, addr: SymAddr, local: Ptr, size: int, ctx=None, gen: Optional[int] = None):
        self.addr = addr
        self.local = local
        self.size = size
        self._ctx = ctx
        #: Allocation generation (the heap ``seq`` that created this
        #: block) — lets ``shfree`` reject stale pointers whose offset
        #: has been recycled by a later shmalloc.  ``None`` for derived
        #: pointers that are never freed (e.g. the sync area).
        self.gen = gen

    @property
    def domain(self) -> Domain:
        return self.addr.domain

    @property
    def offset(self) -> int:
        return self.addr.offset

    def __add__(self, nbytes: int) -> "SymPtr":
        if not 0 <= nbytes <= self.size:
            raise ShmemError(
                f"symmetric pointer arithmetic (+{nbytes}) leaves the "
                f"{self.size}-byte allocation"
            )
        return SymPtr(
            self.addr + nbytes, self.local + nbytes, self.size - nbytes, self._ctx, self.gen
        )

    # ------------------------------------------------- local data access
    def as_array(self, dtype, count: Optional[int] = None) -> np.ndarray:
        """Mutable numpy view of the *local* copy of the symmetric object."""
        dt = np.dtype(dtype)
        if count is None:
            count = self.size // dt.itemsize
        elif count * dt.itemsize > self.size:
            raise ShmemError(
                f"view of {count} x {dt} exceeds the {self.size}-byte symmetric object"
            )
        return self.local.as_array(dt, count)

    def read(self, nbytes: int) -> bytes:
        if nbytes > self.size:
            raise ShmemError(f"read of {nbytes} B from a {self.size}-byte symmetric object")
        return self.local.read(nbytes)

    def write(self, payload: bytes) -> None:
        if len(payload) > self.size:
            raise ShmemError(f"write of {len(payload)} B to a {self.size}-byte symmetric object")
        self.local.write(payload)

    def fill(self, value: int, nbytes: Optional[int] = None) -> None:
        self.local.fill(value, self.size if nbytes is None else nbytes)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<SymPtr {self.domain.value}+0x{self.offset:x} size={self.size}>"
