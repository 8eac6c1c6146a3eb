"""Byte-accurate memory model: allocations, pointers, the UVA space.

Every :class:`Allocation` owns a numpy ``uint8`` buffer and a globally
unique virtual-address range assigned by its :class:`MemorySpace` (one
space per simulated cluster — a deliberate simplification of per-process
UVA that makes symmetric-address bookkeeping easy to audit in tests).

:class:`Ptr` is ``allocation + offset`` with pointer arithmetic, typed
array views, and bounds-checked raw access.  All data movement in the
simulator ultimately goes through :meth:`Ptr.read` / :meth:`Ptr.write`.

Only :meth:`Ptr.write`, :meth:`Ptr.fill` and :meth:`Ptr.as_array` mutate
memory.  That invariant is what lets a timed transfer's payload be a
deferred :class:`Snapshot`: it reads through to its source until one of
those three is about to change the bytes it covers, and only then copies
them out.  ``as_array`` hands out a mutable view the model cannot watch,
so it *escapes* its allocation: snapshots of an escaped allocation are
copied eagerly.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.errors import CudaError


class MemKind(enum.Enum):
    """Which physical memory an allocation lives in."""

    HOST = "host"
    DEVICE = "device"
    #: Host memory exported as a POSIX shared-memory segment (the
    #: paper's intra-node D-H design maps the target host heap this way).
    SHM = "shm"

    @property
    def on_host(self) -> bool:
        return self is not MemKind.DEVICE


class Allocation:
    """A contiguous, byte-backed memory region."""

    __slots__ = (
        "space", "kind", "node_id", "device_id", "owner", "size", "_data", "base", "freed", "tag",
        "pending", "escaped",
    )

    def __init__(
        self,
        space: "MemorySpace",
        kind: MemKind,
        size: int,
        node_id: int,
        owner: int,
        device_id: Optional[int] = None,
        base: int = 0,
        tag: str = "",
    ):
        if size <= 0:
            raise CudaError(f"allocation size must be positive, got {size}")
        if kind is MemKind.DEVICE and device_id is None:
            raise CudaError("device allocation requires a device_id")
        self.space = space
        self.kind = kind
        self.size = size
        self.node_id = node_id
        self.device_id = device_id
        self.owner = owner
        self._data: Optional[np.ndarray] = None
        self.base = base
        self.freed = False
        self.tag = tag
        #: Unmaterialised snapshots still reading through to this buffer.
        self.pending: list = []
        #: Set once :meth:`Ptr.as_array` has handed out a mutable view.
        self.escaped = False

    @property
    def data(self) -> np.ndarray:
        """Backing buffer, zero-filled lazily on first touch.

        Simulated heaps are large (32 MiB symmetric heaps per PE) and
        mostly cold; deferring the ``np.zeros`` until a pointer actually
        reads or writes keeps allocation O(1) without changing observable
        contents — untouched memory still reads back as zeros.
        """
        buf = self._data
        if buf is None:
            buf = self._data = np.zeros(self.size, dtype=np.uint8)
        return buf

    def ptr(self, offset: int = 0) -> "Ptr":
        return Ptr(self, offset)

    def materialise(self, lo: int, hi: int) -> None:
        """Copy out every pending snapshot overlapping ``[lo, hi)``; the
        caller is about to overwrite that range."""
        hit = False
        for snap in self.pending:
            if snap.offset < hi and lo < snap.offset + snap.nbytes:
                snap.materialise()
                hit = True
        if hit:
            self.pending = [s for s in self.pending if s.data is None]

    def contains_va(self, va: int) -> bool:
        return self.base <= va < self.base + self.size

    def __repr__(self) -> str:  # pragma: no cover
        dev = f" gpu{self.device_id}" if self.device_id is not None else ""
        return f"<Allocation {self.kind.value}{dev} n{self.node_id} size={self.size} va=0x{self.base:x}>"


class Snapshot:
    """A transfer payload: ``nbytes`` of memory as they were when taken.

    While *pending* (``data is None``) it holds no copy and reads through
    to its source allocation, where it is registered in
    :attr:`Allocation.pending`; the first write over its range copies it
    out first (:meth:`Allocation.materialise`).  Delivering a pending
    snapshot with :meth:`Ptr.write` is therefore one copy, source to
    destination.  Slicing (``payload[lo:hi]``) gives a view that reads
    through to its parent.  The transfer that took a snapshot must
    :meth:`release` it once it has delivered or died, or every later
    write to the source allocation keeps scanning it.
    """

    __slots__ = ("alloc", "offset", "nbytes", "data", "parent")

    def __init__(
        self, alloc: Optional[Allocation], offset: int, nbytes: int, parent: "Optional[Snapshot]" = None
    ):
        self.alloc = alloc
        self.offset = offset
        self.nbytes = nbytes
        self.data: Optional[np.ndarray] = None
        self.parent = parent

    def __len__(self) -> int:
        return self.nbytes

    def __getitem__(self, key: slice) -> "Snapshot":
        lo, hi, step = key.indices(self.nbytes)
        if step != 1:
            raise CudaError("payload snapshots slice contiguously")
        return Snapshot(None, lo, max(hi - lo, 0), parent=self)

    def array(self) -> np.ndarray:
        """The payload bytes as a uint8 array (a view: do not mutate)."""
        data = self.data
        if data is not None:
            return data
        lo = self.offset
        if self.parent is not None:
            return self.parent.array()[lo : lo + self.nbytes]
        if self.alloc is None:
            raise CudaError("payload snapshot used after release")
        return self.alloc.data[lo : lo + self.nbytes]

    def materialise(self) -> None:
        """Copy the bytes out of the source (the caller unregisters)."""
        lo = self.offset
        self.data = self.alloc.data[lo : lo + self.nbytes].copy()

    def release(self) -> None:
        """Drop the payload: its transfer delivered or died."""
        alloc = self.alloc
        if alloc is None:
            return
        if self.data is None:
            alloc.pending.remove(self)
        self.alloc = None
        self.data = None


class Ptr:
    """A typed-view-capable pointer into an :class:`Allocation`."""

    __slots__ = ("alloc", "offset")

    def __init__(self, alloc: Allocation, offset: int = 0):
        if not 0 <= offset <= alloc.size:
            raise CudaError(f"pointer offset {offset} outside allocation of {alloc.size} bytes")
        self.alloc = alloc
        self.offset = offset

    # ------------------------------------------------------------ queries
    @property
    def kind(self) -> MemKind:
        """UVA-style query: where does this pointer point?"""
        return self.alloc.kind

    @property
    def node_id(self) -> int:
        return self.alloc.node_id

    @property
    def device_id(self) -> Optional[int]:
        return self.alloc.device_id

    @property
    def va(self) -> int:
        """Virtual address of this pointer."""
        return self.alloc.base + self.offset

    @property
    def remaining(self) -> int:
        """Bytes from here to the end of the allocation."""
        return self.alloc.size - self.offset

    # --------------------------------------------------------- arithmetic
    def __add__(self, nbytes: int) -> "Ptr":
        return Ptr(self.alloc, self.offset + nbytes)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Ptr)
            and other.alloc is self.alloc
            and other.offset == self.offset
        )

    def __hash__(self) -> int:
        return hash((id(self.alloc), self.offset))

    # ------------------------------------------------------------- access
    def _check(self, nbytes: int) -> None:
        if self.alloc.freed:
            raise CudaError("use-after-free: allocation already released")
        if nbytes < 0:
            raise CudaError(f"negative byte count {nbytes}")
        if self.offset + nbytes > self.alloc.size:
            raise CudaError(
                f"access of {nbytes} bytes at offset {self.offset} overruns "
                f"allocation of {self.alloc.size} bytes"
            )

    def read(self, nbytes: int) -> bytes:
        """Copy ``nbytes`` out as an immutable snapshot."""
        self._check(nbytes)
        return self.alloc.data[self.offset : self.offset + nbytes].tobytes()

    def read_view(self, nbytes: int) -> np.ndarray:
        """Zero-copy read-only view of ``nbytes`` at this pointer.

        Unlike :meth:`read` this does NOT snapshot: the view aliases the
        allocation and sees every later write to it.  No data path uses
        it; timed transfers take a :meth:`snapshot`, which costs no copy
        unless the source is overwritten in flight.
        """
        self._check(nbytes)
        view = self.alloc.data[self.offset : self.offset + nbytes]
        view.flags.writeable = False
        return view

    def snapshot(self, nbytes: int) -> Snapshot:
        """The ``nbytes`` at this pointer as of now, as a :class:`Snapshot`.

        Every timed transfer takes its payload this way at issue time and
        writes it at completion.  No bytes are copied unless something
        overwrites the source range before the snapshot is released (or
        the allocation has escaped through :meth:`as_array`).
        """
        self._check(nbytes)
        alloc = self.alloc
        snap = Snapshot(alloc, self.offset, nbytes)
        if alloc.escaped:
            snap.materialise()
        else:
            alloc.pending.append(snap)
        return snap

    def write(self, payload) -> None:
        """Write a :class:`Snapshot`, ``bytes``/``memoryview`` or uint8
        ndarray here; pending snapshots of the range are copied out first."""
        snap = type(payload) is Snapshot
        n = payload.nbytes if snap else len(payload)
        self._check(n)
        alloc = self.alloc
        lo = self.offset
        if alloc.pending:
            alloc.materialise(lo, lo + n)
        if snap:
            payload = payload.array()
        elif not isinstance(payload, np.ndarray):
            payload = np.frombuffer(payload, dtype=np.uint8)
        alloc.data[lo : lo + n] = payload

    def as_array(self, dtype, count: Optional[int] = None) -> np.ndarray:
        """A mutable numpy view (used by compute kernels and tests).

        The model cannot see writes through the view, so this copies out
        every pending snapshot of the allocation and marks it escaped.
        """
        dtype = np.dtype(dtype)
        if count is None:
            count = self.remaining // dtype.itemsize
        nbytes = count * dtype.itemsize
        self._check(nbytes)
        alloc = self.alloc
        if alloc.pending:
            alloc.materialise(0, alloc.size)
        alloc.escaped = True
        return alloc.data[self.offset : self.offset + nbytes].view(dtype)

    def fill(self, value: int, nbytes: Optional[int] = None) -> None:
        """memset equivalent."""
        if nbytes is None:
            nbytes = self.remaining
        self._check(nbytes)
        alloc = self.alloc
        lo = self.offset
        if alloc.pending:
            alloc.materialise(lo, lo + nbytes)
        alloc.data[lo : lo + nbytes] = value

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Ptr {self.alloc.kind.value} va=0x{self.va:x} (+{self.offset})>"


class MemorySpace:
    """Cluster-wide virtual-address authority and allocation registry."""

    #: Leave a guard gap between allocations so adjacent-range bugs
    #: surface as lookup failures rather than silent corruption.
    GUARD = 4096

    def __init__(self) -> None:
        self._next_va = 0x7F00_0000_0000
        self._allocs: list = []

    def allocate(
        self,
        kind: MemKind,
        size: int,
        *,
        node_id: int,
        owner: int,
        device_id: Optional[int] = None,
        tag: str = "",
    ) -> Allocation:
        alloc = Allocation(
            self, kind, size, node_id, owner, device_id=device_id, base=self._next_va, tag=tag
        )
        self._next_va += size + self.GUARD
        self._allocs.append(alloc)
        return alloc

    def free(self, alloc: Allocation) -> None:
        if alloc.freed:
            raise CudaError("double free")
        alloc.freed = True

    def materialise_pending(self) -> None:
        """Copy out every pending snapshot in the space."""
        for alloc in self._allocs:
            if alloc.pending:
                alloc.materialise(0, alloc.size)

    def resolve(self, va: int) -> Ptr:
        """Reverse-map a virtual address to a live pointer."""
        for alloc in self._allocs:
            if not alloc.freed and alloc.contains_va(va):
                return alloc.ptr(va - alloc.base)
        raise CudaError(f"virtual address 0x{va:x} does not map to a live allocation")

    def live_bytes(self, kind: Optional[MemKind] = None) -> int:
        return sum(a.size for a in self._allocs if not a.freed and (kind is None or a.kind is kind))
