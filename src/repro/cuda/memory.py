"""Byte-accurate memory model: allocations, pointers, the UVA space.

Every :class:`Allocation` owns a numpy ``uint8`` buffer and a globally
unique virtual-address range assigned by its :class:`MemorySpace` (one
space per simulated cluster — a deliberate simplification of per-process
UVA that makes symmetric-address bookkeeping easy to audit in tests).

:class:`Ptr` is ``allocation + offset`` with pointer arithmetic, typed
array views, and bounds-checked raw access.  All data movement in the
simulator ultimately goes through :meth:`Ptr.read` / :meth:`Ptr.write`.

Only :meth:`Ptr.write`, :meth:`Ptr.fill` and :meth:`Ptr.as_array` mutate
memory, and only :meth:`Ptr.read`, :meth:`Ptr.read_view`,
:meth:`Ptr.as_array` and :meth:`Ptr.snapshot` observe it.  That
invariant lets a timed transfer move its bytes lazily at both ends:

* its payload is a deferred :class:`Snapshot`, which reads through to
  its source until a mutator is about to change the bytes it covers,
  and only then is copied out;
* delivering it with :meth:`Ptr.write` records an :class:`Inbound`
  range on the destination instead of copying.  The range is *applied*
  (the one copy, source to destination) only when its bytes could be
  observed: a read of it, a write that covers only part of it, a
  snapshot not wholly inside it, or a write about to change its source.
  A snapshot wholly inside it is taken from its source instead, and a
  write or fill that covers all of it drops it unread.

``as_array`` and ``read_view`` hand out views the model cannot watch, so
they *escape* their allocation: it is settled first, and from then on
its snapshots are copied and its writes land at once.
:attr:`MemorySpace.bytes_copied` counts every byte the model physically
copies: eager writes, copy-outs and applies.
"""

from __future__ import annotations

import enum
from typing import Optional

import numpy as np

from repro.errors import CudaError


class MemKind(enum.Enum):
    """Which physical memory an allocation lives in."""

    __hash__ = object.__hash__  # identity: members are singletons

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
        "pending", "inbound", "escaped",
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
        #: Unmaterialised snapshots (and inbound ranges elsewhere) still
        #: reading through to this buffer.
        self.pending: list = []
        #: Delivered payloads not yet copied into this buffer; disjoint.
        self.inbound: list = []
        #: Set once a view the model cannot watch has been handed out.
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
        """Settle every registration reading ``[lo, hi)``; the caller is
        about to overwrite that range.  A snapshot is copied out; an
        inbound range is applied to its destination."""
        keep = []
        for snap in self.pending:
            if snap.offset < hi and lo < snap.offset + snap.nbytes:
                snap.materialise()
            else:
                keep.append(snap)
        self.pending = keep

    def settle(self, lo: int, hi: int, overwrite: bool = False) -> None:
        """Apply every inbound range overlapping ``[lo, hi)``, which is
        about to be observed; with ``overwrite`` (it is about to be
        written) a range inside ``[lo, hi)`` is dropped unread instead."""
        keep = []
        for rng in self.inbound:
            at = rng.at
            end = at + rng.nbytes
            if not (at < hi and lo < end):
                keep.append(rng)
            elif overwrite and lo <= at and end <= hi:
                rng.release()
            else:
                rng.apply()
        self.inbound = keep

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
    out first (:meth:`Allocation.materialise`).  Delivering a snapshot
    with :meth:`Ptr.write` copies nothing: the destination records an
    :class:`Inbound` range with its own registration.  Slicing
    (``payload[lo:hi]``) gives a view that reads through to its parent.
    The transfer that took a snapshot must :meth:`release` it once it
    has delivered or died, or every later write to the source
    allocation keeps scanning it.
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
        MemorySpace.bytes_copied += self.nbytes

    def release(self) -> None:
        """Drop the payload: its transfer delivered or died."""
        alloc = self.alloc
        if alloc is not None and self.data is None:
            alloc.pending.remove(self)
        self.alloc = None
        self.data = None


class Inbound(Snapshot):
    """A payload delivered to ``dst`` at offset ``at``, not yet copied.

    It is a snapshot of its own of the delivered bytes (registered on
    their source, or sharing a copied-out payload's bytes), so the
    transfer releases its payload at delivery as before.  It sits in
    ``dst``'s :attr:`Allocation.inbound` until it is applied or dropped.
    """

    __slots__ = ("dst", "at")

    def __init__(self, payload: Snapshot, dst: Allocation, at: int):
        n = payload.nbytes
        off = 0
        while payload.parent is not None:
            off += payload.offset
            payload = payload.parent
        super().__init__(payload.alloc, payload.offset + off, n)
        data = payload.data
        if data is not None:
            self.alloc = None
            self.data = data[off : off + n]
        elif payload.alloc is None:
            raise CudaError("payload snapshot used after release")
        else:
            payload.alloc.pending.append(self)
        self.dst = dst
        self.at = at

    def _copy(self) -> None:
        at = self.at
        self.dst.data[at : at + self.nbytes] = self.array()
        MemorySpace.bytes_copied += self.nbytes

    def apply(self) -> None:
        """Copy into the destination (the caller unlinks it there)."""
        self._copy()
        self.release()

    def materialise(self) -> None:
        """The source is about to change: apply now, straight into the
        destination (the caller unregisters it from the source)."""
        self.dst.inbound.remove(self)
        self._copy()
        self.alloc = None

    def forward(self, off: int, nbytes: int) -> Snapshot:
        """A snapshot of ``nbytes`` at ``off`` into this range, taken
        from its source so that chains stay one deep."""
        snap = Snapshot(self.alloc, self.offset + off, nbytes)
        if self.data is not None:
            snap.data = self.data[off : off + nbytes]
        else:
            self.alloc.pending.append(snap)
        return snap


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
        alloc = self.alloc
        lo = self.offset
        if alloc.inbound:
            alloc.settle(lo, lo + nbytes)
        return alloc.data[lo : lo + nbytes].tobytes()

    def read_view(self, nbytes: int) -> np.ndarray:
        """Zero-copy read-only view of ``nbytes`` at this pointer.

        Unlike :meth:`read` this does NOT snapshot: the view aliases the
        allocation and sees every later write to it, so it escapes the
        allocation.  Its one caller is the post-run heap read-back of
        the differential harness (:meth:`SymmetricHeap.read_back`),
        which reads memory no one writes again.  No data path uses it;
        timed transfers take a :meth:`snapshot`, which costs no copy
        unless the source is overwritten in flight.
        """
        self._check(nbytes)
        alloc = self.alloc
        lo = self.offset
        if alloc.inbound:
            alloc.settle(lo, lo + nbytes)
        alloc.escaped = True
        view = alloc.data[lo : lo + nbytes]
        view.flags.writeable = False
        return view

    def snapshot(self, nbytes: int) -> Snapshot:
        """The ``nbytes`` at this pointer as of now, as a :class:`Snapshot`.

        Every timed transfer takes its payload this way at issue time and
        writes it at completion.  No bytes are copied unless something
        overwrites the source range before the snapshot is released (or
        the allocation has escaped).  A range wholly inside one inbound
        range is taken from that range's source.
        """
        self._check(nbytes)
        alloc = self.alloc
        lo = self.offset
        hi = lo + nbytes
        if alloc.inbound:
            for rng in alloc.inbound:
                if rng.at <= lo and hi <= rng.at + rng.nbytes:
                    return rng.forward(lo - rng.at, nbytes)
            alloc.settle(lo, hi)
        snap = Snapshot(alloc, lo, nbytes)
        if alloc.escaped:
            snap.materialise()
        else:
            alloc.pending.append(snap)
        return snap

    def write(self, payload) -> None:
        """Write a :class:`Snapshot`, ``bytes``/``memoryview`` or uint8
        ndarray here.  Registrations reading the range are settled first
        and inbound ranges it covers are dropped; a snapshot is recorded
        as an inbound range unless the allocation has escaped."""
        snap = type(payload) is Snapshot
        n = payload.nbytes if snap else len(payload)
        self._check(n)
        alloc = self.alloc
        lo = self.offset
        if snap and payload.alloc is alloc and payload.offset == lo and payload.data is None:
            return  # bytes written back where they are read from: no change
        if alloc.pending:
            alloc.materialise(lo, lo + n)
        if alloc.inbound:
            alloc.settle(lo, lo + n, overwrite=True)
        if snap:
            if n and not alloc.escaped:
                alloc.inbound.append(Inbound(payload, alloc, lo))
                return
            payload = payload.array()
        elif not isinstance(payload, np.ndarray):
            payload = np.frombuffer(payload, dtype=np.uint8)
        alloc.data[lo : lo + n] = payload
        MemorySpace.bytes_copied += n

    def as_array(self, dtype, count: Optional[int] = None) -> np.ndarray:
        """A mutable numpy view (used by compute kernels and tests).

        The model cannot see writes through the view, so this settles
        every registration and inbound range of the allocation and marks
        it escaped.
        """
        dtype = np.dtype(dtype)
        if count is None:
            count = self.remaining // dtype.itemsize
        nbytes = count * dtype.itemsize
        self._check(nbytes)
        alloc = self.alloc
        if alloc.pending:
            alloc.materialise(0, alloc.size)
        if alloc.inbound:
            alloc.settle(0, alloc.size)
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
        if alloc.inbound:
            alloc.settle(lo, lo + nbytes, overwrite=True)
        alloc.data[lo : lo + nbytes] = value

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Ptr {self.alloc.kind.value} va=0x{self.va:x} (+{self.offset})>"


class MemorySpace:
    """Cluster-wide virtual-address authority and allocation registry."""

    #: Leave a guard gap between allocations so adjacent-range bugs
    #: surface as lookup failures rather than silent corruption.
    GUARD = 4096

    #: Bytes the memory model has physically copied in this process
    #: (eager writes, snapshot copy-outs, inbound applies); monotone, so
    #: read it as a difference across the work being measured.
    bytes_copied = 0

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
        for rng in alloc.inbound:  # nothing can read them any more
            rng.release()
        alloc.inbound = []

    def materialise_pending(self) -> None:
        """Copy out every pending snapshot in the space (inbound ranges
        reading through are applied)."""
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
