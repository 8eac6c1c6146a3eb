"""The per-PE OpenSHMEM API surface.

A :class:`ShmemContext` is what an application program receives: the
OpenSHMEM API as generator methods (``yield from ctx.putmem(...)``),
plus CUDA access for kernels and local buffers.  Every public call
passes through the *runtime gate*: while a PE is inside an OpenSHMEM
call its service engine may progress deferred target-side work, and
while it computes, that work stalls (see :mod:`repro.shmem.service`).
"""

from __future__ import annotations

from typing import Generator, List, Optional, Union

from repro.cuda.memory import Ptr
from repro.errors import ShmemError
from repro.shmem.address import SymAddr, SymPtr
from repro.shmem.constants import Domain
from repro.shmem import collectives as _coll
from repro.shmem.locks import LockOps
from repro.shmem.teams import TeamOps
from repro.simulator import Event, Process

_CMP = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
}


class ShmemContext(LockOps, TeamOps):
    """One PE's handle on the runtime.

    Mixins provide the wider standard surface: distributed locks
    (:class:`~repro.shmem.locks.LockOps`) and active-set collectives
    (:class:`~repro.shmem.teams.TeamOps`).
    """

    def __init__(self, job, pe: int):
        self.job = job
        self.pe = pe
        self.sim = job.sim
        self.cuda = job.cuda_of(pe)
        self.probe = job.probe
        #: Outstanding remote operations (completed by ``quiet``).
        self.pending: List[Event] = []
        self._watchers: List[Event] = []
        self._gate_depth = 0
        #: Ordinal of the *top-level* runtime call in flight (1-based);
        #: ``ShmemJob.run`` stamps it onto escaping exceptions so a
        #: failure names the op that raised it.
        self.op_index = 0
        self._scratch: Optional[Ptr] = None  # small host buffer for flags
        #: Collective flag generations, keyed ``(kind, team, flag offset)``.
        self._gens: dict = {}
        #: :meth:`sync_sym` pointers, keyed ``(offset, size)``.
        self._sync_syms: dict = {}

    # --------------------------------------------------------- identity
    @property
    def runtime(self):
        return self.job.runtime

    @property
    def npes(self) -> int:
        return self.job.npes

    def my_pe(self) -> int:
        return self.pe

    def n_pes(self) -> int:
        return self.npes

    @property
    def now(self) -> float:
        """Current virtual time (seconds)."""
        return self.sim.now

    @property
    def endpoint(self):
        return self.runtime.endpoints[self.pe]

    @property
    def scratch(self) -> Ptr:
        if self._scratch is None:
            self._scratch = self.cuda.malloc_host(256, tag=f"pe{self.pe}.scratch")
        return self._scratch

    def sync_sym(self, offset: int, size: int = 8) -> SymPtr:
        """A SymPtr into the reserved sync area of the host heap, built
        once per ``(offset, size)``: the host heap lives as long as the
        job, so the pointer never goes stale.  Callers share it and never
        mutate it."""
        key = (offset, size)
        sym = self._sync_syms.get(key)
        if sym is None:
            info = self.runtime.heap_of(self.pe, Domain.HOST)
            sym = self._sync_syms[key] = SymPtr(
                SymAddr(Domain.HOST, offset), info.heap.ptr(offset), size, self
            )
        return sym

    # ----------------------------------------------------- runtime gate
    def _enter(self) -> None:
        self._gate_depth += 1
        if self._gate_depth == 1:
            self.op_index += 1
            self.runtime.service[self.pe].enter_runtime()

    def _exit(self) -> None:
        self._gate_depth -= 1
        if self._gate_depth == 0:
            self.runtime.service[self.pe].exit_runtime()

    def track(self, ev: Event) -> None:
        """Register a background completion for ``quiet`` to wait on.

        The event is defused: a failure does not abort the simulation
        on the spot but is re-raised from the next ``quiet`` — matching
        one-sided semantics, where errors surface at completion points."""
        ev.defuse()
        self.pending.append(ev)

    def memory_changed(self) -> None:
        """Wake local ``wait_until`` watchers (called on deliveries)."""
        watchers, self._watchers = self._watchers, []
        for ev in watchers:
            if not ev.triggered:
                ev.succeed()

    # -------------------------------------------------------- allocation
    def shmalloc(self, size: int, domain: Domain = Domain.HOST, alignment: int = 64) -> Generator:
        """Collective symmetric allocation (the paper's two-argument
        ``shmalloc(size, domain)`` extension)."""
        if not self.runtime.caps.gpu_domain and domain is Domain.GPU:
            raise ShmemError(
                f"the {self.runtime.design!r} design has no GPU symmetric heap; "
                "allocate on the host and cudaMemcpy manually (Table I, Naive)"
            )
        self._enter()
        try:
            yield from _coll.barrier_all(self)
            info = self.runtime.heap_of(self.pe, domain)
            offset = info.heap.shmalloc(size, alignment)
            self.runtime.audit_symmetric_alloc(domain, info.heap.seq, offset, self.pe)
            yield from _coll.barrier_all(self)
        finally:
            self._exit()
        return SymPtr(
            SymAddr(domain, offset), info.heap.ptr(offset), size, self,
            gen=info.heap.generation(offset),
        )

    def shfree(self, sym: SymPtr) -> Generator:
        """Collective symmetric free.

        The pointer carries its allocation generation, so freeing a
        stale pointer whose offset has since been recycled — including
        any double free — raises :class:`ShmemError` instead of
        silently releasing the wrong live block."""
        self._enter()
        try:
            yield from _coll.barrier_all(self)
            info = self.runtime.heap_of(self.pe, sym.domain)
            info.heap.shfree(sym.offset, generation=sym.gen)
            yield from _coll.barrier_all(self)
        finally:
            self._exit()
        return None

    # --------------------------------------------------------- put / get
    @staticmethod
    def _as_local_ptr(buf: Union[Ptr, SymPtr]) -> Ptr:
        return buf.local if isinstance(buf, SymPtr) else buf

    @staticmethod
    def _as_sym(buf: Union[SymPtr, SymAddr]) -> SymAddr:
        return buf.addr if isinstance(buf, SymPtr) else buf

    def putmem(self, dst: Union[SymPtr, SymAddr], src: Union[Ptr, SymPtr], nbytes: int, pe: int) -> Generator:
        """``shmem_putmem``: copy local ``src`` into ``dst`` on PE ``pe``.

        Returns when the *source buffer is reusable*; completion at the
        target requires ``quiet``/``barrier`` (OpenSHMEM semantics)."""
        self._enter()
        try:
            yield from self.runtime.putmem(self, self._as_sym(dst), self._as_local_ptr(src), nbytes, pe)
        finally:
            self._exit()
        return None

    def putmem_nbi(self, dst: Union[SymPtr, SymAddr], src: Union[Ptr, SymPtr], nbytes: int, pe: int) -> Process:
        """``shmem_putmem_nbi``: returns immediately; the transfer (and
        even its local completion) is deferred — ``quiet`` completes it.

        Per the standard, the source buffer may not be modified until
        after ``quiet``."""
        proc = self.sim.process(self.putmem(dst, src, nbytes, pe), name=f"pe{self.pe}:put_nbi")
        self.track(proc)
        return proc

    def getmem(self, dst: Union[Ptr, SymPtr], src: Union[SymPtr, SymAddr], nbytes: int, pe: int) -> Generator:
        """``shmem_getmem``: blocking fetch from PE ``pe``."""
        self._enter()
        try:
            yield from self.runtime.getmem(self, self._as_local_ptr(dst), self._as_sym(src), nbytes, pe)
        finally:
            self._exit()
        return None

    def put_uint64(self, dst: Union[SymPtr, SymAddr], value: int, pe: int) -> Generator:
        """Convenience: put one little-endian 8-byte integer."""
        self.scratch.write(int(value).to_bytes(8, "little"))
        yield from self.putmem(dst, self.scratch, 8, pe)

    # ------------------------------------------------- two-sided messaging
    def isend(
        self,
        buf: Union[Ptr, SymPtr],
        nbytes: int,
        dst: int,
        tag: int = 0,
        transport: Optional[str] = None,
    ) -> Event:
        """Post a two-sided send (:mod:`repro.msg`); the returned event
        fires when the send buffer is reusable.  Eager sends complete
        immediately; rendezvous sends complete after the RTS/CTS
        handshake and data transfer."""
        self._enter()
        try:
            ev = self.job.msg.isend(
                self.pe, self._as_local_ptr(buf), nbytes, dst, tag, transport
            )
        finally:
            self._exit()
        return ev

    def irecv(
        self,
        buf: Union[Ptr, SymPtr],
        nbytes: int,
        src: Optional[int] = None,
        tag: Optional[int] = None,
    ) -> Event:
        """Post a two-sided receive; the returned event fires on
        delivery with value ``(source, tag)``.  ``src=None`` /
        ``tag=None`` are the wildcards (``ANY_SOURCE`` / ``ANY_TAG``)."""
        from repro.msg import ANY_SOURCE, ANY_TAG

        self._enter()
        try:
            ev = self.job.msg.irecv(
                self.pe,
                self._as_local_ptr(buf),
                nbytes,
                ANY_SOURCE if src is None else src,
                ANY_TAG if tag is None else tag,
            )
        finally:
            self._exit()
        return ev

    def send(
        self,
        buf: Union[Ptr, SymPtr],
        nbytes: int,
        dst: int,
        tag: int = 0,
        transport: Optional[str] = None,
    ) -> Generator:
        """Blocking two-sided send (returns when the buffer is reusable)."""
        ev = self.isend(buf, nbytes, dst, tag, transport)
        yield self.job.sim.timeout(self.job.params.shmem_dispatch_overhead)
        yield ev
        return None

    def recv(
        self,
        buf: Union[Ptr, SymPtr],
        nbytes: int,
        src: Optional[int] = None,
        tag: Optional[int] = None,
    ) -> Generator:
        """Blocking two-sided receive; returns the matched
        ``(source, tag)`` envelope."""
        ev = self.irecv(buf, nbytes, src, tag)
        yield self.job.sim.timeout(self.job.params.shmem_dispatch_overhead)
        envelope = yield ev
        return envelope

    # ---------------------------------------------------------- ordering
    def quiet(self) -> Generator:
        """``shmem_quiet``: all prior puts/atomics complete everywhere."""
        self._enter()
        try:
            yield from self.runtime.quiet(self)
        finally:
            self._exit()
        return None

    def fence(self) -> Generator:
        self._enter()
        try:
            yield from self.runtime.fence(self)
        finally:
            self._exit()
        return None

    def wait_until(self, sym: SymPtr, cmp: str, value: int, nbytes: int = 8) -> Generator:
        """``shmem_wait_until`` on a local symmetric word."""
        try:
            compare = _CMP[cmp]
        except KeyError:
            raise ShmemError(f"unknown comparison {cmp!r}; use one of {sorted(_CMP)}") from None
        self._enter()
        try:
            while True:
                current = int.from_bytes(sym.local.read(nbytes), "little")
                if compare(current, value):
                    return current
                ev = self.sim.event(f"pe{self.pe}.wait")
                self._watchers.append(ev)
                yield ev
        finally:
            self._exit()

    # ----------------------------------------------------------- atomics
    def atomic_fetch_add(self, sym: Union[SymPtr, SymAddr], value: int, pe: int, nbytes: int = 8) -> Generator:
        self._enter()
        try:
            old = yield from self.runtime.atomic_fetch_add(self, self._as_sym(sym), value, pe, nbytes)
        finally:
            self._exit()
        return old

    def atomic_compare_swap(
        self, sym: Union[SymPtr, SymAddr], compare: int, swap: int, pe: int, nbytes: int = 8
    ) -> Generator:
        self._enter()
        try:
            old = yield from self.runtime.atomic_compare_swap(
                self, self._as_sym(sym), compare, swap, pe, nbytes
            )
        finally:
            self._exit()
        return old

    def atomic_swap(self, sym: Union[SymPtr, SymAddr], value: int, pe: int, nbytes: int = 8) -> Generator:
        self._enter()
        try:
            old = yield from self.runtime.atomic_swap(self, self._as_sym(sym), value, pe, nbytes)
        finally:
            self._exit()
        return old

    def atomic_fetch(self, sym: Union[SymPtr, SymAddr], pe: int, nbytes: int = 8) -> Generator:
        self._enter()
        try:
            old = yield from self.runtime.atomic_fetch(self, self._as_sym(sym), pe, nbytes)
        finally:
            self._exit()
        return old

    def atomic_set(self, sym: Union[SymPtr, SymAddr], value: int, pe: int, nbytes: int = 8) -> Generator:
        self._enter()
        try:
            yield from self.runtime.atomic_set(self, self._as_sym(sym), value, pe, nbytes)
        finally:
            self._exit()
        return None

    # -------------------------------------------------------- collectives
    def barrier_all(self) -> Generator:
        self._enter()
        try:
            yield from _coll.barrier_all(self)
        finally:
            self._exit()
        return None

    def broadcast(self, sym: SymPtr, nbytes: int, root: int = 0) -> Generator:
        self._enter()
        try:
            yield from _coll.broadcast(self, sym, nbytes, root)
        finally:
            self._exit()
        return None

    def reduce(self, dst: SymPtr, src: SymPtr, count: int, dtype="float64", op: str = "sum") -> Generator:
        """All-reduce ``count`` elements of ``src`` into ``dst``."""
        self._enter()
        try:
            yield from _coll.allreduce(self, dst, src, count, dtype, op)
        finally:
            self._exit()
        return None

    def fcollect(self, dst: SymPtr, src: SymPtr, nbytes: int) -> Generator:
        """Concatenate every PE's ``nbytes`` of ``src`` into ``dst``."""
        self._enter()
        try:
            yield from _coll.fcollect(self, dst, src, nbytes)
        finally:
            self._exit()
        return None

    def collect(self, dst: SymPtr, src: SymPtr, my_nbytes: int) -> Generator:
        """Variable-size all-gather; returns this PE's offset in ``dst``."""
        self._enter()
        try:
            off = yield from _coll.collect(self, dst, src, my_nbytes)
        finally:
            self._exit()
        return off

    def alltoall(self, dst: SymPtr, src: SymPtr, nbytes: int) -> Generator:
        """Block exchange: my block ``j`` of ``src`` -> PE ``j``'s block
        ``my_pe`` of ``dst``."""
        self._enter()
        try:
            yield from _coll.alltoall(self, dst, src, nbytes)
        finally:
            self._exit()
        return None

    # --------------------------------------------------------- ptr access
    def shmem_ptr(self, sym: Union[SymPtr, SymAddr], pe: int) -> Optional[Ptr]:
        """Direct pointer to PE ``pe``'s copy, or None when unreachable."""
        return self.runtime.shmem_ptr(self, self._as_sym(sym), pe)

    # ------------------------------------------------------------ compute
    def compute(self, seconds: float) -> Generator:
        """CPU work *outside* the runtime — no progress happens (Fig 10).

        When the job runs with a service thread, the thread's core
        consumption inflates application CPU time (§III-C)."""
        if seconds < 0:
            raise ShmemError(f"negative compute time {seconds}")
        if self.runtime.service_thread:
            seconds *= self.runtime.params.service_thread_compute_penalty
        if seconds:
            yield self.sim.timeout(seconds, name=f"pe{self.pe}.compute")
        return None

    def gpu_compute(self, seconds: float) -> Generator:
        """Launch a modeled GPU kernel (also outside the runtime)."""
        yield from self.cuda.launch_kernel(seconds)
        return None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<ShmemContext pe={self.pe}/{self.npes}>"
