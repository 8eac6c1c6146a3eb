"""Collective operations built on the one-sided layer.

OpenSHMEM collectives (barrier, broadcast, reductions, fcollect) are
implemented *on top of* put/get + wait_until + atomics, exactly as a
PGAS runtime layers them, so every collective automatically benefits
from (and exercises) whichever point-to-point design the job selected.

Barrier, broadcast and all-reduce run over an *active set* (see
:class:`repro.shmem.teams.ActiveSet`); ``team=None`` is the set of
every PE, as OpenSHMEM 1.x defines ``shmem_barrier_all``.  Ranks
translate to PEs through ``team.pe_of`` and the algorithm is chosen
from the payload and the team size alone, so the world collectives and
the team collectives are one implementation.

Synchronization flags live in the reserved region at the bottom of
each host heap (see :data:`repro.shmem.runtime.SYNC_RESERVED`):

====================  ===========================================
offset                use
====================  ===========================================
0    .. 255           every-PE barrier round flags (32 x 8 B)
512  .. 519           every-PE broadcast arrival flag
576  .. 583           generic notify flag (apps / tests)
1024 .. 1279          team area: 32 slots x 8 B
2048 .. 4095          per-PE size table for variable collect
====================  ===========================================

A team collective called with ``sync_slot`` s owns team slots
``s .. s+7``, clipped to the area (:meth:`TeamOps._team_flags
<repro.shmem.teams.TeamOps._team_flags>`): barrier rounds take the
range's slots in order and the broadcast flag its last slot.  The
defaults are slots 0..7 for ``team_barrier``, 8..15 for
``team_broadcast`` and 16..23 for ``team_reduce``.  A team whose
barrier needs more rounds than its range holds raises
:class:`~repro.errors.ShmemError` before any flag is written.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Generator, NamedTuple

import numpy as np

from repro.errors import ShmemError

#: Sync-area layout (offsets into the reserved host-heap region).
BARRIER_SLOTS_OFF = 0
BARRIER_MAX_ROUNDS = 32
BCAST_FLAG_OFF = 512
NOTIFY_FLAG_OFF = 576
#: Per-PE size table for variable collect (8 B x npes, npes <= 256).
COLLECT_SIZES_OFF = 2048

_REDUCE_OPS = {
    "sum": np.add,
    "prod": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
}


class FlagArea(NamedTuple):
    """Where one collective keeps its flags in the sync area."""

    #: Offset of the barrier's round-0 word (one 8-byte word per round).
    barrier: int
    #: How many round words the area holds.
    rounds: int
    #: Offset of the broadcast arrival word.
    bcast: int


#: The every-PE collectives' flags.
WORLD_FLAGS = FlagArea(BARRIER_SLOTS_OFF, BARRIER_MAX_ROUNDS, BCAST_FLAG_OFF)

#: Above this size, broadcast switches from the binomial tree (optimal
#: for latency) to scatter + ring-allgather (optimal for bandwidth:
#: each PE sends ~2x the payload instead of the tree's log2(n) x).
BCAST_LARGE_THRESHOLD = 128 * 1024
#: Above this element count, allreduce switches from root-gather to
#: recursive doubling (log2(n) rounds instead of n-1 serial gets).
ALLREDUCE_RD_THRESHOLD = 32


@lru_cache(maxsize=None)
def _every_pe(npes: int):
    from repro.shmem.teams import ActiveSet

    return ActiveSet(0, 0, npes)


def _resolve(ctx, team):
    """``(team, this PE's rank in it)``; ``None`` means every PE."""
    if team is None:
        return _every_pe(ctx.npes), ctx.pe
    return team, team.rank_of(ctx.pe)


def _next_gen(ctx, kind: str, team, offset: int) -> int:
    """Bump and return the generation of one collective's flags.

    Flags carry the generation, so their words are reusable without
    clearing; every member bumps the same key in the same order."""
    key = (kind, team, offset)
    gen = ctx._gens.get(key, 0) + 1
    ctx._gens[key] = gen
    return gen


def _signal(ctx, flag, gen: int, peer: int, wait: bool = False) -> Generator:
    """Set the sync word ``flag`` on PE ``peer`` to ``gen`` and complete
    the put; with ``wait``, then wait until this PE's own ``flag``
    reaches ``gen``.  One barrier round, or one broadcast hand-off.

    It runs inside the runtime gate the calling collective holds, so it
    calls the runtime's put and quiet directly and waits on the word
    inline: the same steps ``put_uint64``, ``quiet`` and ``wait_until``
    take inside a held gate, without their wrapper frames."""
    runtime = ctx.job.runtime
    scratch = ctx.scratch
    scratch.write(gen.to_bytes(8, "little"))
    yield from runtime.putmem(ctx, flag.addr, scratch, 8, peer)
    yield from runtime.quiet(ctx)
    if wait:
        local = flag.local
        while int.from_bytes(local.read(8), "little") < gen:
            ev = ctx.sim.event(f"pe{ctx.pe}.wait")
            ctx._watchers.append(ev)
            yield ev


def barrier_all(ctx, team=None, flags: FlagArea = WORLD_FLAGS) -> Generator:
    """Dissemination barrier over put + wait_until.

    Round ``r``: signal rank ``(me + 2^r) % size`` of ``team`` at word
    ``r`` of the barrier area and wait for the matching signal;
    ``log2(size)`` rounds (:func:`_signal`, inside the caller's gate)."""
    team, me = _resolve(ctx, team)
    size = team.size
    if size == 1:
        return None
    rounds = (size - 1).bit_length()
    if rounds > flags.rounds:
        raise ShmemError(
            f"a {size}-PE barrier needs {rounds} flag words; its sync area holds {flags.rounds}"
        )
    gen = _next_gen(ctx, "barrier", team, flags.barrier)
    for rnd in range(rounds):
        partner = team.pe_of((me + (1 << rnd)) % size)
        yield from _signal(ctx, ctx.sync_sym(flags.barrier + 8 * rnd), gen, partner, wait=True)
    return None


def broadcast(ctx, sym, nbytes: int, root: int = 0, team=None,
              flags: FlagArea = WORLD_FLAGS) -> Generator:
    """Broadcast ``nbytes`` of the symmetric object ``sym`` from rank
    ``root`` of ``team`` to every member.

    Hybrid algorithm, as production runtimes implement it: a binomial
    tree below :data:`BCAST_LARGE_THRESHOLD` (log2(n) one-message
    latency), scatter + ring-allgather above it (van de Geijn — every
    PE moves ~2x the payload regardless of n)."""
    team, me = _resolve(ctx, team)
    size = team.size
    if size == 1:
        return None
    if not 0 <= root < size:
        raise ShmemError(f"broadcast root {root} out of range")
    if nbytes > sym.size:
        raise ShmemError(f"broadcast of {nbytes} B exceeds the {sym.size}-byte object")
    if nbytes > BCAST_LARGE_THRESHOLD and size > 2 and nbytes >= size:
        yield from _broadcast_scatter_allgather(ctx, sym, nbytes, root, team, me, flags)
        return None
    yield from _broadcast_binomial(ctx, sym, nbytes, root, team, me, flags)
    return None


def _broadcast_binomial(ctx, sym, nbytes: int, root: int, team, me: int, flags) -> Generator:
    size = team.size
    gen = _next_gen(ctx, "bcast", team, flags.bcast)
    vrank = (me - root) % size
    flag = ctx.sync_sym(flags.bcast)
    if vrank != 0:
        yield from ctx.wait_until(flag, ">=", gen)
    mask = 1
    while mask < size:
        if vrank < mask:
            peer_v = vrank + mask
            if peer_v < size:
                peer = team.pe_of((root + peer_v) % size)
                yield from ctx.putmem(sym.addr, sym.local, nbytes, peer)
                yield from ctx.quiet()  # data before flag
                yield from _signal(ctx, flag, gen, peer)
        mask <<= 1
    return None


def _broadcast_scatter_allgather(ctx, sym, nbytes: int, root: int, team, me: int,
                                 flags) -> Generator:
    """van de Geijn: root scatters n/p blocks, then a ring allgather
    reassembles them everywhere.  Block boundaries are computed
    identically on every member from (nbytes, size)."""
    size = team.size
    base, rem = divmod(nbytes, size)
    bounds = []
    off = 0
    for rank in range(size):
        bsize = base + (1 if rank < rem else 0)
        bounds.append((off, bsize))
        off += bsize
    # Phase 1 — scatter: root puts block v to virtual rank v.
    if me == root:
        for v in range(size):
            peer = team.pe_of((root + v) % size)
            boff, bsize = bounds[v]
            if v and bsize:
                yield from ctx.putmem(sym.addr + boff, sym.local + boff, bsize, peer)
        yield from ctx.quiet()
    yield from barrier_all(ctx, team, flags)
    # Phase 2 — ring allgather: in step s, vrank v forwards the block
    # it received in step s-1 (block (v - s) mod p) to its right
    # neighbour.  size - 1 steps; one barrier per step keeps the ring
    # in lockstep (flags would be cheaper; clarity wins here).
    vrank = (me - root) % size
    right = team.pe_of((root + vrank + 1) % size)
    for step in range(size - 1):
        boff, bsize = bounds[(vrank - step) % size]
        if bsize:
            yield from ctx.putmem(sym.addr + boff, sym.local + boff, bsize, right)
        yield from ctx.quiet()
        yield from barrier_all(ctx, team, flags)
    return None


def allreduce(ctx, dst, src, count: int, dtype="float64", op: str = "sum", team=None,
              flags: FlagArea = WORLD_FLAGS) -> Generator:
    """All-reduce: every member of ``team`` ends with ``op`` over all
    members' ``src`` in ``dst``.

    Small element counts use a root-gather (rank 0 fetches every
    contribution, reduces, broadcasts); larger ones use recursive
    doubling in the destination buffer — log2(n) exchange rounds, the
    textbook power-of-two algorithm, with a root-gather fallback for
    non-power-of-two teams."""
    try:
        reducer = _REDUCE_OPS[op]
    except KeyError:
        raise ShmemError(f"unknown reduction {op!r}; use one of {sorted(_REDUCE_OPS)}") from None
    dt = np.dtype(dtype)
    nbytes = count * dt.itemsize
    if nbytes > src.size or nbytes > dst.size:
        raise ShmemError("reduction exceeds symmetric object size")
    team, me = _resolve(ctx, team)
    size = team.size
    if count > ALLREDUCE_RD_THRESHOLD and size > 2 and (size & (size - 1)) == 0:
        yield from _allreduce_recursive_doubling(ctx, dst, src, count, dt, reducer, team, me, flags)
        return None
    yield from barrier_all(ctx, team, flags)  # every source buffer is ready
    if me == 0:
        from repro.shmem.constants import Domain

        acc = np.frombuffer(src.local.read(nbytes), dtype=dt)
        # Fetch remote contributions *same-domain* (D-D for GPU operands,
        # which every CUDA-aware design supports), then stage to the host
        # locally for the arithmetic — as a CUDA-aware collective would.
        on_gpu = src.domain is Domain.GPU
        tmp = ctx.cuda.malloc(nbytes) if on_gpu else ctx.cuda.malloc_host(nbytes)
        host_tmp = ctx.cuda.malloc_host(nbytes, tag="reduce.tmp") if on_gpu else tmp
        try:
            for rank in range(1, size):
                yield from ctx.getmem(tmp, src.addr, nbytes, team.pe_of(rank))
                if on_gpu:
                    yield from ctx.cuda.memcpy(host_tmp, tmp, nbytes)
                acc = reducer(acc, host_tmp.as_array(dt, count))
        finally:
            if on_gpu:
                ctx.cuda.free(host_tmp)
            ctx.cuda.free(tmp)
        staged = ctx.cuda.malloc_host(nbytes, tag="reduce.out")
        try:
            staged.as_array(dt, count)[:] = acc
            yield from ctx.cuda.memcpy(dst.local, staged, nbytes)
        finally:
            ctx.cuda.free(staged)
    yield from broadcast(ctx, dst, nbytes, 0, team, flags)
    yield from barrier_all(ctx, team, flags)
    return None


def _allreduce_recursive_doubling(ctx, dst, src, count: int, dt, reducer, team, me: int,
                                  flags) -> Generator:
    """Recursive doubling: in round r, exchange partials with the rank
    at xor-distance 2^r and combine.  The destination symmetric object
    is the exchange workspace: each member publishes its current
    accumulator into its own ``dst`` and fetches the partner's.  Rounds
    are barrier-separated so the publishes of round r never race the
    fetches of round r-1."""
    from repro.shmem.constants import Domain

    nbytes = count * dt.itemsize
    # Accumulate on the host (kernels would do this on the GPU; the
    # staging cost is charged through the timed copies below).
    acc = np.frombuffer(src.local.read(nbytes), dtype=dt)
    on_gpu = dst.domain is Domain.GPU
    stage = ctx.cuda.malloc_host(nbytes, tag="rd.stage")
    try:
        mask = 1
        while mask < team.size:
            partner = team.pe_of(me ^ mask)
            # publish my current accumulator into my own dst copy...
            stage.as_array(dt, count)[:] = acc
            yield from ctx.cuda.memcpy(dst.local, stage, nbytes)
            yield from barrier_all(ctx, team, flags)
            # ...and fetch the partner's (one-sided get, D-D when on GPU)
            tmp = ctx.cuda.malloc(nbytes) if on_gpu else ctx.cuda.malloc_host(nbytes)
            host_tmp = ctx.cuda.malloc_host(nbytes) if on_gpu else tmp
            try:
                yield from ctx.getmem(tmp, dst.addr, nbytes, partner)
                if on_gpu:
                    yield from ctx.cuda.memcpy(host_tmp, tmp, nbytes)
                acc = reducer(acc, host_tmp.as_array(dt, count))
            finally:
                if on_gpu:
                    ctx.cuda.free(host_tmp)
                ctx.cuda.free(tmp)
            yield from barrier_all(ctx, team, flags)
            mask <<= 1
        stage.as_array(dt, count)[:] = acc
        yield from ctx.cuda.memcpy(dst.local, stage, nbytes)
    finally:
        ctx.cuda.free(stage)
    yield from barrier_all(ctx, team, flags)
    return None


def alltoall(ctx, dst, src, nbytes: int) -> Generator:
    """All-to-all: PE ``i``'s block ``j`` of ``src`` lands at block ``i``
    of PE ``j``'s ``dst`` (blocks of ``nbytes``)."""
    npes = ctx.npes
    if nbytes * npes > src.size or nbytes * npes > dst.size:
        raise ShmemError(
            f"alltoall needs {nbytes * npes} B in both buffers "
            f"(src {src.size}, dst {dst.size})"
        )
    yield from barrier_all(ctx)
    me = ctx.pe
    # Local block without touching the network, then a pairwise schedule
    # (i xor-style rotation) to spread load over the fabric.
    yield from ctx.cuda.memcpy(dst.local + me * nbytes, src.local + me * nbytes, nbytes)
    for i in range(1, npes):
        peer = (me + i) % npes
        yield from ctx.putmem(dst.addr + me * nbytes, src.local + peer * nbytes, nbytes, peer)
    yield from ctx.quiet()
    yield from barrier_all(ctx)
    return None


def collect(ctx, dst, src, my_nbytes: int) -> Generator:
    """Variable-size all-gather (``shmem_collect``): PE ``i``
    contributes ``my_nbytes_i`` bytes; contributions concatenate in
    rank order on every PE.  Returns this PE's starting offset.

    Implemented the way runtimes do: an fcollect of the per-PE sizes
    (8 B each, through a scratch area in the reserved sync region),
    an exclusive prefix sum, then the fcollect-style data puts at the
    computed displacements."""
    npes = ctx.npes
    if my_nbytes < 0:
        raise ShmemError(f"collect contribution must be >= 0, got {my_nbytes}")
    if my_nbytes > src.size:
        raise ShmemError("collect contribution exceeds the source object")
    # --- size exchange through the sync-area scratch table -----------
    if 8 * npes > 2048:
        raise ShmemError("collect size table exceeds the reserved sync area")
    yield from barrier_all(ctx)
    # The slot is a function of this PE alone.
    my_slot = ctx.sync_sym(COLLECT_SIZES_OFF + 8 * ctx.pe)
    for i in range(1, npes):
        peer = (ctx.pe + i) % npes
        yield from ctx.put_uint64(my_slot.addr, my_nbytes, peer)
    my_slot.write(int(my_nbytes).to_bytes(8, "little"))
    yield from ctx.quiet()
    yield from barrier_all(ctx)
    sizes = [
        int.from_bytes(ctx.sync_sym(COLLECT_SIZES_OFF + 8 * pe).read(8), "little")
        for pe in range(npes)
    ]
    offsets = [0] * npes
    for pe in range(1, npes):
        offsets[pe] = offsets[pe - 1] + sizes[pe - 1]
    total = offsets[-1] + sizes[-1]
    if total > dst.size:
        raise ShmemError(
            f"collect needs {total} B of destination, object has {dst.size}"
        )
    # --- data movement at the computed displacements ------------------
    my_off = offsets[ctx.pe]
    if my_nbytes:
        yield from ctx.cuda.memcpy(dst.local + my_off, src.local, my_nbytes)
        for i in range(1, npes):
            peer = (ctx.pe + i) % npes
            yield from ctx.putmem(dst.addr + my_off, src.local, my_nbytes, peer)
    yield from ctx.quiet()
    yield from barrier_all(ctx)
    return my_off


def fcollect(ctx, dst, src, nbytes: int) -> Generator:
    """All-gather: PE ``i``'s ``nbytes`` of ``src`` land at offset
    ``i * nbytes`` of every PE's ``dst``."""
    npes = ctx.npes
    if nbytes * npes > dst.size:
        raise ShmemError(
            f"fcollect needs {nbytes * npes} B of destination, object has {dst.size}"
        )
    yield from barrier_all(ctx)
    my_off = ctx.pe * nbytes
    # Local block first, then one put per peer.
    yield from ctx.cuda.memcpy(dst.local + my_off, src.local, nbytes)
    for i in range(1, npes):
        peer = (ctx.pe + i) % npes
        yield from ctx.putmem(dst.addr + my_off, src.local, nbytes, peer)
    yield from ctx.quiet()
    yield from barrier_all(ctx)
    return None
