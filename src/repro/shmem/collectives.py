"""Collective operations built on the one-sided layer.

OpenSHMEM collectives (barrier, broadcast, reductions, fcollect) are
implemented *on top of* put/get + wait_until + atomics, exactly as a
PGAS runtime layers them, so every collective automatically benefits
from (and exercises) whichever point-to-point design the job selected.

Synchronization flags live in the reserved region at the bottom of
each host heap (see :data:`repro.shmem.runtime.SYNC_RESERVED`):

====================  ===========================================
offset                use
====================  ===========================================
0    .. 255           dissemination-barrier round flags (32 x 8 B)
512  .. 519           broadcast arrival flag
576  .. 583           generic notify flag (apps / tests)
====================  ===========================================
"""

from __future__ import annotations

from typing import Generator

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


#: Above this size, broadcast switches from the binomial tree (optimal
#: for latency) to scatter + ring-allgather (optimal for bandwidth:
#: each PE sends ~2x the payload instead of the tree's log2(n) x).
BCAST_LARGE_THRESHOLD = 128 * 1024
#: Above this element count, allreduce switches from root-gather to
#: recursive doubling (log2(n) rounds instead of n-1 serial gets).
ALLREDUCE_RD_THRESHOLD = 32


def barrier_all(ctx) -> Generator:
    """Dissemination barrier over put + wait_until.

    Round ``r``: signal PE ``(me + 2^r) % npes`` and wait for the
    matching signal; ``log2(npes)`` rounds.  Flags carry a per-PE
    generation counter so slots are reusable without clearing."""
    npes = ctx.npes
    if npes == 1:
        return None
    ctx._barrier_gen += 1
    gen = ctx._barrier_gen
    dist, rnd = 1, 0
    while dist < npes:
        if rnd >= BARRIER_MAX_ROUNDS:
            raise ShmemError("barrier round overflow (npes too large for sync area)")
        partner = (ctx.pe + dist) % npes
        slot = ctx.sync_sym(BARRIER_SLOTS_OFF + 8 * rnd)
        yield from ctx.put_uint64(slot.addr, gen, partner)
        yield from ctx.quiet()
        yield from ctx.wait_until(slot, ">=", gen)
        dist <<= 1
        rnd += 1
    return None


def broadcast(ctx, sym, nbytes: int, root: int = 0) -> Generator:
    """Broadcast ``nbytes`` of the symmetric object ``sym`` from
    ``root`` to every PE.

    Hybrid algorithm, as production runtimes implement it: a binomial
    tree below :data:`BCAST_LARGE_THRESHOLD` (log2(n) one-message
    latency), scatter + ring-allgather above it (van de Geijn — every
    PE moves ~2x the payload regardless of n)."""
    npes = ctx.npes
    if npes == 1:
        return None
    if not 0 <= root < npes:
        raise ShmemError(f"broadcast root {root} out of range")
    if nbytes > sym.size:
        raise ShmemError(f"broadcast of {nbytes} B exceeds the {sym.size}-byte object")
    if nbytes > BCAST_LARGE_THRESHOLD and npes > 2 and nbytes >= npes:
        yield from _broadcast_scatter_allgather(ctx, sym, nbytes, root)
        return None
    yield from _broadcast_binomial(ctx, sym, nbytes, root)
    return None


def _broadcast_binomial(ctx, sym, nbytes: int, root: int) -> Generator:
    npes = ctx.npes
    ctx._bcast_gen += 1
    gen = ctx._bcast_gen
    vrank = (ctx.pe - root) % npes
    flag = ctx.sync_sym(BCAST_FLAG_OFF)
    if vrank != 0:
        yield from ctx.wait_until(flag, ">=", gen)
    mask = 1
    while mask < npes:
        if vrank < mask:
            peer_v = vrank + mask
            if peer_v < npes:
                peer = (root + peer_v) % npes
                yield from ctx.putmem(sym.addr, sym.local, nbytes, peer)
                yield from ctx.quiet()  # data before flag
                yield from ctx.put_uint64(flag.addr, gen, peer)
                yield from ctx.quiet()
        mask <<= 1
    return None


def _broadcast_scatter_allgather(ctx, sym, nbytes: int, root: int) -> Generator:
    """van de Geijn: root scatters n/p blocks, then a ring allgather
    reassembles them everywhere.  Block boundaries are computed
    identically on every PE from (nbytes, npes)."""
    npes = ctx.npes
    base, rem = divmod(nbytes, npes)
    bounds = []
    off = 0
    for pe in range(npes):
        size = base + (1 if pe < rem else 0)
        bounds.append((off, size))
        off += size
    # Phase 1 — scatter: root puts block v to virtual rank v.
    if ctx.pe == root:
        for v in range(npes):
            peer = (root + v) % npes
            boff, bsize = bounds[v]
            if peer != root and bsize:
                yield from ctx.putmem(sym.addr + boff, sym.local + boff, bsize, peer)
        yield from ctx.quiet()
    yield from barrier_all(ctx)
    # Phase 2 — ring allgather: in step s, vrank v forwards the block
    # it received in step s-1 (block (v - s) mod p) to its right
    # neighbour.  npes - 1 steps; one barrier per step keeps the ring
    # in lockstep (flags would be cheaper; clarity wins here).
    vrank = (ctx.pe - root) % npes
    right = (root + vrank + 1) % npes
    for step in range(npes - 1):
        blk = (vrank - step) % npes
        boff, bsize = bounds[blk]
        if bsize:
            yield from ctx.putmem(sym.addr + boff, sym.local + boff, bsize, right)
        yield from ctx.quiet()
        yield from barrier_all(ctx)
    return None


def allreduce(ctx, dst, src, count: int, dtype="float64", op: str = "sum") -> Generator:
    """All-reduce: every PE ends with ``op`` over all PEs' ``src`` in
    ``dst``.

    Small element counts use a root-gather (PE 0 fetches every
    contribution, reduces, broadcasts); larger ones use recursive
    doubling in the destination buffer — log2(n) exchange rounds, the
    textbook power-of-two algorithm, with a root-gather fallback for
    non-power-of-two jobs."""
    try:
        reducer = _REDUCE_OPS[op]
    except KeyError:
        raise ShmemError(f"unknown reduction {op!r}; use one of {sorted(_REDUCE_OPS)}") from None
    dt = np.dtype(dtype)
    nbytes = count * dt.itemsize
    if nbytes > src.size or nbytes > dst.size:
        raise ShmemError("reduction exceeds symmetric object size")
    npes = ctx.npes
    if count > ALLREDUCE_RD_THRESHOLD and npes > 2 and (npes & (npes - 1)) == 0:
        yield from _allreduce_recursive_doubling(ctx, dst, src, count, dt, reducer)
        return None
    yield from barrier_all(ctx)  # every source buffer is ready
    if ctx.pe == 0:
        from repro.shmem.constants import Domain

        acc = np.array(src.as_array(dt, count), copy=True)
        # Fetch remote contributions *same-domain* (D-D for GPU operands,
        # which every CUDA-aware design supports), then stage to the host
        # locally for the arithmetic — as a CUDA-aware collective would.
        on_gpu = src.domain is Domain.GPU
        tmp = ctx.cuda.malloc(nbytes) if on_gpu else ctx.cuda.malloc_host(nbytes)
        host_tmp = ctx.cuda.malloc_host(nbytes, tag="reduce.tmp") if on_gpu else tmp
        try:
            for pe in range(1, ctx.npes):
                yield from ctx.getmem(tmp, src.addr, nbytes, pe)
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
    yield from broadcast(ctx, dst, nbytes, root=0)
    yield from barrier_all(ctx)
    return None


def _allreduce_recursive_doubling(ctx, dst, src, count: int, dt, reducer) -> Generator:
    """Recursive doubling: in round r, exchange partials with the PE at
    xor-distance 2^r and combine.  The destination symmetric object is
    the exchange workspace: each round's incoming partial lands in its
    second half... simpler: partner puts its *current* accumulator into
    my dst, we both combine.  Rounds are barrier-separated so the puts
    of round r never race the reads of round r-1."""
    from repro.shmem.constants import Domain

    nbytes = count * dt.itemsize
    npes = ctx.npes
    # Accumulate on the host (kernels would do this on the GPU; the
    # staging cost is charged through the timed copies below).
    acc = np.array(src.as_array(dt, count), copy=True)
    on_gpu = dst.domain is Domain.GPU
    stage = ctx.cuda.malloc_host(nbytes, tag="rd.stage")
    try:
        mask = 1
        while mask < npes:
            partner = ctx.pe ^ mask
            # publish my current accumulator into my own dst copy...
            stage.as_array(dt, count)[:] = acc
            yield from ctx.cuda.memcpy(dst.local, stage, nbytes)
            yield from barrier_all(ctx)
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
            yield from barrier_all(ctx)
            mask <<= 1
        stage.as_array(dt, count)[:] = acc
        yield from ctx.cuda.memcpy(dst.local, stage, nbytes)
    finally:
        ctx.cuda.free(stage)
    yield from barrier_all(ctx)
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
    # The slot is a function of this PE alone — resolve it once, not
    # once per peer (sync_sym walks the heap layout each call).
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
