"""The closed-form commit that stands in for an event-by-event transfer.

**Tier 0** (:func:`plan_staged`, committed by ``Runtime._fast_staged``)
is the baseline's serial two-copy staging loop (``STAGED_HOST_COPY``).
When the simulation is *quiescent* at dispatch
(:meth:`~repro.simulator.Simulator.quiescent`: ready queue and event
heap both empty), the loop's completion instant is a plain
accumulation of each chunk's two copies, so the batch claims the idle
directions (:func:`claim`), schedules one absolute wake-up and releases
them there.  It performs the same float operations in the same order
as the event path; ``TransferSpec.duration()`` exists for exactly this
reason.  The golden-timing tests in ``tests/test_fastpath.py`` hold it
bit-identical to the event path.

Putmem's tier-2 commit (``Runtime._fast_rdma_put``) has no machine of
its own here: it posts the event path's
:class:`~repro.ib.verbs.RdmaWrite` without the issue wake-up.  Every
other chunked protocol (Pipeline-GDR-write puts, proxy gets, the host
pipeline) runs on the event path only, through
:func:`repro.shmem.staging.chunk_stream`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.hardware.links import LinkDirection, TransferSpec


def plan_staged(
    now: float,
    chunks: Sequence[int],
    first_specs: Dict[int, TransferSpec],
    second_specs: Dict[int, TransferSpec],
) -> float:
    """Completion instant of the strictly serial two-copy staging loop
    (``STAGED_HOST_COPY``): chunk copies never overlap, so the end time
    is a plain accumulation of both legs per chunk."""
    t = now
    for csize in chunks:
        s1 = first_specs[csize]
        t = t + s1.setup
        t = t + s1.duration()
        s2 = second_specs[csize]
        t = t + s2.setup
        t = t + s2.duration()
    return t


def merged_directions(specs: Sequence[TransferSpec]) -> List[LinkDirection]:
    """Union of the specs' hop directions (dedup by identity)."""
    out: List[LinkDirection] = []
    seen = set()
    for spec in specs:
        for d in spec.directions():
            if id(d) not in seen:
                seen.add(id(d))
                out.append(d)
    return out


def claimable(*direction_sets: Sequence[LinkDirection]) -> bool:
    """All directions idle, and no direction appears in two sets (the
    fast paths hold the sets for different windows, so overlap would
    mean double-acquiring a capacity-1 direction)."""
    seen = set()
    for dirs in direction_sets:
        for d in dirs:
            if not d.idle or id(d) in seen:
                return False
            seen.add(id(d))
    return True


def _held(_direction: LinkDirection) -> None:
    """Owner of a claimed slot: the batch needs no word of its grant."""


def claim(dirs: Sequence[LinkDirection]) -> List[LinkDirection]:
    """Synchronously acquire every (idle) direction; returns the holds."""
    for d in dirs:
        d.grant(_held)
    return list(dirs)


def release(holds: Sequence[LinkDirection]) -> None:
    for d in holds:
        d.release()
