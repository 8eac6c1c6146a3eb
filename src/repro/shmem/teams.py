"""Active sets: collectives over PE subsets.

OpenSHMEM 1.x expresses sub-groups as *active sets* —
``(PE_start, logPE_stride, PE_size)`` triples.  :class:`ActiveSet`
wraps the triple with membership/translation logic.  The team
collectives (barrier, broadcast, reduce) are the collectives of
:mod:`repro.shmem.collectives` run over the set, with their flags in a
caller-named ``pSync``-style slot range (each concurrent team needs its
own slots, exactly as the standard's ``pSync`` arrays demand).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Generator, List

from repro.errors import ShmemError
from repro.shmem import collectives as _coll

#: Team sync slots live above the global ones in the reserved area.
TEAM_SYNC_BASE = 1024
TEAM_SYNC_SLOTS = 32
#: Slots one team collective owns from its ``sync_slot`` on.
TEAM_SLOT_SPAN = 8


@dataclass(frozen=True)
class ActiveSet:
    """``(PE_start, logPE_stride, PE_size)`` with helpers."""

    start: int
    log_stride: int
    size: int

    @property
    def stride(self) -> int:
        return 1 << self.log_stride

    def validate(self, npes: int) -> "ActiveSet":
        if self.size < 1:
            raise ShmemError("active set must contain at least one PE")
        if self.log_stride < 0:
            raise ShmemError("logPE_stride must be >= 0")
        last = self.start + (self.size - 1) * self.stride
        if self.start < 0 or last >= npes:
            raise ShmemError(
                f"active set ({self.start}, 2^{self.log_stride}, {self.size}) "
                f"exceeds the job's {npes} PEs"
            )
        return self

    def members(self) -> List[int]:
        return [self.start + i * self.stride for i in range(self.size)]

    def contains(self, pe: int) -> bool:
        off = pe - self.start
        return 0 <= off < self.size * self.stride and off % self.stride == 0

    def rank_of(self, pe: int) -> int:
        """Translate a global PE to its rank within the set."""
        if not self.contains(pe):
            raise ShmemError(f"PE {pe} is not a member of active set {self}")
        return (pe - self.start) // self.stride

    def pe_of(self, rank: int) -> int:
        """Translate a set-local rank to the global PE."""
        if not 0 <= rank < self.size:
            raise ShmemError(f"rank {rank} outside active set of size {self.size}")
        return self.start + (rank << self.log_stride)


class TeamOps:
    """Mixin for :class:`~repro.shmem.context.ShmemContext`.  Each team
    collective is one gated runtime call, like the world collectives."""

    def _team_flags(self, team: ActiveSet, sync_slot: int) -> _coll.FlagArea:
        """Check that this PE is in ``team`` and map ``sync_slot`` to
        the slots it names: :data:`TEAM_SLOT_SPAN` slots from
        ``sync_slot`` on, clipped to the team area.  Barrier rounds take
        the range's slots in order and the broadcast flag its last one."""
        team.validate(self.npes)
        if not team.contains(self.pe):
            raise ShmemError(f"PE {self.pe} called a collective of a team it is not in")
        if not 0 <= sync_slot < TEAM_SYNC_SLOTS:
            raise ShmemError(f"team sync slot {sync_slot} out of range [0, {TEAM_SYNC_SLOTS})")
        end = min(sync_slot + TEAM_SLOT_SPAN, TEAM_SYNC_SLOTS)
        return _coll.FlagArea(
            barrier=TEAM_SYNC_BASE + 8 * sync_slot,
            rounds=end - 1 - sync_slot,
            bcast=TEAM_SYNC_BASE + 8 * (end - 1),
        )

    def team_barrier(self, team: ActiveSet, sync_slot: int = 0) -> Generator:
        """Dissemination barrier over the active set.

        ``sync_slot`` names a private flag range (a pSync analogue);
        concurrent collectives on disjoint teams must use ranges that do
        not overlap."""
        self._enter()
        try:
            yield from _coll.barrier_all(self, team, self._team_flags(team, sync_slot))
        finally:
            self._exit()

    def team_broadcast(self, team: ActiveSet, sym, nbytes: int, root_rank: int = 0,
                       sync_slot: int = 8) -> Generator:
        """Broadcast within the active set (root is a *rank*)."""
        self._enter()
        try:
            yield from _coll.broadcast(self, sym, nbytes, root_rank, team,
                                       self._team_flags(team, sync_slot))
        finally:
            self._exit()

    def team_reduce(self, team: ActiveSet, dst, src, count: int, dtype="float64",
                    op: str = "sum", sync_slot: int = 16) -> Generator:
        """All-reduce within the active set."""
        self._enter()
        try:
            yield from _coll.allreduce(self, dst, src, count, dtype, op, team,
                                       self._team_flags(team, sync_slot))
        finally:
            self._exit()
