"""Tests for distributed locks and active-set (team) collectives."""

import numpy as np
import pytest

from repro.errors import ShmemError
from repro.shmem import Domain, ShmemJob
from repro.shmem.teams import ActiveSet


def run(nodes, program, **kw):
    return ShmemJob(nodes=nodes, **kw).run(program)


# -------------------------------------------------------------------- locks
def test_lock_mutual_exclusion():
    """Non-atomic read-modify-write under the lock never loses updates."""

    def main(ctx):
        lock = yield from ctx.shmalloc(8)
        shared = yield from ctx.shmalloc(8)
        yield from ctx.barrier_all()
        for _ in range(3):
            yield from ctx.set_lock(lock)
            tmp = ctx.cuda.malloc_host(8)
            yield from ctx.getmem(tmp, shared, 8, pe=0)
            v = int.from_bytes(tmp.read(8), "little") + 1
            tmp.write(v.to_bytes(8, "little"))
            yield from ctx.putmem(shared, tmp, 8, pe=0)
            yield from ctx.quiet()
            yield from ctx.clear_lock(lock)
        yield from ctx.barrier_all()
        if ctx.my_pe() == 0:
            return int.from_bytes(shared.read(8), "little")
        return None

    res = run(2, main)
    assert res.results[0] == 3 * len(res.results)


def test_test_lock_nonblocking():
    def main(ctx):
        lock = yield from ctx.shmalloc(8)
        yield from ctx.barrier_all()
        if ctx.my_pe() == 0:
            got = yield from ctx.test_lock(lock)
            assert got is True
            yield from ctx.barrier_all()  # PE 1 probes while we hold it
            yield from ctx.barrier_all()
            yield from ctx.clear_lock(lock)
            return "held"
        else:
            yield from ctx.barrier_all()
            got = yield from ctx.test_lock(lock)
            yield from ctx.barrier_all()
            return got

    res = run(1, main)
    assert res.results[0] == "held"
    assert res.results[1] is False  # probe failed while held


def test_clear_unheld_lock_raises():
    def main(ctx):
        lock = yield from ctx.shmalloc(8)
        yield from ctx.clear_lock(lock)

    with pytest.raises(ShmemError, match="does not hold"):
        run(1, main, pes_per_node=1)


def test_reacquire_held_lock_raises():
    def main(ctx):
        lock = yield from ctx.shmalloc(8)
        yield from ctx.set_lock(lock)
        yield from ctx.set_lock(lock)

    with pytest.raises(ShmemError, match="re-acquire"):
        run(1, main, pes_per_node=1)


def test_lock_contention_costs_time():
    """Contended acquisition spins on real HCA atomics: it must cost
    more virtual time than an uncontended one."""

    def main(ctx):
        lock = yield from ctx.shmalloc(8)
        yield from ctx.barrier_all()
        t0 = ctx.now
        yield from ctx.set_lock(lock)
        yield from ctx.compute(50e-6)  # hold it a while
        yield from ctx.clear_lock(lock)
        dt = ctx.now - t0
        yield from ctx.barrier_all()
        return dt

    res = run(2, main)
    times = sorted(res.results)
    assert times[-1] > times[0] + 40e-6  # someone waited behind the holder


# -------------------------------------------------------------- active sets
def test_active_set_membership_and_translation():
    s = ActiveSet(start=2, log_stride=1, size=3)  # PEs 2, 4, 6
    assert s.members() == [2, 4, 6]
    assert s.contains(4) and not s.contains(3) and not s.contains(8)
    assert s.rank_of(6) == 2
    assert s.pe_of(1) == 4
    with pytest.raises(ShmemError):
        s.rank_of(3)
    with pytest.raises(ShmemError):
        s.pe_of(3)


def test_active_set_validation():
    with pytest.raises(ShmemError):
        ActiveSet(0, 0, 0).validate(4)
    with pytest.raises(ShmemError):
        ActiveSet(0, -1, 2).validate(4)
    with pytest.raises(ShmemError):
        ActiveSet(2, 1, 3).validate(4)  # last member would be PE 6
    ActiveSet(0, 1, 2).validate(4)


def test_team_barrier_only_syncs_members():
    """Even-PE team barriers; odd PEs keep computing undisturbed."""

    def main(ctx):
        team = ActiveSet(start=0, log_stride=1, size=ctx.npes // 2)
        yield from ctx.barrier_all()
        if ctx.my_pe() % 2 == 0:
            # stagger arrivals within the team
            yield from ctx.compute(1e-5 * (ctx.my_pe() + 1))
            arrived = ctx.now
            yield from ctx.team_barrier(team)
            return ("member", arrived, ctx.now)
        yield from ctx.compute(1e-6)
        return ("outsider", ctx.now, ctx.now)

    res = run(2, main)  # 4 PEs, team = {0, 2}
    members = [r for r in res.results if r[0] == "member"]
    last_arrival = max(r[1] for r in members)
    assert all(r[2] >= last_arrival for r in members)
    outsiders = [r for r in res.results if r[0] == "outsider"]
    assert all(r[2] < last_arrival for r in outsiders)  # not blocked


def test_team_barrier_non_member_raises():
    def main(ctx):
        team = ActiveSet(start=0, log_stride=0, size=1)
        yield from ctx.barrier_all()
        if ctx.my_pe() == 1:
            yield from ctx.team_barrier(team)
        yield from ctx.barrier_all()

    with pytest.raises(ShmemError, match="not in"):
        run(1, main)


def test_team_broadcast_subset():
    def main(ctx):
        sym = yield from ctx.shmalloc(64, domain=Domain.GPU)
        team = ActiveSet(start=1, log_stride=0, size=2)  # PEs 1 and 2
        yield from ctx.barrier_all()
        if ctx.my_pe() == 1:
            sym.fill(0xBB, 64)
        if team.contains(ctx.my_pe()):
            yield from ctx.team_broadcast(team, sym, 64, root_rank=0)
        yield from ctx.barrier_all()
        return sym.read(64) == bytes([0xBB]) * 64

    res = run(2, main)  # 4 PEs
    assert res.results[1] and res.results[2]
    assert not res.results[0] and not res.results[3]  # untouched outside


def test_team_reduce_strided_members():
    def main(ctx):
        src = yield from ctx.shmalloc(32, domain=Domain.HOST)
        dst = yield from ctx.shmalloc(32, domain=Domain.HOST)
        team = ActiveSet(start=0, log_stride=1, size=2)  # PEs 0 and 2
        src.as_array(np.float64)[:] = float(ctx.my_pe() + 1)
        yield from ctx.barrier_all()
        if team.contains(ctx.my_pe()):
            yield from ctx.team_reduce(team, dst, src, count=4, op="sum")
        yield from ctx.barrier_all()
        return dst.as_array(np.float64).tolist()

    res = run(2, main)  # 4 PEs
    assert res.results[0] == [4.0] * 4  # 1 + 3 (PEs 0 and 2)
    assert res.results[2] == [4.0] * 4
    assert res.results[1] == [0.0] * 4


def test_concurrent_team_barriers_disjoint_slots():
    """Two disjoint teams barrier simultaneously with distinct pSync
    slots: no interference."""

    def main(ctx):
        evens = ActiveSet(start=0, log_stride=1, size=ctx.npes // 2)
        odds = ActiveSet(start=1, log_stride=1, size=ctx.npes // 2)
        yield from ctx.barrier_all()
        for _ in range(3):
            if ctx.my_pe() % 2 == 0:
                yield from ctx.team_barrier(evens, sync_slot=0)
            else:
                yield from ctx.team_barrier(odds, sync_slot=8)
        yield from ctx.barrier_all()
        return True

    res = run(2, main)
    assert all(res.results)


# ------------------------------------------- sub-teams take the world's choice
STRIDED = ActiveSet(start=1, log_stride=1, size=4)  # PEs 1, 3, 5, 7 of 8


def _spy(monkeypatch, name):
    """Count the calls of one collectives algorithm body."""
    from repro.shmem import collectives

    calls = []
    real = getattr(collectives, name)

    def counted(*args, **kwargs):
        calls.append(args[0].pe)
        return real(*args, **kwargs)

    monkeypatch.setattr(collectives, name, counted)
    return calls


def test_strided_team_large_broadcast_scatter_allgather(monkeypatch):
    calls = _spy(monkeypatch, "_broadcast_scatter_allgather")
    nbytes = 300 * 1024
    payload = np.random.default_rng(7).integers(0, 256, nbytes, dtype=np.uint8).tobytes()

    def main(ctx):
        sym = yield from ctx.shmalloc(nbytes, domain=Domain.GPU)
        sym.fill(ctx.my_pe(), nbytes)
        if ctx.my_pe() == STRIDED.pe_of(1):
            sym.write(payload)
        yield from ctx.barrier_all()
        if STRIDED.contains(ctx.my_pe()):
            yield from ctx.team_broadcast(STRIDED, sym, nbytes, root_rank=1)
        yield from ctx.barrier_all()
        return sym.read(nbytes)

    res = run(4, main)  # 8 PEs
    for pe, got in enumerate(res.results):
        assert got == (payload if STRIDED.contains(pe) else bytes([pe]) * nbytes)
    assert sorted(calls) == STRIDED.members()


def test_strided_team_reduce_recursive_doubling(monkeypatch):
    calls = _spy(monkeypatch, "_allreduce_recursive_doubling")
    count = 64

    def main(ctx):
        src = yield from ctx.shmalloc(8 * count, domain=Domain.GPU)
        dst = yield from ctx.shmalloc(8 * count, domain=Domain.GPU)
        src.as_array(np.float64)[:] = np.arange(count) * (ctx.my_pe() + 1)
        dst.as_array(np.float64)[:] = -1.0
        yield from ctx.barrier_all()
        if STRIDED.contains(ctx.my_pe()):
            yield from ctx.team_reduce(STRIDED, dst, src, count=count, op="sum")
        yield from ctx.barrier_all()
        return dst.as_array(np.float64).tolist()

    res = run(4, main)  # 8 PEs
    weight = sum(pe + 1 for pe in STRIDED.members())  # 2 + 4 + 6 + 8
    for pe, got in enumerate(res.results):
        assert got == ((np.arange(count) * weight).tolist() if STRIDED.contains(pe)
                       else [-1.0] * count)
    assert sorted(calls) == STRIDED.members()


@pytest.mark.parametrize("sync_slot", [30, 32])
def test_team_flags_outside_slot_range_raise(sync_slot):
    """A 4-member barrier needs two round slots: slot 30's range holds
    one (its last slot is the broadcast flag), slot 32 is past the team
    area.  Either raises before any flag is written."""

    def main(ctx):
        if STRIDED.contains(ctx.my_pe()):
            yield from ctx.team_barrier(STRIDED, sync_slot=sync_slot)
        yield from ctx.compute(0)

    with pytest.raises(ShmemError, match="flag words|out of range"):
        run(4, main)


def test_team_collectives_write_only_their_slot_ranges():
    """Each default team collective's flags land inside the eight slots
    its ``sync_slot`` names, whichever algorithm the size picks."""
    from repro.shmem.teams import TEAM_SYNC_BASE, TEAM_SYNC_SLOTS

    def written(ctx):
        return {s for s in range(TEAM_SYNC_SLOTS)
                if ctx.sync_sym(TEAM_SYNC_BASE + 8 * s).read(8) != bytes(8)}

    def main(ctx):
        big = yield from ctx.shmalloc(200 * 1024, domain=Domain.GPU)
        src = yield from ctx.shmalloc(8 * 64)
        dst = yield from ctx.shmalloc(8 * 64)
        member = STRIDED.contains(ctx.my_pe())
        seen = []
        for call in (
            lambda: ctx.team_barrier(STRIDED),
            lambda: ctx.team_broadcast(STRIDED, big, 200 * 1024),
            lambda: ctx.team_reduce(STRIDED, dst, src, count=64),
            lambda: ctx.team_reduce(STRIDED, dst, src, count=4),
        ):
            if member:
                yield from call()
            yield from ctx.barrier_all()
            seen.append(written(ctx))
        return seen

    res = run(4, main)  # 8 PEs
    for pe, seen in enumerate(res.results):
        if not STRIDED.contains(pe):
            assert seen == [set()] * 4
            continue
        barrier, bcast, reduce_rd, reduce_gather = seen
        assert barrier <= set(range(0, 8)) and barrier
        assert bcast - barrier <= set(range(8, 16)) and bcast - barrier
        assert reduce_rd - bcast <= set(range(16, 24)) and reduce_rd - bcast
        assert reduce_gather - bcast <= set(range(16, 24))
