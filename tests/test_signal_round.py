"""The barrier's signal round and the put plans under it.

A dissemination barrier is rounds of flag put + quiet + wait.  These
pins hold each round's schedule exactly: the end time and every
``SimStats`` field of a 50-barrier loop on the tier-2 path, on
intra-node copies mixed with RDMA, on the device-initiated design and
on the event path under each faulted check shape's health tracker.
The put plan (``Runtime._put_plan``) resolves each put signature once;
the staleness tests show that it caches neither a freed source nor a
health reroute.
"""

from __future__ import annotations

import gc
import types

import pytest

from repro.errors import CudaError
from repro.shmem import Domain, ShmemJob
from repro.shmem.teams import ActiveSet
from repro.simulator.core import SimStats
from repro.units import KiB, usec

BARRIERS = 50


def _barrier_loop(ctx):
    for _ in range(BARRIERS):
        yield from ctx.barrier_all()


def _stats(sim) -> dict:
    return {k: getattr(sim.stats, k) for k in type(sim.stats).__slots__}


def _faulted_job(design, msg):
    """The job, fault plan included, of check seed 10008 in one faulted
    CI sweep shape: the sweeps' first seed whose job spans two nodes, so
    the barrier's flags cross RDMA as well as shared memory."""
    from repro.check.runner import _fault_plan, _job_for, measure_start
    from repro.check.workload import generate_workload

    w = generate_workload(10008, ops=12, design=design, faults=True, msg=msg)
    plan = _fault_plan(w, measure_start(w))
    return _job_for(w.nodes, w.design, w.pes_per_node, True, fault_plan=plan)


#: Setup name -> job factory.
SETUPS = {
    "flow-4x1-enhanced-gdr": lambda: ShmemJob(nodes=4, pes_per_node=1, design="enhanced-gdr"),
    "host-pipeline-2x2": lambda: ShmemJob(nodes=2, pes_per_node=2, design="host-pipeline"),
    "device-initiated-2x2": lambda: ShmemJob(nodes=2, pes_per_node=2, design="device-initiated"),
    "faulted": lambda: _faulted_job(None, False),
    "faulted-device": lambda: _faulted_job("device-initiated", False),
    "faulted-msg": lambda: _faulted_job(None, True),
    "faulted-device-msg": lambda: _faulted_job("device-initiated", True),
}


def measure_barrier_loop(setup: str):
    job = SETUPS[setup]()
    res = job.run(_barrier_loop)
    counts = {p.value: n for p, n in job.runtime.protocol_counts.items()}
    return res.elapsed, _stats(job.sim), counts


#: Recorded on the tree before put plans and the shared signal path:
#: end time, the non-zero ``SimStats`` fields (every other field is 0)
#: and the protocols the flags took.
BARRIER_PINS = {
    "device-initiated-2x2": (
        0.00035114133969048393,
        dict(scheduled=3400, processed=3400, resumed_fast=8, analytic_flows=304,
             contended_windows=102),
        {"device-p2p": 102, "device-gdr": 306},
    ),
    "faulted": (
        0.000414543455717093,
        dict(scheduled=3261, processed=3261, resumed_fast=11, contended_windows=65,
             flap_windows=2, hca_stalls=1),
        {"shm-copy": 102, "rdma-host": 306},
    ),
    "faulted-device": (
        0.00039498470161360643,
        dict(scheduled=3682, processed=3682, resumed_fast=11, contended_windows=67,
             flap_windows=2, hca_stalls=1),
        {"device-p2p": 102, "device-gdr": 306},
    ),
    "faulted-device-msg": (
        0.010680803751758639,
        dict(scheduled=3722, processed=3722, resumed_fast=19, contended_windows=56, retries=9,
             flap_windows=10, hca_stalls=1, degraded_time=0.021053767484758484),
        {"device-p2p": 102, "device-gdr": 306},
    ),
    "faulted-msg": (
        0.010676203751758638,
        dict(scheduled=3297, processed=3297, resumed_fast=19, contended_windows=56, retries=6,
             flap_windows=10, hca_stalls=1, degraded_time=0.010527883742379241),
        {"shm-copy": 102, "rdma-host": 306},
    ),
    "flow-4x1-enhanced-gdr": (
        0.000416127559793658,
        dict(scheduled=3288, processed=3288, resumed_fast=12, analytic_flows=408),
        {"rdma-host": 408},
    ),
    "host-pipeline-2x2": (
        0.00036639133969048444,
        dict(scheduled=2978, processed=2978, resumed_fast=8, analytic_flows=306,
             contended_windows=102),
        {"shm-copy": 102, "rdma-host": 306},
    ),
}


def _every_field(nonzero: dict) -> dict:
    """A pinned stats dict with its zero fields filled in."""
    return {k: nonzero.get(k, 0) for k in SimStats.__slots__}


@pytest.mark.parametrize("setup", sorted(SETUPS))
def test_barrier_loop_pins(setup):
    elapsed, stats, counts = measure_barrier_loop(setup)
    want_elapsed, want_stats, want_counts = BARRIER_PINS[setup]
    assert elapsed == want_elapsed
    assert stats == _every_field(want_stats)
    assert counts == want_counts


# ------------------------------------------------------------ team gate
def _team_program(ctx):
    """Two disjoint teams, {0, 2} and {1, 3}: a barrier, a broadcast and
    a reduce each; returns the op ordinals each call took."""
    team = ActiveSet(ctx.pe % 2, 1, 2)
    sym = yield from ctx.shmalloc(64)
    src = yield from ctx.shmalloc(64)
    dst = yield from ctx.shmalloc(64)
    src.as_array("float64", 8)[:] = ctx.pe
    if team.rank_of(ctx.pe) == 0:
        sym.write(bytes([0x40 + ctx.pe]) * 64)
    steps = []
    for call in (
        lambda: ctx.team_barrier(team),
        lambda: ctx.team_broadcast(team, sym, 64),
        lambda: ctx.team_reduce(team, dst, src, 8),
        lambda: ctx.team_barrier(team),
    ):
        before = ctx.op_index
        yield from call()
        steps.append(ctx.op_index - before)
    return steps, sym.read(64), list(dst.as_array("float64", 8))


def measure_team_ops():
    job = ShmemJob(nodes=2, pes_per_node=2, design="enhanced-gdr")
    res = job.run(_team_program)
    return res, _stats(job.sim)


TEAM_PINS = (
    0.00023662964511142476,
    dict(scheduled=647, processed=647, resumed_fast=10, analytic_flows=66, contended_windows=15),
)


def test_team_collectives_are_one_gated_op_each():
    res, stats = measure_team_ops()
    for pe, (steps, data, total) in enumerate(res.results):
        assert steps == [1, 1, 1, 1]
        assert data == bytes([0x40 + pe % 2]) * 64
        assert total == [2.0 + 2 * (pe % 2)] * 8
    want_elapsed, want_stats = TEAM_PINS
    assert res.elapsed == want_elapsed
    assert stats == _every_field(want_stats)


# ------------------------------------------------------ plan staleness
def _freed_source_program(ctx):
    """PE 0 puts 64 B twice from one source; the second put follows a
    free of that source and must fail as an unplanned one would."""
    sym = yield from ctx.shmalloc(64, domain=Domain.GPU)
    yield from ctx.barrier_all()
    out = None
    if ctx.pe == 0:
        src = ctx.cuda.malloc(64)
        src.fill(0x5A, 64)
        yield from ctx.putmem(sym, src, 64, pe=1)
        yield from ctx.quiet()
        ctx.cuda.free(src)
        out = []
        for step in (lambda: ctx.putmem(sym, src, 64, pe=1), ctx.quiet):
            try:
                yield from step()
                out.append((ctx.now, None))
            except CudaError as exc:
                out.append((ctx.now, str(exc)))
    yield from ctx.barrier_all()
    return out


def measure_freed_source(fastpath: bool):
    job = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr")
    job.sim.fastpath = fastpath
    res = job.run(_freed_source_program)
    return res.results[0], res.elapsed, _stats(job.sim)


#: Both failures (the put, then quiet) at the second put's post instant.
FREED_SOURCE_FAILURE = (0.00019442371032497215, "use-after-free: allocation already released")
FREED_SOURCE_PINS = {
    True: (0.00019672496091118448,
           dict(scheduled=105, processed=105, resumed_fast=6, analytic_flows=12)),
    False: (0.00019672496091118448, dict(scheduled=117, processed=117, resumed_fast=6)),
}


@pytest.mark.parametrize("fastpath", [True, False], ids=["flow", "event"])
def test_put_from_freed_source_fails_as_before(fastpath):
    """The first put builds the signature's plan; the put after the
    free reads it and still fails at the post instant with the
    use-after-free, and quiet re-raises it."""
    failures, elapsed, stats = measure_freed_source(fastpath)
    assert failures == [FREED_SOURCE_FAILURE] * 2
    want_elapsed, want_stats = FREED_SOURCE_PINS[fastpath]
    assert elapsed == want_elapsed
    assert stats == _every_field(want_stats)


def _reaches(root, target) -> bool:
    """Whether ``target`` is reachable from ``root`` through object
    references (functions, types and modules are not followed)."""
    skip = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType)
    seen = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if obj is target:
            return True
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        stack.extend(gc.get_referents(obj))
    return False


def _freeing_program(ctx, freed):
    """PE 0 puts 1 KiB from a device and then a host source, freeing
    each after its quiet; the freed allocations go into ``freed``."""
    sym = yield from ctx.shmalloc(4 * KiB, domain=Domain.GPU)
    yield from ctx.barrier_all()
    if ctx.pe == 0:
        for malloc in (ctx.cuda.malloc, ctx.cuda.malloc_host):
            src = malloc(KiB)
            src.fill(0x11, KiB)
            yield from ctx.putmem(sym, src, KiB, pe=1)
            yield from ctx.quiet()
            ctx.cuda.free(src)
            freed.append(src.alloc)
    yield from ctx.barrier_all()
    if ctx.pe == 1:  # applies the delivered range, which read through
        assert sym.read(KiB) == b"\x11" * KiB


def measure_freed_allocs():
    """The tags left in ``MemorySpace._allocs`` after the run, and for
    each freed source whether the space or the job still reaches it."""
    freed = []
    job = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr")
    job.run(_freeing_program, freed)
    kept = [(alloc in job.space._allocs, _reaches(job, alloc)) for alloc in freed]
    return [a.tag for a in job.space._allocs], kept


#: The allocations left once both freed sources are gone.
ALLOC_TAGS = [
    "pe0.host-heap", "pe0.gpu-heap", "pe1.host-heap", "pe1.gpu-heap", "pe0.staging",
    "pe0.rx-staging", "pe1.staging", "pe1.rx-staging", "proxy0.staging", "proxy1.staging",
    "pe0.scratch", "pe1.scratch",
]


def test_put_plan_keeps_no_freed_source_alive():
    tags, kept = measure_freed_allocs()
    assert kept == [(False, False), (False, False)]
    assert tags == ALLOC_TAGS


def _reroute_program(ctx, cooldown):
    """PE 0 puts two 1 KiB signatures, ``a`` (first put before a GDR
    flap) and ``b`` (first put inside it), before the flap, inside the
    down window and after the cooldown; returns the protocols each put
    took."""
    sym = yield from ctx.shmalloc(4 * KiB, domain=Domain.GPU)
    yield from ctx.barrier_all()
    if ctx.pe != 0:
        return None
    small = ctx.cuda.malloc(KiB)
    small.fill(0x3C, KiB)
    seen = []
    for pause, offsets in ((0.0, (0,)), (usec(40), (0, 2 * KiB)), (2 * cooldown, (0, 2 * KiB))):
        yield from ctx.compute(pause)
        for off in offsets:
            before = dict(ctx.runtime.protocol_counts)
            yield from ctx.putmem(sym + off, small, KiB, pe=1)
            yield from ctx.quiet()
            after = ctx.runtime.protocol_counts
            seen.append(sorted(p.value for p in after if after[p] != before.get(p, 0)))
    return seen


def measure_reroute():
    from repro.faults import FaultPlan
    from repro.hardware.params import wilkes_params

    cooldown = usec(3000)
    params = dict(rc_timeout=usec(5), rc_retry_cnt=2, health_cooldown=cooldown)

    def job(plan=None):
        return ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr",
                        params=wilkes_params(**params), fault_plan=plan)

    start = job().run(_barrier_loop).start_time
    plan = FaultPlan(seed=5).flap_gdr(at=start + usec(15), down_for=usec(200), node=1)
    j = job(plan)
    res = j.run(_reroute_program, cooldown)
    return res.results[0], res.elapsed, _stats(j.sim)


REROUTE_PINS = (
    0.006274094791375065,
    dict(scheduled=158, processed=158, resumed_fast=9, failovers=4, flap_windows=1),
)


def test_put_plan_never_caches_a_health_reroute():
    """The plan holds the design's selection; the reroute off a downed
    GDR leg is taken per op, so both signatures go Direct GDR again
    once the link is back, whether their plan was built before the
    flap (``a``) or by a rerouted put inside it (``b``)."""
    seen, elapsed, stats = measure_reroute()
    # a; a, b inside the window; a, b after the cooldown.
    assert seen == [["direct-gdr"], ["proxy"], ["proxy"], ["direct-gdr"], ["direct-gdr"]]
    want_elapsed, want_stats = REROUTE_PINS
    assert elapsed == want_elapsed
    assert stats == _every_field(want_stats)
