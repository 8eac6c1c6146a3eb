"""Tests for deterministic fault injection, RC retry, and failover.

The headline scenario mirrors the paper's Fig 8 setting — inter-node
D-D puts under the enhanced-gdr design — with the target GPU's PCIe
link flapping: every payload must still arrive intact (degraded to the
host-staged path while the GDR window is down), the run must record
retries/failovers/flap windows, and two runs of the same seeded plan
must be bit-identical.
"""

import pytest

from repro.errors import CompletionError, IBError, LinkDown, RetryExceeded
from repro.faults import DEGRADED, FaultPlan, HealthTracker, HEALTHY, PROBING
from repro.hardware.links import AnalyticTransfer, Link, LinkDirection, TransferSpec
from repro.hardware.params import wilkes_params
from repro.ib.rc import RCTransport, retry
from repro.shmem import Domain, ShmemJob
from repro.simulator import Simulator
from repro.units import KiB, MiB, usec

from .helpers import short_pools

SIZES = [8 * KiB, 64 * KiB, 1 * MiB]  # Direct-GDR + two pipeline puts

#: Tight retry budget so a 150 us flap exhausts RC retries and forces
#: failover instead of being silently absorbed.
FAULT_PARAMS = dict(rc_timeout=usec(5), rc_retry_cnt=2, health_cooldown=usec(200))


def _dd_sweep(sizes):
    """PE 0 puts distinct patterns to PE 1 (device->device); PE 1
    verifies every payload after the closing barrier."""

    def main(ctx):
        total = sum(max(s, 64) for s in sizes)
        sym = yield from ctx.shmalloc(total, domain=Domain.GPU)
        yield from ctx.barrier_all()
        if ctx.pe == 0:
            off = 0
            for i, s in enumerate(sizes):
                src = ctx.cuda.malloc(s)
                src.fill(0x10 + i, s)
                yield from ctx.putmem(sym + off, src, s, pe=1)
                yield from ctx.quiet()
                off += max(s, 64)
        yield from ctx.barrier_all()
        ok = None
        if ctx.pe == 1:
            off, ok = 0, []
            for i, s in enumerate(sizes):
                ok.append((sym + off).read(s) == bytes([0x10 + i]) * s)
                off += max(s, 64)
        return ok

    return main


def _job(plan=None, **overrides):
    params = wilkes_params(**{**FAULT_PARAMS, **overrides})
    return ShmemJob(
        nodes=2, pes_per_node=1, design="enhanced-gdr", params=params, fault_plan=plan
    )


def _workload_start():
    """Virtual instant the program bodies begin (after init+barrier)."""
    res = _job().run(_dd_sweep([64]))
    return res.start_time


def _stats_dict(sim):
    return {k: getattr(sim.stats, k) for k in type(sim.stats).__slots__}


# ------------------------------------------------------- headline scenario
def _run_flapped_sweep():
    start = _workload_start()
    plan = FaultPlan(seed=1).flap_gdr(
        at=start + usec(60), down_for=usec(150), every=usec(250), count=4, node=1
    )
    job = _job(plan)
    res = job.run(_dd_sweep(SIZES))
    return job, res


def test_dd_sweep_completes_through_gdr_flaps():
    job, res = _run_flapped_sweep()
    s = job.sim.stats
    assert res.results[1] == [True, True, True]  # every payload intact
    assert s.retries > 0  # in-flight GDR writes were retransmitted
    assert s.failovers > 0  # and eventually re-routed host-staged
    assert s.flap_windows == 4
    assert s.degraded_time > 0.0
    # The flapped write leg ended the run marked unhealthy.
    states = {p["path"]: p["state"] for p in job.runtime.health.snapshot()}
    assert states["n1.gpu0.pcie:fwd"] in (DEGRADED, PROBING)
    # The RC layer attributed its retransmissions to that leg.
    assert job.verbs.rc.retries_by_path.get("n1.gpu0.pcie:fwd", 0) > 0


def test_flapped_sweep_is_seed_deterministic():
    job_a, res_a = _run_flapped_sweep()
    job_b, res_b = _run_flapped_sweep()
    assert res_a.elapsed == res_b.elapsed  # exact float equality
    assert _stats_dict(job_a.sim) == _stats_dict(job_b.sim)
    assert job_a.runtime.protocol_counts == job_b.runtime.protocol_counts
    assert job_a.faults.log == job_b.faults.log


def test_flap_during_selection_degrades_to_host_staged():
    """Puts *selected* while the GDR window is down go host-staged
    proactively (no doomed post), and still deliver."""
    start = _workload_start()
    plan = FaultPlan(seed=2).flap_gdr(
        at=start, down_for=usec(400), node=1
    )
    job = _job(plan)
    res = job.run(_dd_sweep(SIZES))
    assert res.results[1] == [True, True, True]
    counts = {p.value: c for p, c in job.runtime.protocol_counts.items()}
    assert counts.get("proxy", 0) > 0  # degraded deliveries
    assert job.sim.stats.failovers > 0


def test_path_returns_to_gdr_after_cooldown():
    """DEGRADED -> (cooldown) -> PROBING -> HEALTHY: after the window
    and the cooldown, small puts take Direct GDR again."""
    start = _workload_start()
    plan = FaultPlan(seed=3).flap_gdr(at=start + usec(20), down_for=usec(100), node=1)
    cooldown = usec(3000)  # long enough that the degraded big put ends inside it

    def main(ctx):
        sym = yield from ctx.shmalloc(2 * MiB, domain=Domain.GPU)
        yield from ctx.barrier_all()
        if ctx.pe == 0:
            big = ctx.cuda.malloc(1 * MiB)
            big.fill(0xAB, 1 * MiB)
            # Overlaps the flap: retries mark the write leg DEGRADED.
            yield from ctx.putmem(sym, big, 1 * MiB, pe=1)
            yield from ctx.quiet()
            small = ctx.cuda.malloc(1 * KiB)
            small.fill(0xCD, 1 * KiB)
            # Link is repaired but the cooldown has not elapsed: the
            # runtime must still avoid the degraded path.
            yield from ctx.putmem(sym + 1 * MiB, small, 1 * KiB, pe=1)
            yield from ctx.quiet()
            during = dict(ctx.runtime.protocol_counts)
            yield from ctx.compute(2 * cooldown)  # ride out the cooldown
            yield from ctx.putmem(sym + 1 * MiB, small, 1 * KiB, pe=1)
            yield from ctx.quiet()
            after = dict(ctx.runtime.protocol_counts)
            return (during, after)
        return None

    job = _job(plan, health_cooldown=cooldown)
    res = job.run(main)
    during, after = res.results[0]
    from repro.shmem.constants import Protocol

    # While degraded the small put could not use Direct GDR...
    assert during.get(Protocol.DIRECT_GDR, 0) == 0
    # ...after the cooldown the probe put went straight GDR again.
    assert after.get(Protocol.DIRECT_GDR, 0) == 1
    health = job.runtime.health.paths["n1.gpu0.pcie:fwd"]
    assert health.state == HEALTHY
    assert health.degraded_time > 0.0


# --------------------------------------------------------- RC unit tests
def _rc_env(**overrides):
    sim = Simulator()
    params = wilkes_params(**{
        "rc_timeout": 0.1, "rc_backoff": 2.0, "rc_retry_cnt": 3, **overrides
    })
    link = Link(sim, "l")
    rc = RCTransport(sim, params, HealthTracker(sim, params.health_fail_threshold, params.health_cooldown))
    return sim, link, rc


def test_rc_retry_recovers_from_transient_flap():
    sim, link, rc = _rc_env()

    def xfer(sim):
        spec = TransferSpec(100, label="payload").add(link.fwd, 0.0, 100.0)
        result = yield from rc.execute(spec)
        return (sim.now, result)

    def flapper(sim):
        yield sim.timeout(0.5)
        link.fwd.fail()
        yield sim.timeout(0.2)
        link.fwd.repair()

    p = sim.process(xfer(sim))
    sim.process(flapper(sim))
    sim.run()
    # Attempt 1 held [0, 1.0] and lost its payload to the flap; the
    # retry after the 0.1 s base timeout re-priced the full crossing.
    assert p.value == (2.1, 100)
    assert sim.stats.retries == 1
    assert rc.retries_by_path == {"l:fwd": 1}


def test_rc_exhaustion_raises_typed_retry_exc_err():
    sim, link, rc = _rc_env()
    link.fwd.fail()  # permanently down

    def xfer(sim):
        spec = TransferSpec(100, label="payload").add(link.fwd, 0.0, 100.0)
        try:
            yield from rc.execute(spec)
        except RetryExceeded as exc:
            return exc

    p = sim.process(xfer(sim))
    sim.run()
    exc = p.value
    assert isinstance(exc, CompletionError)
    assert exc.status == "RETRY_EXC_ERR"
    assert exc.attempts == 4  # retry_cnt=3 -> 4 attempts total
    assert exc.direction is link.fwd
    assert isinstance(exc.__cause__, LinkDown)
    assert sim.stats.retries == 4
    # Exponential backoff: failures at 0+, then delays 0.1, 0.2, 0.4.
    assert sim.now == pytest.approx(0.1 + 0.2 + 0.4)


#: ``style -> (delay, name, count_last)``: RC-style exponential backoff,
#: counting every failure, and the device replay's constant cooldown,
#: counting only the failures that are re-run.
_RETRY_STYLES = {
    "backoff": (lambda k: 0.1 * 2.0 ** (k - 1), "rc:backoff", True),
    "cooldown": (lambda k: 0.5, "device:replay-cooldown", False),
}


@pytest.mark.parametrize("failures", [2, 3])
@pytest.mark.parametrize("style", sorted(_RETRY_STYLES))
def test_retry_is_bounded(style, failures):
    """``retry`` with a budget of two: two failures are re-run and the
    third attempt returns; a third failure is re-raised as it is.  Each
    re-run waits ``delay(k)`` under the style's Timeout name."""
    delay, name, count_last = _RETRY_STYLES[style]
    sim = Simulator()
    waits, runs, seen = [], [], []
    timeout = sim.timeout

    def recording_timeout(d, value=None, name=""):
        waits.append((sim.now, d, name))
        return timeout(d, value, name)

    sim.timeout = recording_timeout

    def attempt():
        runs.append(sim.now)
        yield timeout(1.0)
        if len(runs) <= failures:
            raise LinkDown(f"attempt {len(runs)}")
        return "ok"

    def body(sim):
        try:
            return (yield from retry(
                sim, attempt, 2, delay, name, count_last=count_last,
                failed=lambda exc, k: seen.append((k, str(exc))),
            ))
        except LinkDown as exc:
            return str(exc)

    proc = sim.process(body(sim))
    sim.run()
    d1, d2 = delay(1), delay(2)
    assert waits == [(1.0, d1, name), (2.0 + d1, d2, name)]
    assert runs == [0.0, 1.0 + d1, 2.0 + d1 + d2]
    assert seen == [(k, f"attempt {k}") for k in range(1, failures + 1)]
    assert sim.now == 3.0 + d1 + d2
    if failures == 2:
        assert proc.value == "ok"
        assert sim.stats.retries == 2
    else:
        assert proc.value == "attempt 3"  # the exhausting failure itself
        assert sim.stats.retries == (3 if count_last else 2)


def test_retry_exceeded_surfaces_at_quiet():
    """With no viable fallback (flap the HCA port wholesale, downing
    host-staged paths too), exhaustion surfaces as the typed completion
    error at the quiet() completion point."""
    start = _workload_start()
    plan = FaultPlan(seed=4).flap(
        at=start, down_for=usec(5000), node=1, kind="hca-port", direction="both"
    )
    job = _job(plan)
    with pytest.raises(CompletionError) as ei:
        job.run(_dd_sweep([8 * KiB]))
    assert ei.value.status == "RETRY_EXC_ERR"


# ------------------------------------------------------------- HCA stalls
def test_hca_stall_delays_but_completes():
    start = _workload_start()
    baseline = _job().run(_dd_sweep(SIZES))
    plan = FaultPlan(seed=5).stall_hca(at=start, duration=usec(300), node=0, hca=0)
    job = _job(plan)
    res = job.run(_dd_sweep(SIZES))
    assert res.results[1] == [True, True, True]
    assert job.sim.stats.hca_stalls > 0
    assert job.hw.nodes[0].hcas[0].stalls_injected == 1
    assert res.elapsed > baseline.elapsed  # the queue-drain delay shows


# ------------------------------------------------ every fault kind bites
#: One plan per public FaultPlan builder, each timed to land on the
#: D-D sweep, and the SimStats counter that shows it landed.
_BUILDER_RUNS = {
    "flap": (lambda plan, start: plan.flap(
        at=start + usec(20), down_for=usec(30), node=0), "flap_windows"),
    "flap_gdr": (lambda plan, start: plan.flap_gdr(
        at=start + usec(60), down_for=usec(150), node=1), "flap_windows"),
    "random_gdr_flaps": (lambda plan, start: plan.random_gdr_flaps(
        2, window=usec(200), down_for=usec(100), node=1, start=start + usec(20)),
        "flap_windows"),
    "stall_hca": (lambda plan, start: plan.stall_hca(
        at=start, duration=usec(300), node=0), "hca_stalls"),
}


def test_every_fault_builder_is_exercised():
    """A fault kind lands only together with a run that feels it."""
    builders = {
        name for name, attr in vars(FaultPlan).items()
        if callable(attr) and not name.startswith("_") and name != "attach"
    }
    assert builders == set(_BUILDER_RUNS)


@pytest.mark.parametrize("builder", sorted(_BUILDER_RUNS))
def test_every_fault_kind_bites(builder):
    build, counter = _BUILDER_RUNS[builder]
    plan = build(FaultPlan(seed=9), _workload_start())
    job = _job(plan)
    res = job.run(_dd_sweep(SIZES))
    assert res.results[1] == [True, True, True]
    assert getattr(job.sim.stats, counter) > 0
    assert res.elapsed > _job().run(_dd_sweep(SIZES)).elapsed  # and was felt


# ----------------------------------------------------------- plan/health
def test_random_plan_is_seed_deterministic():
    mk = lambda seed: FaultPlan(seed).random_gdr_flaps(
        5, window=usec(1000), down_for=usec(50), node=1
    )
    assert mk(42).flaps == mk(42).flaps
    assert mk(42).flaps != mk(43).flaps


def test_plan_validation():
    from repro.errors import ConfigurationError

    with pytest.raises(ConfigurationError):
        FaultPlan().flap(at=0.0, down_for=0.0)
    with pytest.raises(ConfigurationError):
        FaultPlan().flap(at=0.0, down_for=1.0, every=0.5, count=2)
    with pytest.raises(ConfigurationError):
        FaultPlan().stall_hca(at=0.0, duration=0.0)


def test_health_state_machine():
    sim = Simulator()
    h = HealthTracker(sim, fail_threshold=2, cooldown=10.0)
    assert h.healthy("p", 0.0)  # unknown paths are healthy
    h.record_retry("p", 1.0)
    assert h.healthy("p", 1.0)  # one strike is not out
    h.record_retry("p", 2.0)
    assert h.paths["p"].state == DEGRADED
    assert not h.healthy("p", 5.0)  # inside the cooldown
    assert h.healthy("p", 12.5)  # cooldown elapsed: probe allowed
    assert h.paths["p"].state == PROBING
    h.record_success("p", 13.0)
    assert h.paths["p"].state == HEALTHY
    assert h.paths["p"].degraded_time == pytest.approx(11.0)  # 2.0 .. 13.0
    # A retry while probing degrades again immediately.
    h.record_retry("p", 14.0)
    h.healthy("p", 25.0)
    h.record_retry("p", 25.5)
    assert h.paths["p"].state == DEGRADED


def test_reliability_report_renders():
    from repro.reporting import reliability_report

    job, _res = _run_flapped_sweep()
    report = reliability_report(job)
    for needle in (
        "Reliability counters", "flap windows", "Path health",
        "n1.gpu0.pcie:fwd", "RC retransmissions", "Fault timeline",
        "down gdrP2P",
    ):
        assert needle in report
    # No plan attached -> nothing to report.
    assert reliability_report(_job()) == ""


# ------------------------------------------------- atomics under retry
def _counter_program(increments):
    """Every PE fetch-adds (pe+1) into a counter on PE 0, ``increments``
    times; PE 0 returns the final value after the closing barrier."""

    def main(ctx):
        sym = yield from ctx.shmalloc(8)
        yield from ctx.barrier_all()
        for _ in range(increments):
            yield from ctx.atomic_fetch_add(sym, ctx.pe + 1, pe=0)
        yield from ctx.quiet()
        yield from ctx.barrier_all()
        if ctx.pe == 0:
            return int.from_bytes(sym.read(8), "little")
        return None

    return main


def _atomic_job(plan=None):
    params = wilkes_params(**FAULT_PARAMS)
    return ShmemJob(
        nodes=2, pes_per_node=2, design="enhanced-gdr", params=params, fault_plan=plan
    )


def _atomic_fault_plan(seed, start):
    """HCA-port flaps short enough for the RC retry budget to absorb —
    the retry gauntlet for the atomic legs."""
    return FaultPlan(seed=seed).flap(
        at=start + usec(3), down_for=usec(8), node=0, kind="hca-port",
        every=usec(25), count=10,
    )


def test_atomics_apply_exactly_once_under_port_flaps():
    """Retries must never double-apply an atomic: each RC leg (request
    and response) retransmits independently, but the RMW executes once.
    The final counter is therefore *exact*, not approximate."""
    increments = 6
    npes = 4
    expected = increments * sum(pe + 1 for pe in range(npes))

    start = _atomic_job().run(_counter_program(0)).start_time
    job = _atomic_job(plan=_atomic_fault_plan(7, start))
    res = job.run(_counter_program(increments))
    assert res.results[0] == expected
    # The gauntlet must actually bite: retransmissions happened, yet
    # nothing was lost or applied twice.
    assert job.sim.stats.flap_windows > 0
    assert job.sim.stats.retries > 0


def test_atomics_under_faults_are_seed_deterministic():
    increments = 4
    start = _atomic_job().run(_counter_program(0)).start_time

    def one():
        job = _atomic_job(plan=_atomic_fault_plan(11, start))
        res = job.run(_counter_program(increments))
        return res.results[0], res.elapsed, _stats_dict(job.sim)

    a, b = one(), one()
    assert a == b
    assert a[0] == increments * sum(pe + 1 for pe in range(4))


# ------------------------------------------------- hold failures, pinned
# A flap that lands while a transfer holds its link loses the payload at
# the hold's end (``LinkDown(in_flight=True)``) and hands the direction
# to the transfer queued behind it at that same instant.  Every link
# hold runs through one machine, ``AnalyticTransfer``, so no second
# implementation is left to A/B against; these constants were recorded
# on the generator hold loop it replaced and pin it to that behaviour.


def _host_program(n, transport):
    """PE 0 posts two host-resident sends to PE 1 (tags 0 and 1), so the
    second message's transfer queues behind the first's on every link
    direction they share.  Each PE reports how its messages ended and
    PE 1 which receive buffers are still untouched."""

    def main(ctx):
        bufs = [ctx.cuda.malloc_host(n) for _ in range(2)]
        if ctx.pe == 0:
            for i, buf in enumerate(bufs):
                buf.fill(0x3C + i, n)
            evs = [ctx.isend(buf, n, 1, tag=i, transport=transport) for i, buf in enumerate(bufs)]
        else:
            evs = [ctx.irecv(buf, n, 0, tag=i) for i, buf in enumerate(bufs)]
        out = []
        for ev in evs:
            try:
                yield ev
                out.append(("ok", ctx.sim.now))
            except IBError as exc:
                out.append((type(exc).__name__, ctx.sim.now))
        return out, [buf.read(n) == bytes(n) for buf in bufs]

    return main


def _memcpy_program(n):
    """PE 0 issues two concurrent H2D ``cudaMemcpy``s over one GPU's PCIe
    link; the second queues behind the first."""

    def main(ctx):
        src = ctx.cuda.malloc_host(n)
        src.fill(0x5A, n)
        dsts = [ctx.cuda.malloc(n) for _ in range(2)]
        out = [None, None]

        def copy(i):
            try:
                yield from ctx.cuda.memcpy(dsts[i], src, n)
                out[i] = ("ok", ctx.sim.now)
            except LinkDown as exc:
                out[i] = (type(exc).__name__, ctx.sim.now)

        yield ctx.sim.all_of([ctx.sim.process(copy(i)) for i in range(2)])
        return out, [dst.read(n) == bytes(n) for dst in dsts]

    return main


#: case -> (job shape, param overrides, program, flap, watched direction)
#: where the flap is ``(at µs after the program starts, down µs, every
#: µs, count, flap kwargs)``.
_HOLD_CASES = {
    # A 1 µs GPU-PCIe flap lands mid-hold on the first H2D copy.
    "memcpy": (
        dict(nodes=1, pes_per_node=1), {}, _memcpy_program(64 * KiB),
        (10.0, 1.0, None, 1, dict(node=0, kind="gpu-pcie", direction="fwd")),
        "n0.gpu0.pcie:fwd",
    ),
    # Two flaps kill the first UD datagram mid-hold and then its resend;
    # with one resend round allowed the message fails undelivered.
    "ud": (
        dict(nodes=2, pes_per_node=1), dict(ud_resend_limit=1),
        _host_program(4 * KiB, "ud"),
        (1.5, 0.1, 52.02, 2, dict(node=1, kind="hca-port", direction="both")),
        "n0.hca0.pcie:fwd",
    ),
    # Two flaps kill the first rendezvous RDMA write mid-hold and then
    # its RC retransmission: retries exhaust after two wire holds.
    "rendezvous": (
        dict(nodes=2, pes_per_node=1), dict(rc_retry_cnt=1, rc_timeout=usec(2)),
        _host_program(64 * KiB, "rc"),
        (10.0, 0.5, 20.0, 2, dict(node=1, kind="hca-port", direction="both")),
        "n0.hca0.pcie:fwd",
    ),
}

_FAULT_COUNTERS = (
    "flap_windows", "retries", "failovers", "rc_retx_holds", "rc_aborted_wrs",
    "ud_packets", "ud_drops", "ud_resends",
)


def _link_directions(job):
    for node in job.hw.nodes:
        for link in (*node.pcie.gpu_links, *node.pcie.hca_links, node.pcie.host_mem,
                     *(h.port for h in node.hcas)):
            yield link.fwd
            yield link.rev


def _run_hold_case(case, monkeypatch):
    shape, overrides, program, (at, down, every, count, where), watched = _HOLD_CASES[case]

    def job(plan=None):
        return ShmemJob(
            design="enhanced-gdr", params=wilkes_params(**overrides),
            fault_plan=plan, **shape,
        )

    start = job().run(program).start_time
    plan = FaultPlan(seed=1).flap(
        at=start + usec(at), down_for=usec(down),
        every=None if every is None else usec(every), count=count, **where,
    )
    faulted = job(plan)

    # Every hold that died: (instant, spec label, direction, in_flight).
    # Recorded in the link-hold machine itself, which every hold runs,
    # RDMA writes' first attempts included.
    lost = []
    die = AnalyticTransfer._die

    def recording_die(hold, exc):
        lost.append((hold.sim.now, hold.spec.label, exc.direction.name, exc.in_flight))
        die(hold, exc)

    monkeypatch.setattr(AnalyticTransfer, "_die", recording_die)

    # Grant instants on the direction the second transfer queues on.  A
    # grant pops at the instant it is pushed (the ready queue drains
    # before time moves), so the push is where it is recorded, and a
    # slot taken inline (``LinkDirection.take``) at the instant it is
    # taken; the owner passes through untouched.
    grants = []
    direction = next(d for d in _link_directions(faulted) if d.name == watched)
    push_grant = Simulator._push_grant
    take = LinkDirection.take

    def recording_push_grant(sim, owner, d):
        if d is direction:
            grants.append(sim.now)
        push_grant(sim, owner, d)

    def recording_take(d):
        if d is direction:
            grants.append(d.sim.now)
        take(d)

    monkeypatch.setattr(Simulator, "_push_grant", recording_push_grant)
    monkeypatch.setattr(LinkDirection, "take", recording_take)

    res = faulted.run(program)
    return dict(
        results=res.results, elapsed=res.elapsed, lost=lost, grants=grants,
        links={
            d.name: (d.bytes_moved, d.transfers)
            for d in _link_directions(faulted) if d.transfers
        },
        faults={k: getattr(faulted.sim.stats, k) for k in _FAULT_COUNTERS},
    )


#: Per case: the outcome of each PE's two operations (exception class or
#: "ok", and the instant) plus which destinations are still zero; the
#: exact end time; every hold that raised (instant, label, direction,
#: in_flight); the grant instants on the watched direction (the last is
#: the queued transfer's, at the dying hold's end); per-direction
#: ``(bytes_moved, transfers)``; and the reliability counters.
_HOLD_PINS = {
    "memcpy": dict(
        results=[([("LinkDown", 0.00019832266666666666), ("ok", 0.00020924533333333331)],
                  [True, False])],
        elapsed=0.00020924533333333331,
        lost=[(0.00019832266666666666, "cudaMemcpyH2D", "n0.gpu0.pcie:fwd", True)],
        grants=[0.0001874, 0.00019832266666666666],
        links={"n0.gpu0.pcie:fwd": (65536, 1)},
        faults=dict(flap_windows=1, retries=0, failovers=0, rc_retx_holds=0,
                    rc_aborted_wrs=0, ud_packets=0, ud_drops=0, ud_resends=0),
    ),
    "ud": dict(
        results=[
            ([("ok", 0.00018370125058621232), ("ok", 0.00018370125058621232)], [False, False]),
            ([("IBError", 0.00023774185086759424), ("ok", 0.00023774185086759424)], [True, False]),
        ],
        elapsed=0.00023774185086759424,
        lost=[
            (0.00018572155072690328, "ud_segment", "n1.hca0.port:rev", True),
            (0.00023774185086759424, "ud_segment", "n1.hca0.port:rev", True),
        ],
        grants=[0.00018250000000000002, 0.00018438125058621233,
                0.00018572155072690328, 0.00023640155072690328],
        links={
            "n0.hca0.pcie:fwd": (4104, 2), "n0.hca0.pcie:rev": (8, 1),
            "n0.hca0.port:fwd": (4104, 2), "n0.hca0.port:rev": (8, 1),
            "n1.hca0.pcie:fwd": (8, 1), "n1.hca0.pcie:rev": (4104, 2),
            "n1.hostmem:fwd": (4096, 1),
            "n1.hca0.port:fwd": (8, 1), "n1.hca0.port:rev": (4104, 2),
        },
        faults=dict(flap_windows=2, retries=0, failovers=0, rc_retx_holds=0,
                    rc_aborted_wrs=0, ud_packets=3, ud_drops=2, ud_resends=1),
    ),
    "rendezvous": dict(
        results=[
            ([("RetryExceeded", 0.00021933565733937786), ("ok", 0.00021933565733937786)],
             [False, False]),
            ([("RetryExceeded", 0.00021933565733937786), ("ok", 0.00021933565733937786)],
             [True, False]),
        ],
        elapsed=0.00021933565733937786,
        lost=[
            (0.0001974460528372675, "rdma_write", "n1.hca0.port:rev", True),
            (0.00021933565733937786, "rdma_write", "n1.hca0.port:rev", True),
        ],
        grants=[0.00018250000000000002, 0.00018650125058621234,
                0.0001974460528372675, 0.0002083908550883227],
        links={
            "n0.hca0.pcie:fwd": (65544, 2), "n0.hca0.pcie:rev": (8, 1),
            "n0.hca0.port:fwd": (65544, 2), "n0.hca0.port:rev": (8, 1),
            "n1.hca0.pcie:fwd": (8, 1), "n1.hca0.pcie:rev": (65544, 2),
            "n1.hca0.port:fwd": (8, 1), "n1.hca0.port:rev": (65544, 2),
        },
        faults=dict(flap_windows=2, retries=2, failovers=0, rc_retx_holds=1,
                    rc_aborted_wrs=0, ud_packets=0, ud_drops=0, ud_resends=0),
    ),
}


@pytest.mark.parametrize("case", sorted(_HOLD_CASES))
def test_hold_failure_pins(case, monkeypatch):
    assert _run_hold_case(case, monkeypatch) == _HOLD_PINS[case]


# ------------------------------------------------------ recovery pins
#: ``case -> (design, op, nbytes, flap)``.  PE 0 puts to or gets from
#: PE 1, device to device; ``flap`` is ``(kind, at, down_for, every)``
#: in microseconds from the op's start, on node 1.  ``gdr`` flaps only
#: the GPU's GDR P2P path; ``hca`` takes the HCA port down, both
#: directions, ``every`` repeating it twelve times.
_RECOVERY_CASES = {
    # The device get dies after RC retries and replays in place, after
    # the cooldown, until it lands.
    "device-get-replay": ("device-initiated", "get", MiB, ("hca", 3, 400, None)),
    # The port stays down past every replay: the replay budget is spent.
    "device-get-exhaust": ("device-initiated", "get", MiB, ("hca", 3, 800, None)),
    # The Direct GDR get dies and falls one rung, to the proxy.
    "host-get-failover": ("enhanced-gdr", "get", 4 * KiB, ("gdr", 1.5, 1000, None)),
    # Each replay starts on a clear path and meets the next window.
    "device-put-exhaust": ("device-initiated", "put", MiB, ("hca", 5, 40, 300)),
}

#: Per case: PE 0's outcome (whether the data landed, or the exception
#: name), the exact end time, and every nonzero ``SimStats`` field.
_RECOVERY_PINS = {
    "device-get-replay": dict(
        results=[True, None], end=0.0009707780950078132,
        stats=dict(scheduled=118, processed=118, resumed_fast=5, retries=4,
                   flap_windows=1, degraded_time=0.0005205115463314818),
    ),
    "device-get-exhaust": dict(
        results=["RetryExceeded", None], end=0.0009378050023448492,
        stats=dict(scheduled=125, processed=125, resumed_fast=5, retries=11,
                   flap_windows=1, degraded_time=0.0007592769073370359),
    ),
    "host-get-failover": dict(
        results=[True, None], end=0.0011921050023448493,
        stats=dict(scheduled=115, processed=115, resumed_fast=8, retries=3,
                   failovers=1, flap_windows=1, degraded_time=0.00099395),
    ),
    "device-put-exhaust": dict(
        results=["RetryExceeded", None], end=0.003479805002344849,
        stats=dict(scheduled=176, processed=176, resumed_fast=16, retries=11,
                   flap_windows=12, rc_retx_holds=4, degraded_time=0.0030304884536685177),
    ),
}


def _recovery_program(op, nbytes, starts):
    """PE 0 moves one pattern device to device (a get pulls it from
    PE 1) and returns whether it landed or the exception it caught."""

    def main(ctx):
        sym = yield from ctx.shmalloc(nbytes, domain=Domain.GPU)
        buf = ctx.cuda.malloc(nbytes)
        src = sym if op == "get" else buf
        if ctx.pe == (1 if op == "get" else 0):
            src.fill(0x5A, nbytes)
        yield from ctx.barrier_all()
        if ctx.pe != 0:
            return None
        starts.append(ctx.sim.now)
        try:
            if op == "get":
                yield from ctx.getmem(buf, sym, nbytes, pe=1)
                return buf.read(nbytes) == bytes([0x5A]) * nbytes
            yield from ctx.putmem(sym, buf, nbytes, pe=1)
            yield from ctx.quiet()
        except (LinkDown, CompletionError) as exc:
            return type(exc).__name__
        return True

    return main


@pytest.mark.parametrize("case", sorted(_RECOVERY_CASES))
def test_recovery_pins(case):
    """Reactive recovery, replay in place and one rung down, keeps its
    outcome, end time and every counter."""
    design, op, nbytes, (kind, at, down, every) = _RECOVERY_CASES[case]

    def job(plan=None):
        return ShmemJob(
            nodes=2, pes_per_node=1, design=design, fault_plan=plan,
            params=wilkes_params(**FAULT_PARAMS),
        )

    starts = []
    job().run(_recovery_program(op, nbytes, starts))
    at = starts[0] + usec(at)
    if kind == "gdr":
        plan = FaultPlan(seed=1).flap_gdr(at=at, down_for=usec(down), node=1)
    else:
        plan = FaultPlan(seed=1).flap(
            at=at, down_for=usec(down), node=1, kind="hca-port", direction="both",
            every=None if every is None else usec(every), count=1 if every is None else 12,
        )
    faulted = job(plan)
    res = faulted.run(_recovery_program(op, nbytes, []))
    stats = {k: v for k, v in _stats_dict(faulted.sim).items() if v}
    assert dict(results=res.results, end=faulted.sim.now, stats=stats) == _RECOVERY_PINS[case]


# ------------------------------------------------- landing-slot recycling
def _landing_leak_program(wait):
    """PE 0 puts 1 MiB D-D to PE 1 while node 1's HCA port is down (the
    put dies at quiet), both PEs sit the flap out, then PE 0 puts a
    second 1 MiB pattern over the repaired port.  PE 0 returns the
    error it caught; PE 1 whether the second payload arrived."""

    def main(ctx):
        sym = yield from ctx.shmalloc(MiB, domain=Domain.GPU)
        yield from ctx.barrier_all()
        caught = None
        if ctx.pe == 0:
            src = ctx.cuda.malloc(MiB)
            src.fill(0x21, MiB)
            yield from ctx.putmem(sym, src, MiB, pe=1)
            try:
                yield from ctx.quiet()
            except RetryExceeded as exc:
                caught = type(exc).__name__
        yield from ctx.compute(wait)
        yield from ctx.barrier_all()
        if ctx.pe == 0:
            src.fill(0x42, MiB)
            yield from ctx.putmem(sym, src, MiB, pe=1)
            yield from ctx.quiet()
        yield from ctx.barrier_all()
        if ctx.pe == 0:
            return caught
        return sym.read(MiB) == bytes([0x42]) * MiB

    return main


@pytest.mark.parametrize("design", ["host-pipeline", "enhanced-gdr"])
def test_failed_landing_write_recycles_its_slot(design):
    """A landing write that dies after RC retries must hand back its
    landing slot as well as its source slot: the target's rx pool
    (host pipeline) or the target node's proxy pool (a pipeline chunk's
    proxy failover) is full again, and a later put to the same target
    lands instead of blocking on a leaked slot."""

    def job(plan=None):
        return ShmemJob(
            nodes=2, pes_per_node=1, design=design, fault_plan=plan,
            params=wilkes_params(rc_timeout=usec(5), rc_retry_cnt=2),
        )

    program = _landing_leak_program(usec(6000))
    start = job().run(program).start_time
    plan = FaultPlan(seed=7).flap(
        at=start + usec(10), down_for=usec(5000), node=1, kind="hca-port", direction="both"
    )
    faulted = job(plan)
    res = faulted.run(program)
    assert res.results == ["RetryExceeded", True]
    rt = faulted.runtime
    pools = [*rt.staging.values(), *rt.rx_staging.values(),
             *(proxy.staging for proxy in rt.proxies.values())]
    assert [pool.available for pool in pools] == [pool.depth for pool in pools]


# ---------------------------------------------------- stage-slot recycling
#: ``case -> (design, op, transport, flapped node)``: every staged op
#: whose stage copy crosses the flapped GPU's PCIe link.
_STAGE_LEAK_CASES = {
    "pipeline-gdr-write-put": ("enhanced-gdr", "put", None, 0),
    "host-pipeline-put": ("host-pipeline", "put", None, 0),
    "proxy-get": ("enhanced-gdr", "get", None, 1),
    "msg-ud-staged": ("enhanced-gdr", "send", "ud", 0),
    "msg-rc-staged": ("enhanced-gdr", "send", "rc", 0),
}


def _stage_leak_job(design, plan=None):
    return ShmemJob(
        nodes=2, pes_per_node=1, design=design, fault_plan=plan,
        params=wilkes_params(rc_timeout=usec(5), rc_retry_cnt=2),
    )


def _gpu_pcie_flap(at, node):
    """Node ``node``'s GPU PCIe link down in both directions for 3 ms."""
    return FaultPlan(seed=7).flap(
        at=at, down_for=usec(3000), node=node, kind="gpu-pcie", direction="both"
    )


def _stage_leak_program(op, transport, starts):
    """Two 1 MiB device-to-device transfers from PE 0 to PE 1 (a get
    pulls from PE 1 into PE 0), each followed by a 6 ms pause: the
    first meets the flap, the second runs over the repaired link.
    Every PE returns the exception name (or ``None``) of each of its
    transfers, and the receiving side whether the second one landed."""

    def main(ctx):
        sym = yield from ctx.shmalloc(MiB, domain=Domain.GPU)
        buf = ctx.cuda.malloc(MiB)
        src, dst = (sym, buf) if op == "get" else (buf, sym)
        outcomes = []
        for fill in (0x21, 0x42):
            src.fill(fill, MiB)
            dst.fill(0, MiB)
            yield from ctx.barrier_all()
            if ctx.pe == 0:
                starts.append(ctx.sim.now)
            caught = None
            try:
                if op == "put" and ctx.pe == 0:
                    yield from ctx.putmem(sym, buf, MiB, pe=1)
                    yield from ctx.quiet()
                elif op == "get" and ctx.pe == 0:
                    yield from ctx.getmem(buf, sym, MiB, pe=1)
                elif op == "send" and ctx.pe == 0:
                    yield from ctx.send(buf, MiB, 1, tag=9, transport=transport)
                elif op == "send":
                    yield from ctx.recv(sym, MiB, 0, tag=9)
                elif op == "mpi" and ctx.pe == 0:
                    yield from ctx.job.mpi.comm(ctx).send(buf, MiB, 1)
                elif op == "mpi":
                    yield from ctx.job.mpi.comm(ctx).recv(sym.local, MiB, 0)
            except LinkDown as exc:
                caught = type(exc).__name__
            outcomes.append(caught)
            yield from ctx.compute(usec(6000))
            yield from ctx.barrier_all()
        receiver = 0 if op == "get" else 1
        landed = dst.read(MiB) == bytes([0x42]) * MiB if ctx.pe == receiver else None
        return outcomes, landed

    return main


@pytest.mark.parametrize("delay_us", [5, 80])
@pytest.mark.parametrize("case", sorted(_STAGE_LEAK_CASES))
def test_failed_stage_copy_recycles_its_slot(case, delay_us, staging_pools):
    """A stage copy that dies (the source GPU's PCIe link flaps, both
    directions, 3 ms from ``delay_us`` into the op) must hand its
    staging slot back: the op fails with ``LinkDown``, every staging
    pool is full again, and a second op over the repaired link lands
    instead of finding one slot fewer (four such failures would leave a
    pool empty and the next staged op blocked forever)."""
    design, op, transport, node = _STAGE_LEAK_CASES[case]
    starts = []
    _stage_leak_job(design).run(_stage_leak_program(op, transport, starts))
    plan = _gpu_pcie_flap(starts[0] + usec(delay_us), node)
    del staging_pools[:]
    res = _stage_leak_job(design, plan).run(_stage_leak_program(op, transport, []))
    (out0, landed0), (out1, landed1) = res.results
    assert out0 == ["LinkDown", None]
    assert out1 == (["LinkDown", None] if op == "send" else [None, None])
    assert (landed1 if op != "get" else landed0) is True
    assert staging_pools
    assert short_pools(staging_pools) == []


def _run_mpi_flap(node, staging_pools):
    """The stage-leak program over the MPI baseline's GPU pipeline
    (``comm.send``/``comm.recv``), its first send meeting a flap on
    ``node``: the second send must land and both MPI pools must be full
    again.  Returns each PE's outcomes."""
    starts = []
    _stage_leak_job("enhanced-gdr").run(_stage_leak_program("mpi", None, starts))
    plan = _gpu_pcie_flap(starts[0] + usec(5), node)
    del staging_pools[:]
    res = _stage_leak_job("enhanced-gdr", plan).run(_stage_leak_program("mpi", None, []))
    (out0, _), (out1, landed1) = res.results
    assert landed1 is True
    mpi_pools = [pool for pool in staging_pools if pool.name.startswith("mpi.")]
    assert len(mpi_pools) == 2
    assert short_pools(mpi_pools) == []
    return out0, out1


def test_failed_mpi_stage_copy_recycles_its_slot(staging_pools):
    """A D2H stage copy of the MPI GPU pipeline that dies (the sender's
    GPU link flaps) fails the send and the recv with ``LinkDown``
    instead of aborting the run, and hands its stage slot back."""
    assert _run_mpi_flap(0, staging_pools) == (["LinkDown", None], ["LinkDown", None])


def test_failed_mpi_landing_copy_recycles_its_slot(staging_pools):
    """A landing H2D copy that dies (the receiver's GPU link flaps)
    fails only the recv: the sender's buffer was drained by then.  Each
    chunk hands its landing slot back."""
    assert _run_mpi_flap(1, staging_pools) == ([None, None], ["LinkDown", None])
