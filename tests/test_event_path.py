"""The per-op event path: one issue wake-up and caller-posted writes.

A put or get pays its dispatch and lookup delays as one wake-up at
``(now + dispatch) + lookup``, with its ``route:`` instant stamped at
``now + dispatch``; an RDMA put posts its write from the caller and
runs it as callbacks (``repro.ib.verbs.RdmaWrite``), so no process is
spawned unless an attempt fails.  These tests hold the instants that
path must keep: the traced route instant, traced-vs-untraced engine
counters on faulted check seeds, a route steered by a flap that opens
between issue and route selection, and the recovery of a write whose
first attempt fails.
"""

import pytest

from repro.check.runner import measure_start, run_workload
from repro.check.workload import generate_workload
from repro.errors import CompletionError, LinkDown
from repro.faults import FaultPlan
from repro.hardware.params import wilkes_params
from repro.obs.spans import SpanTracer
from repro.shmem import Domain, ShmemJob
from repro.shmem.constants import Protocol
from repro.units import KiB, usec

#: Fast RC give-up and a short health cooldown (as ``test_faults.py``).
FAULT_PARAMS = dict(rc_timeout=usec(5), rc_retry_cnt=2, health_cooldown=usec(200))


def _put_program(nbytes, domain, starts, puts=1):
    """PE 0 puts ``puts`` patterns of ``nbytes`` to PE 1 (device memory
    on both sides for the GPU domain), then quiets; returns whether the
    last one landed, or the exception its quiet raised."""

    def main(ctx):
        sym = yield from ctx.shmalloc(nbytes, domain=domain)
        buf = ctx.cuda.malloc(nbytes) if domain is Domain.GPU else ctx.cuda.malloc_host(nbytes)
        yield from ctx.barrier_all()
        if ctx.pe == 0:
            try:
                for k in range(puts):
                    buf.fill(0x40 + k, nbytes)
                    starts.append(ctx.sim.now)
                    yield from ctx.putmem(sym, buf, nbytes, pe=1)
                yield from ctx.quiet()
            except (LinkDown, CompletionError) as exc:
                return type(exc).__name__
        yield from ctx.barrier_all()
        if ctx.pe == 1:
            return sym.read(nbytes) == bytes([0x40 + puts - 1]) * nbytes
        return True

    return main


def _traced_put_run(design, puts):
    job = ShmemJob(nodes=2, pes_per_node=1, design=design)
    tracer = SpanTracer().attach(job.sim)
    starts = []
    res = job.run(_put_program(8, Domain.GPU, starts, puts=puts))
    routes = [i for i in tracer.instants if i.name.startswith("route:") and i.track == "pe0"]
    return job, res, starts, routes


def _measured(routes, starts):
    """The route instants of the measured puts: the first one stamped
    after each put's issue instant."""
    times = sorted(i.time for i in routes if i.args["op"] == "put")
    return [next(t for t in times if t > start) for start in starts]


def test_route_instant_lands_at_issue_plus_dispatch():
    job, res, starts, routes = _traced_put_run("enhanced-gdr", puts=2)
    assert res.results == [True, True]
    dispatch = job.params.shmem_dispatch_overhead
    assert _measured(routes, starts) == [t + dispatch for t in starts]


def test_device_route_instant_lands_after_the_warm_up():
    job, res, starts, routes = _traced_put_run("device-initiated", puts=2)
    assert res.results == [True, True]
    issue = job.params.device_issue_overhead
    assert _measured(routes, starts) == [t + issue for t in starts]
    # PE 0's first op launched the persistent kernel inside its dispatch.
    (warm_up,) = [s for s in job.sim.tracer.spans
                  if s.name == "device:kernel_warmup" and s.track == "pe0"]
    assert min(i.time for i in routes) == warm_up.end + issue


def test_traced_and_untraced_put_runs_schedule_alike():
    stats = []
    for trace in (False, True):
        job = ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr")
        job.sim.fastpath = False
        if trace:
            SpanTracer().attach(job.sim)
        job.run(_put_program(64 * KiB, Domain.GPU, [], puts=3))
        stats.append(job.sim.stats.as_dict())
    assert stats[0] == stats[1]


@pytest.mark.parametrize(
    "design,msg",
    [(None, False), ("device-initiated", False), (None, True), ("device-initiated", True)],
)
def test_faulted_check_seed_counts_equal_traced_and_untraced(design, msg):
    """One faulted seed of each faulted CI sweep shape: every engine
    counter, ``processed`` included, is the same with a tracer."""
    w = generate_workload(10000, ops=12, design=design, faults=True, msg=msg)
    start = measure_start(w)
    plain = run_workload(w, trace=False, start=start)
    traced = run_workload(w, trace=True, start=start)
    assert plain.stats == traced.stats
    assert plain.elapsed == traced.elapsed


def _faulted_job(plan=None):
    return ShmemJob(
        nodes=2, pes_per_node=1, design="enhanced-gdr", fault_plan=plan,
        params=wilkes_params(**FAULT_PARAMS),
    )


def test_flap_inside_the_issue_window_still_reroutes_the_put():
    """The GDR leg into the target GPU goes down after the put issues
    but before its route is chosen (``now + dispatch``): the put is
    steered off Direct GDR before it posts, so RC never retries it."""
    nbytes = 4 * KiB
    starts = []
    _faulted_job().run(_put_program(nbytes, Domain.GPU, starts))
    dispatch = wilkes_params(**FAULT_PARAMS).shmem_dispatch_overhead
    plan = FaultPlan(seed=1).flap_gdr(at=starts[0] + dispatch / 2, down_for=usec(50), node=1)
    job = _faulted_job(plan)
    res = job.run(_put_program(nbytes, Domain.GPU, []))
    assert res.results == [True, True]
    counts = job.runtime.protocol_counts
    assert Protocol.DIRECT_GDR not in counts
    assert job.sim.stats.failovers >= 1
    assert job.sim.stats.retries == 0


#: A 64 KiB host-to-host put whose first RC attempt is lost in flight
#: on the target's HCA port and whose first retransmission lands: the
#: outcome, end time, retries and retransmitted holds of a write that
#: runs as a process of its own, which the caller-posted write keeps.
_FIRST_ATTEMPT_LOST = dict(
    results=[True, True], end=0.00022189585743317205, retries=1, rc_retx_holds=1,
)


def test_write_whose_first_attempt_fails_recovers_unchanged():
    nbytes = 64 * KiB
    starts = []
    _faulted_job().run(_put_program(nbytes, Domain.HOST, starts))
    plan = FaultPlan(seed=1).flap(
        at=starts[0] + usec(3), down_for=usec(4), node=1, kind="hca-port", direction="both",
    )
    job = _faulted_job(plan)
    res = job.run(_put_program(nbytes, Domain.HOST, []))
    stats = job.sim.stats
    got = dict(results=res.results, end=job.sim.now, retries=stats.retries,
               rc_retx_holds=stats.rc_retx_holds)
    assert got == _FIRST_ATTEMPT_LOST
