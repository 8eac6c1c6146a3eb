"""Equivalence tests for the analytic fast paths.

The closed-form fast paths in :mod:`repro.shmem.fastpath` (the tier-0
staged-host batch and putmem's tier-2 commit) may change
*wall-clock* cost only; every simulated timestamp, byte, and counter
must be identical to the event-accurate path.  Each scenario here runs
twice — ``sim.fastpath`` on and off — and demands exact float equality
of elapsed virtual time, program results, per-direction link counters,
and HCA message counters.  A golden-constant test additionally pins the
Fig 8 inter-node D-D timings so *both* paths are held to the values the
archived benchmark results were produced with.
"""

import pytest

import repro.bench.latency as lat
from repro.errors import ConfigurationError
from repro.hardware.links import chunked
from repro.hardware.params import wilkes_params
from repro.shmem import Domain, ShmemJob
from repro.units import KiB, MiB

from .helpers import put_latency_program

SIZES = [256 * KiB, 1 * MiB, 4 * MiB]


def _counters(job):
    """Every observable hardware counter, keyed by direction name."""
    snap = {}
    for node in job.hw.nodes:
        links = [*node.pcie.gpu_links, *node.pcie.hca_links, node.pcie.host_mem]
        for hca in node.hcas:
            links.append(hca.port)
            snap[f"n{node.node_id}.hca{hca.hca_id}:msgs"] = (
                hca.messages_tx,
                hca.messages_rx,
            )
        for link in links:
            for d in (link.fwd, link.rev):
                snap[d.name] = (d.bytes_moved, d.transfers)
    return snap


def _ab_run(make_job, program):
    """Run ``program`` with the fast path on and off; assert the
    simulations are indistinguishable.  Returns the batches taken."""
    outcomes = []
    for fast in (True, False):
        job = make_job()
        job.sim.fastpath = fast
        res = job.run(program)
        outcomes.append(
            (
                res.results,
                res.elapsed,
                _counters(job),
                dict(job.runtime.protocol_counts),
                job.sim.stats.fastpath_batches,
            )
        )
    on, off = outcomes
    assert off[4] == 0  # the kill switch really disables it
    assert on[0] == off[0]  # program results (incl. measured latencies)
    assert on[1] == off[1]  # exact virtual end time, no tolerance
    assert on[2] == off[2]  # every link/HCA counter
    assert on[3] == off[3]  # protocol selection unchanged
    return on[4]


# ------------------------------------------------- uncontended pipelines
def test_pipeline_put_sweep_identical_and_batched():
    # Pipeline-GDR-write has no batch: both runs take the chunk stream.
    _ab_run(
        lambda: ShmemJob(nodes=2, design="enhanced-gdr"),
        lat._sweep_program("put", SIZES, Domain.GPU, Domain.GPU, "far"),
    )


def test_proxy_get_sweep_identical_and_batched():
    _ab_run(
        lambda: ShmemJob(nodes=2, design="enhanced-gdr"),
        lat._sweep_program("get", SIZES, Domain.GPU, Domain.GPU, "far"),
    )


def test_staged_host_put_identical_and_batched():
    # host-pipeline intra-node put D-H: staged through the own host heap.
    batches = _ab_run(
        lambda: ShmemJob(nodes=2, pes_per_node=2, design="host-pipeline"),
        lat._sweep_program("put", SIZES, Domain.GPU, Domain.HOST, "near"),
    )
    assert batches > 0


def test_staged_host_get_sweep_identical_and_batched():
    # host-pipeline intra-node get H-D (remote GPU heap -> local host).
    batches = _ab_run(
        lambda: ShmemJob(nodes=2, pes_per_node=2, design="host-pipeline"),
        lat._sweep_program("get", SIZES, Domain.HOST, Domain.GPU, "near"),
    )
    assert batches > 0


# ------------------------------------------------------- contended paths
def _windowed_bidirectional(window, nbytes):
    """Both PEs stream a window of non-blocking puts at each other —
    the classic bandwidth loop the fast path must refuse (the ready
    queue is never empty, so interleavings matter)."""

    def main(ctx):
        sym = yield from ctx.shmalloc(window * nbytes, domain=Domain.GPU)
        src = ctx.cuda.malloc(window * nbytes)
        src.fill(0x3C ^ ctx.pe, window * nbytes)
        peer = (ctx.pe + 1) % ctx.npes
        yield from ctx.barrier_all()
        for i in range(window):
            ctx.putmem_nbi(sym + i * nbytes, src + i * nbytes, nbytes, pe=peer)
        yield from ctx.quiet()
        yield from ctx.barrier_all()
        return (ctx.now, sym.read(window * nbytes))

    return main


def test_contended_window_identical_with_fast_path_enabled():
    batches = _ab_run(
        lambda: ShmemJob(nodes=2, design="enhanced-gdr"),
        _windowed_bidirectional(window=8, nbytes=1 * MiB),
    )
    # Concurrency means the sim is never quiescent at dispatch: the
    # fast path must decline every one of these pipelines.
    assert batches == 0


def test_put_with_waiting_target_identical():
    """Target blocked in wait_until during the put: both modes must
    deliver the per-chunk watcher wake-ups at the same instants."""

    def main(ctx):
        data = yield from ctx.shmalloc(2 * MiB, domain=Domain.GPU)
        flag = yield from ctx.shmalloc(8, domain=Domain.HOST)
        src = ctx.cuda.malloc(2 * MiB)
        src.fill(0x7E, 2 * MiB)
        tgt = ctx.npes - 1  # inter-node, so the put takes the pipeline
        yield from ctx.barrier_all()
        out = ctx.now
        if ctx.pe == 0:
            yield from ctx.putmem(data, src, 2 * MiB, pe=tgt)
            yield from ctx.quiet()
            yield from ctx.putmem(flag, src, 8, pe=tgt)
            yield from ctx.quiet()
        elif ctx.pe == tgt:
            yield from ctx.wait_until(flag, "!=", 0)
            out = (ctx.now, data.read(2 * MiB))
        yield from ctx.barrier_all()
        return out

    _ab_run(lambda: ShmemJob(nodes=2, design="enhanced-gdr"), main)


# ------------------------------------------------------- golden timings
GOLDEN = {
    ("enhanced-gdr", "put"): 0.0038866478717841137,
    ("enhanced-gdr", "get"): 0.0040064978717841175,
    ("host-pipeline", "put"): 0.004699186025149559,
    ("host-pipeline", "get"): 0.009366731990143243,
}
GOLDEN_SIZES = [16 * KiB << i for i in range(9)]  # 16 KiB .. 4 MiB


def _golden_job(design, **kwargs):
    return ShmemJob(
        nodes=2, pes_per_node=1, design=design,
        host_heap_size=32 * MiB, gpu_heap_size=32 * MiB, **kwargs,
    )


@pytest.mark.parametrize("design,op", sorted(GOLDEN))
def test_fig8_golden_end_times(design, op):
    """Pin the Fig 8 D-D sweep end times to the values the archived
    ``benchmarks/results`` were generated with (exact float equality).

    Also pins the *absence* of the reliability machinery: with no fault
    plan attached there is no RC transport, no health tracker, and every
    fault counter stays zero — the subsystem must be invisible."""
    job = _golden_job(design)
    job.run(lat._sweep_program(op, GOLDEN_SIZES, Domain.GPU, Domain.GPU, "far"))
    assert job.sim.now == GOLDEN[(design, op)]
    assert job.verbs.rc is None and job.runtime.health is None
    s = job.sim.stats
    assert (s.retries, s.failovers, s.flap_windows) == (0, 0, 0)
    assert (s.hca_stalls, s.cq_errors, s.degraded_time) == (0, 0, 0.0)


@pytest.mark.parametrize("design,op", sorted(GOLDEN))
def test_fig8_golden_with_empty_fault_plan(design, op):
    """An *attached but empty* fault plan arms the reliability layer
    (RC transport, health tracker, fastpath refusal) yet must not move
    a single timestamp: the golden end times hold exactly, with zero
    batched pipelines taken."""
    from repro.faults import FaultPlan

    job = _golden_job(design, fault_plan=FaultPlan(seed=0))
    job.run(lat._sweep_program(op, GOLDEN_SIZES, Domain.GPU, Domain.GPU, "far"))
    assert job.sim.now == GOLDEN[(design, op)]
    assert job.verbs.rc is not None
    assert job.sim.stats.fastpath_batches == 0  # the health tracker declines it
    assert job.sim.stats.retries == 0


def test_faulted_sweep_declines_fastpath_and_stays_deterministic():
    """Under an active flap plan the batched tiers must decline every
    pipeline, and fastpath on/off must still be indistinguishable (the
    gate makes both sides take the per-op generators, whose link holds
    run one machine in either mode)."""
    from repro.faults import FaultPlan
    from repro.units import usec

    probe = _golden_job("enhanced-gdr")
    res = probe.run(lat._sweep_program("put", [64], Domain.GPU, Domain.GPU, "far"))
    start = res.start_time

    def make_job():
        plan = FaultPlan(seed=9).flap_gdr(
            at=start + usec(40), down_for=usec(120), every=usec(400), count=3, node=1
        )
        return _golden_job("enhanced-gdr", fault_plan=plan)

    batches = _ab_run(
        make_job, lat._sweep_program("put", SIZES, Domain.GPU, Domain.GPU, "far")
    )
    assert batches == 0


@pytest.mark.parametrize("design,op", sorted(GOLDEN))
def test_fig8_golden_untraced_keeps_fastpath(design, op):
    """No tracer, no trace: putmem's tier-2 commits
    (``Runtime._fast_rdma_put``) stay armed."""
    job = _golden_job(design)
    job.run(lat._sweep_program(op, GOLDEN_SIZES, Domain.GPU, Domain.GPU, "far"))
    assert job.sim.now == GOLDEN[(design, op)]
    assert job.sim.stats.analytic_flows > 0


@pytest.mark.parametrize("design,op", sorted(GOLDEN))
def test_fig8_golden_with_span_tracer(design, op):
    """A SpanTracer forces the event-accurate path (batches == 0) yet
    must not move a single timestamp: the golden end times hold with
    exact float equality, and every span closes."""
    from repro.obs import SpanTracer

    job = _golden_job(design)
    tracer = SpanTracer().attach(job.sim)
    job.run(lat._sweep_program(op, GOLDEN_SIZES, Domain.GPU, Domain.GPU, "far"))
    assert job.sim.now == GOLDEN[(design, op)]
    assert job.sim.stats.fastpath_batches == 0  # tracer disarms the gate
    assert len(tracer.spans) > 0
    assert tracer.open_spans() == []
    assert not tracer.truncated
    # Every op span sits inside the golden interval.
    for span in tracer.by_cat("shmem"):
        assert 0.0 <= span.start <= span.end <= GOLDEN[(design, op)]


# ----------------------------------------------------------- satellites
def test_chunked_rejects_negative_nbytes():
    with pytest.raises(ConfigurationError):
        chunked(-1, 1 * MiB)


def test_chunked_zero_is_empty():
    assert list(chunked(0, 1 * MiB)) == []


# --------------------------------- generalised analytic engine (tiers)
def _ab_run_stats(make_job, program):
    """Like :func:`_ab_run`, but returns the fast run's engine stats so
    tests can assert which analytic tier carried the work."""
    outcomes = []
    for fast in (True, False):
        job = make_job()
        job.sim.fastpath = fast
        res = job.run(program)
        outcomes.append(
            (
                res.results,
                res.elapsed,
                _counters(job),
                dict(job.runtime.protocol_counts),
                job.sim.stats,
            )
        )
    on, off = outcomes
    # The kill switch disables every tier, not just the batch planner;
    # link holds queue the same way in both modes.
    assert off[4].fastpath_batches == 0
    assert off[4].analytic_flows == 0
    assert on[4].contended_windows == off[4].contended_windows
    assert on[0] == off[0]  # program results (times, payload bytes)
    assert on[1] == off[1]  # exact virtual end time, no tolerance
    assert on[2] == off[2]  # every link/HCA counter
    assert on[3] == off[3]  # protocol selection unchanged
    return on[4]


#: No HCA post/receive overhead: ``rdma_write`` specs then have zero
#: setup, so a tier-2 commit's write requests its first link direction
#: synchronously at the post instant instead of from a setup wake-up.
_ZERO_HCA = wilkes_params(hca_tx_overhead=0.0, hca_rx_overhead=0.0)


@pytest.mark.parametrize("flows,params", [
    pytest.param(2, None, id="2"),
    pytest.param(3, None, id="3"),
    pytest.param(5, None, id="5"),
    pytest.param(8, None, id="8"),
    pytest.param(3, _ZERO_HCA, id="3-zero-hca"),
])
def test_contended_flows_share_one_link_identical(flows, params):
    """2..8 concurrent tier-2 writes queueing on one HCA port with
    asymmetric sizes: FIFO grant hand-offs must price bit-identically."""

    def main(ctx):
        half = ctx.npes // 2
        sym = yield from ctx.shmalloc(64 * KiB, domain=Domain.GPU)
        src = ctx.cuda.malloc(32 * KiB)
        src.fill(0x11 + ctx.pe, 32 * KiB)
        yield from ctx.barrier_all()
        if ctx.pe < half:
            # Asymmetric per-flow sizes so no two windows are congruent.
            nbytes = 1 * KiB * (1 + ctx.pe)
            for i in range(3):
                yield from ctx.putmem(sym + i * 8 * KiB, src, nbytes, pe=half + ctx.pe)
            yield from ctx.quiet()
        yield from ctx.barrier_all()
        return (ctx.now, sym.read(64 * KiB) if ctx.pe >= half else None)

    stats = _ab_run_stats(
        lambda: ShmemJob(
            nodes=2, pes_per_node=flows, design="enhanced-gdr", params=params
        ),
        main,
    )
    assert stats.analytic_flows > 0       # tier 2 committed real puts
    assert stats.contended_windows > 0    # and they actually queued


def test_mid_window_fault_fallback_identical():
    """A port dies while tier-2 writes are mid-window: every
    write must fail with the event path's exception at its instant, and
    quiet must surface it identically."""
    from repro.errors import LinkDown

    def main(ctx):
        sym = yield from ctx.shmalloc(64 * KiB, domain=Domain.GPU)
        src = ctx.cuda.malloc(8 * KiB)
        src.fill(0x42, 8 * KiB)
        yield from ctx.barrier_all()
        out = None
        if ctx.my_pe() == 0:
            port = ctx.job.hw.nodes[0].hcas[0].port.fwd
            for i in range(4):
                yield from ctx.putmem(sym + i * 8 * KiB, src, 2 * KiB, pe=ctx.npes - 1)
            port.fail()  # in-flight windows lose their payloads
            try:
                yield from ctx.putmem(sym, src, 2 * KiB, pe=ctx.npes - 1)
                yield from ctx.quiet()
                out = "unexpected-success"
            except LinkDown as exc:
                out = ("failed", str(exc), ctx.now)
                port.repair()
        yield from ctx.barrier_all()
        return out

    stats = _ab_run_stats(
        lambda: ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr"),
        main,
    )
    assert stats.analytic_flows > 0


def test_zero_setup_flow_down_at_post_identical():
    """With zero HCA overhead a tier-2 write requests its first direction
    synchronously at the post instant; a direction already down there
    must fail the put with the event path's exception at the same
    instant."""
    from repro.errors import LinkDown

    def main(ctx):
        sym = yield from ctx.shmalloc(16 * KiB, domain=Domain.GPU)
        src = ctx.cuda.malloc(8 * KiB)
        src.fill(0x42, 8 * KiB)
        yield from ctx.barrier_all()
        out = None
        if ctx.my_pe() == 0:
            # The source GPU's PCIe read direction: first in the write
            # path's acquisition order.
            leg = ctx.job.hw.nodes[0].pcie.gpu_links[0].rev
            yield from ctx.putmem(sym, src, 2 * KiB, pe=ctx.npes - 1)
            yield from ctx.quiet()
            leg.fail()
            try:
                yield from ctx.putmem(sym, src, 2 * KiB, pe=ctx.npes - 1)
                yield from ctx.quiet()
                out = "unexpected-success"
            except LinkDown as exc:
                out = ("failed", str(exc), ctx.now)
                leg.repair()
        yield from ctx.barrier_all()
        return out

    stats = _ab_run_stats(
        lambda: ShmemJob(nodes=2, pes_per_node=1, design="enhanced-gdr", params=_ZERO_HCA),
        main,
    )
    assert stats.analytic_flows > 0


_COLLECTIVES = ["barrier", "bcast", "reduce", "alltoall", "fcollect", "collect"]


@pytest.mark.parametrize("coll", _COLLECTIVES)
def test_collective_closed_form_identical(coll):
    """Each collective against its event twin: the puts its rounds
    commit through tier 2 must leave results, heap bytes, and
    the end time bit-identical."""

    def main(ctx):
        n = ctx.npes
        dst = yield from ctx.shmalloc(4 * KiB * n, domain=Domain.HOST)
        src = yield from ctx.shmalloc(4 * KiB * n, domain=Domain.HOST)
        src.fill(0x21 + ctx.pe, 4 * KiB * n)
        yield from ctx.barrier_all()
        if coll == "barrier":
            for _ in range(3):
                yield from ctx.barrier_all()
        elif coll == "bcast":
            yield from ctx.broadcast(src, 4 * KiB, root=0)
        elif coll == "reduce":
            yield from ctx.reduce(dst, src, count=128)
        elif coll == "alltoall":
            yield from ctx.alltoall(dst, src, 1 * KiB)
        elif coll == "fcollect":
            yield from ctx.fcollect(dst, src, 1 * KiB)
        elif coll == "collect":
            yield from ctx.collect(dst, src, 512 * (1 + ctx.pe % 2))
        yield from ctx.barrier_all()
        return (ctx.now, dst.read(4 * KiB * n), src.read(4 * KiB))

    stats = _ab_run_stats(
        lambda: ShmemJob(nodes=2, pes_per_node=2, design="enhanced-gdr"),
        main,
    )
    assert stats.analytic_flows > 0


@pytest.mark.parametrize("design,ppn,params", [
    pytest.param("enhanced-gdr", 3, None, id="enhanced-gdr-3"),
    pytest.param("enhanced-gdr", 4, None, id="enhanced-gdr-4"),
    pytest.param("device-initiated", 4, None, id="device-initiated-4"),
    pytest.param("enhanced-gdr", 3, _ZERO_HCA, id="enhanced-gdr-3-zero-hca"),
])
def test_three_way_contention_grant_order_identical(design, ppn, params):
    """Regression: a GPU alltoall at 3+ PEs per node piles flows with
    *overlapping but distinct* direction sets onto shared links.  The
    analytic flows used to chain consecutive immediate grants inline
    within one callback, jumping ahead of same-instant parties whose
    resumes already sat in the ready queue — which flipped a FIFO grant
    the event path awarded the other way (first seen as a +115.7 ns
    completion drift on a 2x3 568-byte alltoall)."""

    def main(ctx):
        n = ctx.npes
        dst = yield from ctx.shmalloc(1 * KiB * n, domain=Domain.GPU)
        src = yield from ctx.shmalloc(1 * KiB * n, domain=Domain.GPU)
        src.fill(0x31 + ctx.pe, 1 * KiB * n)
        yield from ctx.barrier_all()
        yield from ctx.alltoall(dst, src, 568)
        yield from ctx.barrier_all()
        return (ctx.now, dst.read(568 * n))

    stats = _ab_run_stats(
        lambda: ShmemJob(nodes=2, pes_per_node=ppn, design=design, params=params),
        main,
    )
    assert stats.contended_windows > 0  # the grant queues really formed
