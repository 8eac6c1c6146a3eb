"""Tests for the differential harness itself: generator validity,
reference determinism, error annotation, and the shrinker."""

import pytest

from repro.check import (
    WOp,
    Workload,
    check_workload,
    execute_reference,
    generate_workload,
    shrink_workload,
    to_pytest_repro,
)
from repro.check.oracles import heaps_equal
from repro.check.shrink import to_cli_command
from repro.errors import ShmemError
from repro.shmem import Domain, ShmemJob

ATOMIC_KINDS = ("fadd", "swap", "cswap", "aset", "afetch")
DATA_KINDS = ("put", "get", "put_nbi")


# ------------------------------------------------------------- generator
def test_generator_is_deterministic():
    a = generate_workload(42, ops=20)
    b = generate_workload(42, ops=20)
    assert a == b
    assert generate_workload(43, ops=20) != a


def test_generator_meets_op_target():
    w = generate_workload(7, ops=24)
    assert w.op_count() >= 24
    assert 2 <= w.npes <= 8


def test_repr_round_trips_through_eval():
    w = generate_workload(9, ops=10)
    from repro.check import BufSpec  # noqa: F401 - eval namespace

    clone = eval(repr(w))
    assert clone == w


@pytest.mark.parametrize("seed", range(12))
def test_generated_rounds_are_single_writer(seed):
    w = generate_workload(seed, ops=18)
    for rnd in w.rounds:
        cells = []
        words = {}
        for op in rnd:
            if op.kind in DATA_KINDS or op.kind == "put_u64":
                cells.append((op.buf, op.target, op.slot))
            elif op.kind in ATOMIC_KINDS:
                key = (op.target, op.slot)
                prior = words.get(key)
                if prior is not None:
                    assert prior == "fadd" and op.kind == "fadd", rnd
                words[key] = op.kind
        assert len(cells) == len(set(cells)), f"cell reused in round: {rnd}"


def test_naive_workloads_stay_on_the_host():
    w = generate_workload(3, ops=30, design="naive")
    assert all(b.domain == "host" for b in w.buffers)
    assert not any(op.local_device for op in w.all_ops())


def test_host_pipeline_internode_configs_are_symmetric():
    w = generate_workload(5, ops=40, design="host-pipeline", nodes=2, pes_per_node=2)
    gpu_bufs = {b.name for b in w.buffers if b.domain == "gpu"}
    for op in w.all_ops():
        if op.kind in DATA_KINDS and w.node_of(op.pe) != w.node_of(op.target):
            assert op.local_device == (op.buf in gpu_bufs), op


def test_reference_is_deterministic_and_complete():
    w = generate_workload(11, ops=16)
    a, b = execute_reference(w), execute_reference(w)
    assert heaps_equal(a.heaps, b.heaps) and a.gets == b.gets and a.atomics == b.atomics
    assert set(a.heaps) == {
        (pe, s.name) for pe in range(w.npes) for s in w.buffers
    }
    get_uids = {op.uid for op in w.all_ops() if op.kind == "get"}
    assert set(a.gets) == get_uids


# ---------------------------------------------------- workload error context
def test_job_annotates_workload_errors_with_pe_and_op(tmp_path):
    marker = {}

    def prog(ctx):
        sym = yield from ctx.shmalloc(64)
        yield from ctx.barrier_all()
        if ctx.pe == 1:
            src = ctx.cuda.malloc_host(8)
            yield from ctx.putmem(sym.addr, src, 8, 0)
            marker["before"] = ctx.op_index
            yield from ctx.putmem(sym.addr, src, 8, 99)  # bad PE
        yield from ctx.barrier_all()

    job = ShmemJob(nodes=1, pes_per_node=2, design="enhanced-gdr")
    with pytest.raises(ShmemError) as ei:
        job.run(prog)
    assert ei.value.pe == 1
    assert ei.value.op_index == marker["before"] + 1
    assert f"[PE 1, op #{ei.value.op_index}]" in str(ei.value)


def test_annotation_is_idempotent_and_preserves_type():
    from repro.errors import CompletionError, annotate_workload_error

    exc = CompletionError("boom", status="RETRY_EXC_ERR")
    annotate_workload_error(exc, 3, 17)
    annotate_workload_error(exc, 9, 99)  # second stamp must not re-annotate
    assert exc.pe == 3 and exc.op_index == 17
    assert str(exc).count("[PE") == 1
    assert exc.status == "RETRY_EXC_ERR"


# --------------------------------------------------------------- shrinker
def _corrupt_predicate(uid):
    return lambda wl: not check_workload(wl, corrupt_uid=uid, modes=False).passed


def test_broken_oracle_fixture_shrinks_to_minimal_repro():
    """A deliberate one-byte corruption keyed on an op uid must (a) be
    caught by the heap oracle and (b) shrink to exactly that op."""
    w = generate_workload(3, ops=10, design="naive")
    target = next(op for op in w.all_ops() if op.kind in ("put", "get", "fadd"))
    report = check_workload(w, corrupt_uid=target.uid, modes=False)
    assert not report.passed
    assert any(v.oracle in ("heap", "atomic-conservation") for v in report.violations)

    small, evals = shrink_workload(w, failing=_corrupt_predicate(target.uid))
    assert small.op_count() == 1
    assert small.all_ops()[0].uid == target.uid
    assert evals <= 200


def test_shrinker_requires_a_failing_input():
    w = generate_workload(1, ops=6, design="naive")
    with pytest.raises(ValueError):
        shrink_workload(w, failing=lambda wl: False)


def test_repro_renderers():
    w = generate_workload(2, ops=4, design="naive")
    src = to_pytest_repro(w)
    assert "def test_check_repro_seed2" in src
    namespace = {}
    exec(compile(src, "<repro>", "exec"), namespace)
    namespace["test_check_repro_seed2"]()  # the emitted test must run green
    cmd = to_cli_command(w)
    assert "--seed 2" in cmd and "--design naive" in cmd


def test_span_parity_ledger_reconciles_in_span_retransmission():
    """A 936 KB inter-node write holds the wire far longer than a flap
    window, so RC can lose it in flight and retransmit *inside* the
    same ``rdma_write`` span — two link holds, one span.  The RC
    ledger must record exactly that surplus and the span-parity oracle
    must reconcile through it (shrunk from check seed 10046)."""
    from repro.check import BufSpec

    w = Workload(
        seed=10046, design="device-initiated", nodes=2, pes_per_node=2,
        buffers=(BufSpec(name="hbig", domain="host", size=4194304,
                         slot_bytes=4194304),),
        rounds=((WOp(uid=3, kind="put_nbi", pe=0, target=2, buf="hbig",
                     slot=0, nbytes=936367, local_device=True),),),
        faults=True,
    )
    report = check_workload(w)
    assert report.passed, report.summary()
    traced = report.runs["traced"]
    # The ledger actually engaged — this is not a vacuous parity pass.
    assert traced.stats["rc_retx_holds"] >= 1
    assert traced.rdma_write_holds == (
        traced.span_rdma_writes
        - traced.stats["rc_aborted_wrs"]
        + traced.stats["rc_retx_holds"]
    )


def test_span_parity_ledger_counts_zero_hold_aborts():
    """Drawn seed 10013: two WRs exhaust RC retry without ever holding
    the wire (every attempt dead at acquire time), leaving spans with
    no link hold.  The ledger's abort count must cover them."""
    w = generate_workload(
        10013, ops=12, design="enhanced-gdr", faults=True,
        max_nbytes=4194304, nodes=2, pes_per_node=2,
    )
    report = check_workload(w)
    assert report.passed, report.summary()
    traced = report.runs["traced"]
    assert traced.stats["rc_aborted_wrs"] >= 1
    assert traced.rdma_write_holds == (
        traced.span_rdma_writes
        - traced.stats["rc_aborted_wrs"]
        + traced.stats["rc_retx_holds"]
    )
