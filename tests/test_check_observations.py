"""Heap observations of the differential harness: zero-copy views,
one heap comparison, one fault-plan probe per job shape, and one run
that is both the fast and the event run of a faulted check.

A finished job's heaps are read back as read-only views of the heap
allocations (no copy), the reference keeps its arrays, and every oracle
compares heaps through :func:`repro.check.oracles.heaps_equal`.  The
cross-mode heap comparison is skipped only when both runs already
matched the reference byte for byte.  A fault plan's health tracker
disarms the fast tiers, so a faulted check's fast run takes the event
path for every op and no separate event run is made.
"""

import dataclasses

import numpy as np
import pytest

import repro.check.oracles as oracles
from repro.check import check_workload, execute_reference, generate_workload, run_workload
from repro.check.oracles import (
    CheckReport,
    heaps_equal,
    oracle_bit_identity,
    oracle_heap_matches_reference,
)
from repro.check.runner import measure_start, probe_start
from repro.check.workload import DESIGNS, TOPOLOGIES
from repro.shmem import Domain, ShmemJob

H = Domain.HOST


def test_heap_read_back_is_a_read_only_view_with_inbound_applied():
    n = 4096
    data = (np.arange(n) % 251).astype(np.uint8)

    def prog(ctx):
        sym = yield from ctx.shmalloc(n)
        yield from ctx.barrier_all()
        if ctx.pe == 0:
            src = ctx.cuda.malloc_host(n)
            src.write(data)
            yield from ctx.putmem(sym.addr, src, n, 1)
            yield from ctx.quiet()
        yield from ctx.barrier_all()
        return sym.addr.offset

    job = ShmemJob(nodes=1, pes_per_node=2)
    offset = job.run(prog).results[0]
    alloc = job.runtime.heap_of(1, H).heap.alloc
    # The delivered payload is still an unapplied inbound range.
    assert [r.at for r in alloc.inbound] == [offset]

    view = job.runtime.heap_read_back(1, H, offset, n)
    assert isinstance(view, np.ndarray) and view.dtype == np.uint8
    assert not view.flags.writeable
    assert np.shares_memory(view, alloc.data)
    assert np.array_equal(view, data)
    assert not alloc.inbound


@pytest.mark.parametrize("at", [0, 2048, 4095, 4098])  # first byte to last
def test_heaps_equal_compares_keys_and_every_byte(at):
    a = {(0, "x"): np.zeros(8, np.uint8), (1, "x"): (np.arange(4099) % 256).astype(np.uint8)}
    b = {k: v.copy() for k, v in a.items()}
    assert heaps_equal(a, b)
    b[1, "x"][at] ^= 1
    assert not heaps_equal(a, b)
    assert not heaps_equal(a, {(0, "x"): a[0, "x"]})
    assert not heaps_equal({(0, "x"): a[0, "x"]}, a)
    assert not heaps_equal(a, {**a, (1, "x"): a[1, "x"][:-1]})
    # An unaligned view compares the same bytes.
    assert heaps_equal({(0, "x"): a[1, "x"][1:]}, {(0, "x"): a[1, "x"][1:].copy()})


def test_reference_heaps_are_read_only_arrays():
    ref = execute_reference(generate_workload(11, ops=16))
    assert ref.heaps
    for arr in ref.heaps.values():
        assert arr.dtype == np.uint8 and not arr.flags.writeable


def _flipped(obs, key):
    heaps = dict(obs.heaps)
    heaps[key] = heaps[key].copy()
    heaps[key][0] ^= 0x5A
    return dataclasses.replace(obs, heaps=heaps)


def test_bit_identity_reports_one_flipped_byte_that_missed_the_reference():
    w = generate_workload(3, ops=10, design="naive")
    ref = execute_reference(w)
    fast = check_workload(w, modes=False).runs["fast"]
    key = sorted(fast.heaps)[0]
    other = _flipped(fast, key)

    report = CheckReport(workload=w)
    assert oracle_heap_matches_reference(report, ref, fast)
    assert not oracle_heap_matches_reference(report, ref, other)
    assert [v.oracle for v in report.violations] == ["heap"]

    report = CheckReport(workload=w)
    oracle_bit_identity(report, fast, other, "fast-vs-event", both_match_reference=False)
    pe, name = key
    assert [str(v) for v in report.violations] == [
        f"[fast-vs-event] final heap bytes diverge between modes: ['pe{pe}/{name}']"
    ]


def test_one_probe_job_per_faulted_check(monkeypatch):
    runs = []
    run = ShmemJob.run

    def counted(self, program, *args, **kw):
        runs.append(program)
        return run(self, program, *args, **kw)

    monkeypatch.setattr(ShmemJob, "run", counted)
    probe_start.cache_clear()
    faulted = generate_workload(5, ops=8, faults=True)
    assert check_workload(faulted).passed
    assert len(runs) == 3  # one probe + fast (its own event run) + traced
    runs.clear()
    same_shape = generate_workload(6, ops=8, faults=True, design=faulted.design,
                                   nodes=faulted.nodes, pes_per_node=faulted.pes_per_node)
    assert check_workload(same_shape).passed
    assert len(runs) == 2  # the shape's probe is memoised
    runs.clear()
    assert check_workload(generate_workload(5, ops=8)).passed
    assert len(runs) == 3


def test_engine_totals_of_a_check_do_not_depend_on_the_probe_memo():
    """The probe job's counters stay out of the process-wide tally, so
    checking one workload twice gives the same engine totals though
    only the first check runs the probe."""
    from repro.simulator.core import GLOBAL_STATS, reset_global_stats

    w = generate_workload(5, ops=8, faults=True)
    totals = []
    probe_start.cache_clear()
    for _ in range(2):
        reset_global_stats()
        assert check_workload(w).passed
        totals.append(GLOBAL_STATS.as_dict())
    assert totals[0] == totals[1] and totals[0]["processed"] > 0


@pytest.mark.parametrize("faults", [False, True], ids=["clean", "faulted"])
def test_memoised_probe_start_equals_a_fresh_probe(faults):
    """The probe's start depends only on the fields the job is built
    from, for every design and topology the generator draws."""
    for design in DESIGNS:
        for nodes, ppn in TOPOLOGIES:
            w = generate_workload(1, ops=4, design=design, nodes=nodes,
                                  pes_per_node=ppn, faults=faults)
            fresh = probe_start.__wrapped__(nodes, design, ppn, faults)
            assert measure_start(w) == measure_start(w) == fresh, (design, nodes, ppn)


def test_check_compares_modes_in_full_when_one_run_missed_the_reference(monkeypatch):
    """An event run with one flipped heap byte fails the reference
    oracle and the fast-vs-event heap comparison, which must not be
    skipped for it."""
    run = oracles.run_workload

    def event_flipped(w, **kw):
        obs = run(w, **kw)
        return obs if kw.get("fastpath", True) else _flipped(obs, sorted(obs.heaps)[0])

    monkeypatch.setattr(oracles, "run_workload", event_flipped)
    report = check_workload(generate_workload(3, ops=10, design="naive"))
    assert sorted({v.oracle for v in report.violations}) == ["fast-vs-event", "heap"]
    assert any("final heap bytes diverge" in str(v) for v in report.violations)


#: One faulted seed of each faulted CI sweep shape (``--ops 12``):
#: plain, device-initiated, ``--msg`` and device-initiated ``--msg``.
#: A tier armed under the health tracker diverges or raises on each.
FAULTED_SHAPES = [
    (10004, None, False),
    (10004, "device-initiated", False),
    (10004, None, True),
    (10004, "device-initiated", True),
]


@pytest.mark.parametrize(
    "seed,design,msg", FAULTED_SHAPES,
    ids=[f"{d or 'default'}-{'msg' if m else 'p2p'}" for _, d, m in FAULTED_SHAPES],
)
def test_faulted_fast_run_is_its_own_event_run(seed, design, msg):
    """The proof behind skipping a faulted check's event run: with the
    tiers disarmed, the default run equals a ``fastpath=False`` run."""
    w = generate_workload(seed, ops=12, design=design, faults=True, msg=msg)
    start = measure_start(w)
    fast = run_workload(w, start=start)
    event = run_workload(w, fastpath=False, start=start)
    assert not fast.tiers_armed
    assert fast.elapsed == event.elapsed
    assert fast.stats == event.stats
    assert fast.protocol_counts == event.protocol_counts
    assert heaps_equal(fast.heaps, event.heaps)


def test_faulted_check_catches_one_flipped_traced_byte(monkeypatch):
    """With the fast run standing in for the event run, the traced run
    is still an independent execution compared byte for byte."""
    run = oracles.run_workload

    def traced_flipped(w, **kw):
        obs = run(w, **kw)
        return _flipped(obs, sorted(obs.heaps)[0]) if kw.get("trace") else obs

    monkeypatch.setattr(oracles, "run_workload", traced_flipped)
    report = check_workload(generate_workload(5, ops=8, faults=True))
    assert sorted(report.runs) == ["fast", "traced"]
    assert sorted({v.oracle for v in report.violations}) == ["heap", "traced-vs-untraced"]
    assert any("final heap bytes diverge" in str(v) for v in report.violations)
