"""The memory model's write record and the heap compare that trusts it.

Every mutator (:meth:`Ptr.write` with any payload, :meth:`Ptr.fill`,
:meth:`Ptr.as_array`) extends its allocation's record, so every byte
outside the record is still zero.  The differential harness compares a
run's heap with the reference only over the union of the two records;
these tests prove a byte flipped through any mutator, on a page neither
side wrote, is still caught, and that a record is trusted only for the
very array it was read with.
"""

import numpy as np
import pytest

import repro.check.runner as runner
from repro.check import execute_reference, generate_workload, run_workload
from repro.check.oracles import CheckReport, heaps_equal, oracle_heap_matches_reference
from repro.check.reference import Heaps
from repro.cuda.memory import BLOCK, MemKind, MemorySpace
from repro.shmem import Domain


def _alloc(size=8 * BLOCK):
    space = MemorySpace()
    return space, space.allocate(MemKind.HOST, size, node_id=0, owner=0)


def _record(alloc):
    return alloc.ptr(0).written(alloc.size)


def test_a_fresh_allocation_has_an_empty_record_and_reads_do_not_extend_it():
    _, a = _alloc()
    assert _record(a) == []
    a.ptr(100).read(50)
    a.ptr(0).snapshot(BLOCK).release()
    a.ptr(0).read_view(a.size)
    assert _record(a) == []


@pytest.mark.parametrize("payload", [b"\x01\x02\x03", np.array([1, 2, 3], np.uint8)],
                         ids=["bytes", "ndarray"])
def test_write_records_the_blocks_it_touches(payload):
    _, a = _alloc()
    a.ptr(BLOCK + 10).write(payload)
    assert _record(a) == [(BLOCK, 2 * BLOCK)]
    a.ptr(3 * BLOCK - 1).write(payload)  # straddles blocks 2 and 3
    assert _record(a) == [(BLOCK, 4 * BLOCK)]


def test_a_snapshot_write_records_its_range_while_still_inbound():
    space, dst = _alloc()
    src = space.allocate(MemKind.HOST, BLOCK, node_id=0, owner=0)
    src.ptr(0).write(b"\x07" * 64)
    snap = src.ptr(0).snapshot(64)
    dst.ptr(5 * BLOCK + 1).write(snap)
    snap.release()
    assert dst.inbound  # delivered, not yet copied
    assert _record(dst) == [(5 * BLOCK, 6 * BLOCK)]


def test_fill_records_and_as_array_records_the_whole_allocation():
    _, a = _alloc()
    a.ptr(2 * BLOCK).fill(0, 2 * BLOCK)  # a zero fill counts: it is a write
    assert _record(a) == [(2 * BLOCK, 4 * BLOCK)]
    a.ptr(7 * BLOCK).as_array(np.uint8, 1)
    assert _record(a) == [(0, a.size)]


def test_the_record_is_clipped_to_the_pointer_range():
    _, a = _alloc()
    a.ptr(BLOCK).write(b"x")
    assert a.ptr(BLOCK - 10).written(20) == [(10, 20)]
    assert a.ptr(BLOCK + 100).written(10) == [(0, 10)]
    assert a.ptr(2 * BLOCK).written(BLOCK) == []


# ----------------------------------------------------- through the oracle
#: A clean two-PE workload whose pe0 ``gbuf`` neither the run nor the
#: reference writes.
W = generate_workload(1, ops=8, design="host-pipeline", nodes=1, pes_per_node=2)
KEY = (0, "gbuf")
AT = 200_000


def _by_snapshot(ctx, ptr):
    src = ctx.cuda.malloc_host(1)
    src.write(b"\x5a")
    snap = src.snapshot(1)
    ptr.write(snap)
    snap.release()


MUTATORS = {
    "write-bytes": lambda ctx, ptr: ptr.write(b"\x5a"),
    "write-ndarray": lambda ctx, ptr: ptr.write(np.array([0x5A], np.uint8)),
    "write-snapshot": _by_snapshot,
    "fill": lambda ctx, ptr: ptr.fill(0x5A, 1),
    "as-array": lambda ctx, ptr: ptr.as_array(np.uint8, 1).__setitem__(0, 0x5A),
}


def test_the_flip_target_is_on_a_page_nobody_wrote():
    obs, ref = run_workload(W), execute_reference(W)
    for heaps in (obs.heaps, ref.heaps):
        view, ranges = heaps.written[KEY]
        assert view is heaps[KEY]
        assert all(hi <= AT - BLOCK or AT + BLOCK <= lo for lo, hi in ranges)
    assert heaps_equal(obs.heaps, ref.heaps)


@pytest.mark.parametrize("mutator", sorted(MUTATORS))
def test_a_byte_flipped_through_any_mutator_is_caught(monkeypatch, mutator):
    make = runner._make_program

    def flipping(w, corrupt_uid, payloads):
        program = make(w, corrupt_uid, payloads)

        def flipped(ctx):
            out = yield from program(ctx)
            if ctx.pe == KEY[0]:
                heap = ctx.runtime.heap_of(ctx.pe, Domain.GPU).heap
                MUTATORS[mutator](ctx, heap.ptr(out["offsets"][KEY[1]] + AT))
            return out

        return flipped

    monkeypatch.setattr(runner, "_make_program", flipping)
    obs, ref = run_workload(W), execute_reference(W)
    report = CheckReport(workload=W)
    assert not oracle_heap_matches_reference(report, ref, obs)
    assert [str(v) for v in report.violations] == [
        f"[heap] fast: pe0/gbuf diverges at 1 byte(s), first at offset {AT} "
        "(got 0x5a, want 0x00)"
    ]


def test_a_hand_built_copy_is_compared_in_full():
    obs, ref = run_workload(W), execute_reference(W)
    heaps = Heaps(obs.heaps)
    heaps.written = dict(obs.heaps.written)  # records of the original views
    flipped = heaps[KEY].copy()
    flipped[AT] ^= 0x5A
    heaps[KEY] = flipped
    assert not heaps_equal(heaps, ref.heaps)
    assert not heaps_equal(ref.heaps, heaps)


def test_a_run_that_wrote_nothing_differs_wherever_the_reference_wrote():
    """Each reference write (payloads, collective fills, atoms words)
    is in its record: an all-zero heap with an empty record is told
    apart on every buffer the reference made non-zero."""
    ref = execute_reference(generate_workload(3, ops=16))
    nonzero = [key for key, arr in ref.heaps.items() if arr.any()]
    assert (0, "atoms") in nonzero or (1, "atoms") in nonzero
    for key in nonzero:
        blank = Heaps(ref.heaps)
        blank[key] = np.zeros_like(ref.heaps[key])
        blank.written[key] = (blank[key], [])
        assert not heaps_equal(blank, ref.heaps), key
