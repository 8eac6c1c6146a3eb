"""Untimed sequential reference executor for generated workloads.

Replays a :class:`~repro.check.workload.Workload` against plain numpy
byte arrays — no simulator, no timing, no protocols — and produces the
outcome the real runtime *must* reach: the final bytes of every
symmetric buffer on every PE, the expected result of every blocking
``get``, and the expected return value of every atomic whose ordering
the round rules make deterministic.

The workload's round discipline (quiet + barrier between rounds,
single writer per cell within a round, commutative-only atomic
stacking) is exactly what makes this sequential replay valid: every
legal interleaving of the concurrent execution reaches the same final
state.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.check.workload import Workload, WOp

#: Atomic kinds whose *return value* is deterministic when the word is
#: touched exactly once in the round.
_ATOMIC_KINDS = ("fadd", "swap", "cswap", "aset", "afetch")


#: Op kinds that write a generated payload (one-sided puts and sends).
_PAYLOAD_KINDS = ("put", "put_nbi", "msg")


def draw_payloads(w: Workload) -> Dict[int, np.ndarray]:
    """``op uid -> the deterministic bytes op uid writes`` for every
    put and send of ``w``, as read-only uint8 arrays.  One check draws
    the table once; its runs and the reference all read it."""
    table = {}
    for rnd in w.rounds:
        for op in rnd:
            if op.kind in _PAYLOAD_KINDS:
                rng = np.random.default_rng((w.seed, op.uid))
                data = rng.integers(0, 256, op.nbytes, dtype=np.uint8)
                data.flags.writeable = False
                table[op.uid] = data
    return table


def coll_fill(seed: int, uid: int, pe: int, nbytes: int) -> bytes:
    """PE ``pe``'s deterministic pre-fill for collective round ``uid``."""
    rng = np.random.default_rng((seed, uid, pe))
    return rng.integers(0, 256, nbytes, dtype=np.uint8).tobytes()


def coll_fill_int64(seed: int, uid: int, pe: int, count: int) -> np.ndarray:
    """PE ``pe``'s int64 contribution to reduction round ``uid``
    (int64 keeps the sum exact under any reduction order)."""
    rng = np.random.default_rng((seed, uid, pe))
    return rng.integers(-(10**6), 10**6, count, dtype=np.int64)


class Heaps(dict):
    """``(pe, buffer name) -> final bytes`` of every symmetric buffer,
    as read-only uint8 arrays, with their write records.

    ``written[key] = (array, ranges)`` states that every byte of
    ``array`` outside the ``(lo, hi)`` byte ranges is zero.  A record
    holds only for the very array object it was taken with:
    :func:`~repro.check.oracles.heaps_equal` compares any other array
    under that key (or a plain dict's) in full."""

    def __init__(self, *args, **kw):
        super().__init__(*args, **kw)
        self.written: Dict[Tuple[int, str], Tuple[np.ndarray, list]] = {}


@dataclass
class ReferenceResult:
    """Expected end state of one workload."""

    #: ``(pe, buffer name) -> final bytes`` of every symmetric buffer,
    #: as a read-only uint8 array, with the ranges the reference wrote.
    heaps: Dict[Tuple[int, str], np.ndarray] = field(default_factory=Heaps)
    #: ``op uid -> bytes`` a blocking get must fetch.
    gets: Dict[int, bytes] = field(default_factory=dict)
    #: ``op uid -> int`` return of order-deterministic atomics.
    atomics: Dict[int, int] = field(default_factory=dict)
    #: ``(pe, word index) -> final value`` of every touched atoms word.
    atom_words: Dict[Tuple[int, int], int] = field(default_factory=dict)
    #: ``op uid -> (source pe, tag)`` envelope every two-sided receive
    #: must report.  One receiver per msg round means matching is
    #: unambiguous even under wildcards, so this is exact.
    msgs: Dict[int, Tuple[int, int]] = field(default_factory=dict)


class _State:
    def __init__(self, w: Workload):
        self.w = w
        self.mem: Dict[Tuple[int, str], np.ndarray] = {
            (pe, spec.name): np.zeros(spec.size, dtype=np.uint8)
            for pe in range(w.npes)
            for spec in w.buffers
        }
        #: ``key -> (lo, hi)`` byte ranges written (may overlap).
        self.written: Dict[Tuple[int, str], list] = {key: [] for key in self.mem}

    def region(self, pe: int, buf: str, offset: int, nbytes: int) -> np.ndarray:
        return self.mem[(pe, buf)][offset : offset + nbytes]

    def write(self, pe: int, buf: str, offset: int, data) -> None:
        self.mem[(pe, buf)][offset : offset + len(data)] = np.frombuffer(data, dtype=np.uint8)
        self.written[(pe, buf)].append((offset, offset + len(data)))

    def word(self, pe: int, idx: int) -> int:
        return int(self.mem[(pe, "atoms")][idx * 8 : idx * 8 + 8].view(np.uint64)[0])

    def set_word(self, pe: int, idx: int, value: int) -> None:
        self.mem[(pe, "atoms")][idx * 8 : idx * 8 + 8].view(np.uint64)[0] = np.uint64(
            value & (2**64 - 1)
        )
        self.written[(pe, "atoms")].append((idx * 8, idx * 8 + 8))


def _apply_p2p_round(st: _State, payloads, rnd, out: ReferenceResult) -> None:
    # Reads observe pre-round state (cells are single-use per round, so
    # read-before-write ordering is the only consistent serialisation).
    for op in rnd:
        if op.kind == "get":
            out.gets[op.uid] = bytes(st.region(op.target, op.buf, op.offset, op.nbytes))
    # Atomics, grouped per word so stacked fetch_adds commute and the
    # return value is recorded only when the round order is immaterial.
    by_word: Dict[Tuple[int, int], list] = {}
    for op in rnd:
        if op.kind in _ATOMIC_KINDS:
            by_word.setdefault((op.target, op.slot), []).append(op)
    for (pe, word), ops in by_word.items():
        cur = st.word(pe, word)
        deterministic = len(ops) == 1
        for op in ops:
            if deterministic and op.kind != "aset":
                out.atomics[op.uid] = cur
            if op.kind == "fadd":
                cur += op.value
            elif op.kind in ("swap", "aset"):
                cur = op.value
            elif op.kind == "cswap" and cur == op.compare:
                cur = op.value
        st.set_word(pe, word, cur)
        out.atom_words[(pe, word)] = cur
    # Plain writes land last (their cells were not read this round).
    for op in rnd:
        if op.kind in ("put", "put_nbi"):
            st.write(op.target, op.buf, op.offset, payloads[op.uid])
        elif op.kind == "put_u64":
            st.write(op.target, op.buf, op.offset, np.uint64(op.value).tobytes())


def _apply_collective(st: _State, w: Workload, op: WOp, out: ReferenceResult) -> None:
    npes, n = w.npes, op.nbytes
    if op.kind == "bcast":
        for pe in range(npes):
            st.write(pe, "cdst", 0, coll_fill(w.seed, op.uid, pe, n))
        root_fill = coll_fill(w.seed, op.uid, op.root, n)
        for pe in range(npes):
            st.write(pe, "cdst", 0, root_fill)
    elif op.kind == "reduce":
        count = n // 8
        fills = [coll_fill_int64(w.seed, op.uid, pe, count) for pe in range(npes)]
        total = np.sum(fills, axis=0, dtype=np.int64)
        for pe in range(npes):
            st.write(pe, "csrc", 0, fills[pe].tobytes())
            st.write(pe, "cdst", 0, total.tobytes())
    elif op.kind == "fcollect":
        fills = [coll_fill(w.seed, op.uid, pe, n) for pe in range(npes)]
        for pe in range(npes):
            st.write(pe, "csrc", 0, fills[pe])
            for i in range(npes):
                st.write(pe, "cdst", i * n, fills[i])
    elif op.kind == "alltoall":
        fills = [coll_fill(w.seed, op.uid, pe, npes * n) for pe in range(npes)]
        for pe in range(npes):
            st.write(pe, "csrc", 0, fills[pe])
            for i in range(npes):
                st.write(pe, "cdst", i * n, fills[i][pe * n : (pe + 1) * n])
    else:  # pragma: no cover - generator never emits other kinds here
        raise ValueError(f"unknown collective {op.kind!r}")


def _apply_msg_round(st: _State, payloads, rnd, out: ReferenceResult) -> None:
    # Matched send/recv pairs; the payload lands in the receiver's cell
    # regardless of protocol (eager/rendezvous) or transport (RC/UD).
    for op in rnd:
        st.write(op.target, op.buf, op.offset, payloads[op.uid])
        out.msgs[op.uid] = (op.pe, op.tag)


def _apply_lock_round(st: _State, w: Workload, op: WOp, out: ReferenceResult) -> None:
    # Each participant takes the lock, reads the counter on the home
    # PE, writes back +1, releases: a serialised increment per PE.
    home, word = op.target, op.slot
    cur = st.word(home, word) + len(op.parts)
    st.set_word(home, word, cur)
    out.atom_words[(home, word)] = cur


def execute_reference(
    w: Workload, payloads: Optional[Dict[int, np.ndarray]] = None
) -> ReferenceResult:
    """The expected final state of ``w`` (pure numpy, no simulator).
    ``payloads`` is the check's :func:`draw_payloads` table (drawn here
    when not given)."""
    if payloads is None:
        payloads = draw_payloads(w)
    out = ReferenceResult()
    st = _State(w)
    for rnd in w.rounds:
        kind = rnd[0].kind
        if kind in ("bcast", "reduce", "fcollect", "alltoall"):
            _apply_collective(st, w, rnd[0], out)
        elif kind == "lock_inc":
            _apply_lock_round(st, w, rnd[0], out)
        elif kind == "msg":
            _apply_msg_round(st, payloads, rnd, out)
        else:
            _apply_p2p_round(st, payloads, rnd, out)
    out.heaps = Heaps(st.mem)
    for key, arr in st.mem.items():
        arr.flags.writeable = False
        out.heaps.written[key] = (arr, st.written[key])
    return out
