"""Invariant checkers over real executions of generated workloads.

``check_workload`` runs one workload through the three execution modes
under test — batched fast path, forced event-accurate path, and traced
event path — and applies every oracle.  A run whose fast tiers are
disarmed (:attr:`RunObservation.tiers_armed` false: a fault plan's
health tracker is attached) takes the event path for every op, so it
is its own event run: a faulted check makes the probe job, the fast
run and the traced run, and the fast run stands in for the event run
in oracles 2 and 3.

1. **heap-matches-reference** — final symmetric-heap bytes, fetched
   get results, atomic return values and two-sided recv envelopes
   equal the untimed reference executor's, in every mode.
2. **event/fast bit-identity** — exact float equality of end times,
   per-op probe samples, protocol counts and per-link byte counters
   between the fast-path and event-path runs (the property the
   fastpath goldens pin for two shapes, here checked per seed).
3. **traced/untraced bit-identity** — attaching the span tracer must
   not move a single timestamp or byte, and the traced run's engine
   counters (:class:`~repro.simulator.core.SimStats`) must equal the
   event run's exactly: observing a run never changes how it is
   scheduled.  The traced run is always a separate execution.
4. **span/hold parity** — one ``ib`` ``rdma_write`` span per
   ``rdma_write`` link hold (a ``link`` span with ``hop == 0``), up to
   the RC ledger, and no span left open at exit.
5. **link conservation** — per-link counters internally consistent
   with the :class:`~repro.obs.metrics.MetricsSnapshot` bandwidth
   figures, and HCA port bytes cover the workload's inter-node
   payload lower bound.
6. **atomic conservation** — final atoms-buffer words equal the
   reference sums exactly; under a fault plan this proves retries
   never double-applied an atomic or a payload.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.check.reference import ReferenceResult, draw_payloads, execute_reference
from repro.check.runner import RunObservation, measure_start, run_workload
from repro.check.workload import Workload

#: Snapshot sections that must be bit-identical across execution modes.
#: ``engine.*`` is excluded on purpose (fastpath_batches etc. *should*
#: differ between modes); ``spans.*`` exists only on traced runs.
_IDENTITY_SECTIONS = ("job", "link", "probe", "protocol", "msg", "health", "faults")


@dataclass(frozen=True)
class OracleViolation:
    oracle: str
    message: str

    def __str__(self) -> str:
        return f"[{self.oracle}] {self.message}"


@dataclass
class CheckReport:
    """Outcome of one workload through all oracles."""

    workload: Workload
    violations: List[OracleViolation] = field(default_factory=list)
    oracles_run: int = 0
    runs: Dict[str, RunObservation] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        w = self.workload
        head = (
            f"seed {w.seed} design={w.design} {w.nodes}x{w.pes_per_node}PE "
            f"ops={w.op_count()} faults={w.faults}: "
        )
        if self.passed:
            return head + f"OK ({self.oracles_run} oracles)"
        return head + f"{len(self.violations)} violation(s)\n" + "\n".join(
            f"  {v}" for v in self.violations
        )


def _fail(report: CheckReport, oracle: str, message: str) -> None:
    report.violations.append(OracleViolation(oracle, message))


def heaps_equal(
    a: Dict[Tuple[int, str], np.ndarray], b: Dict[Tuple[int, str], np.ndarray]
) -> bool:
    """True when ``a`` and ``b`` hold the same buffers with the same
    bytes: the same key set, then every byte of every buffer.  The one
    heap comparison every oracle (and test) uses.

    When both sides carry a write record for a key's very arrays
    (:class:`~repro.check.reference.Heaps`), every byte outside the
    union of the two records is zero on both sides, so only the union
    is compared, byte for byte; otherwise the whole buffer is."""
    return a.keys() == b.keys() and all(_same_buffer(a, b, k) for k in a)


def _record(heaps, key) -> Optional[list]:
    """The write record of ``heaps[key]``, if it has one for that array."""
    rec = getattr(heaps, "written", {}).get(key)
    return rec[1] if rec is not None and rec[0] is heaps[key] else None


def _same_buffer(a, b, key) -> bool:
    x, y = a[key], b[key]
    ra, rb = _record(a, key), _record(b, key)
    if ra is None or rb is None or x.shape != y.shape:
        return _same_bytes(x, y)
    union: List[List[int]] = []
    for lo, hi in sorted(ra + rb):
        if union and lo <= union[-1][1]:
            union[-1][1] = max(union[-1][1], hi)
        else:
            union.append([lo, hi])
    return all(_same_bytes(x[lo:hi], y[lo:hi]) for lo, hi in union)


def _same_bytes(x: np.ndarray, y: np.ndarray) -> bool:
    """Every byte of two uint8 buffers: 64-bit words, then the tail of
    fewer than 8 bytes.  Comparing words builds an eighth of the
    temporary a byte-wise ``np.array_equal`` would."""
    if x.shape != y.shape:
        return False
    cut = x.size - x.size % 8
    return np.array_equal(x[:cut].view(np.uint64), y[:cut].view(np.uint64)) and (
        np.array_equal(x[cut:], y[cut:])
    )


# ------------------------------------------------------------- oracle 1/6
def oracle_heap_matches_reference(
    report: CheckReport, ref: ReferenceResult, obs: RunObservation
) -> bool:
    """Returns whether ``obs``'s heaps equal the reference's byte for
    byte (:func:`check_workload` feeds it to the bit-identity oracle)."""
    matched = heaps_equal(obs.heaps, ref.heaps)
    if not matched:
        for (pe, name), expected in sorted(ref.heaps.items()):
            actual = obs.heaps.get((pe, name))
            if actual is None:
                _fail(report, "heap", f"{obs.mode}: no read-back for pe{pe}/{name}")
                continue
            bad = np.flatnonzero(actual != expected)
            if len(bad):
                _fail(
                    report, "heap",
                    f"{obs.mode}: pe{pe}/{name} diverges at {len(bad)} byte(s), "
                    f"first at offset {int(bad[0])} (got 0x{int(actual[bad[0]]):02x}, "
                    f"want 0x{int(expected[bad[0]]):02x})",
                )
    for uid, expected in sorted(ref.gets.items()):
        actual = obs.gets.get(uid)
        if actual != expected:
            got = "missing" if actual is None else f"{len(actual)} bytes, wrong content"
            _fail(report, "heap", f"{obs.mode}: get op #{uid} fetched {got}")
    for uid, expected in sorted(ref.atomics.items()):
        actual = obs.atomics.get(uid)
        if actual != expected:
            _fail(
                report, "heap",
                f"{obs.mode}: atomic op #{uid} returned {actual}, want {expected}",
            )
    for uid, expected in sorted(ref.msgs.items()):
        actual = obs.msgs.get(uid)
        if actual != expected:
            _fail(
                report, "heap",
                f"{obs.mode}: recv op #{uid} matched envelope {actual}, "
                f"want {expected} (source, tag)",
            )
    return matched


def oracle_atomic_conservation(
    report: CheckReport, ref: ReferenceResult, obs: RunObservation
) -> None:
    """Exact atoms-word equality, word by word (clearer diagnostics
    than the byte-level heap diff when a retry double-applies)."""
    w = report.workload
    for (pe, word), expected in sorted(ref.atom_words.items()):
        raw = obs.heaps.get((pe, "atoms"))
        if raw is None:
            continue  # the heap oracle already reported it
        actual = int(np.frombuffer(raw, dtype=np.uint64)[word])
        if actual != expected & (2**64 - 1):
            _fail(
                report, "atomic-conservation",
                f"{obs.mode}: atoms word {word} on pe{pe} is {actual}, "
                f"want {expected & (2**64 - 1)}"
                + (" (double-applied retry?)" if w.faults else ""),
            )


# ------------------------------------------------------------- oracle 2/3
def oracle_bit_identity(
    report: CheckReport,
    a: RunObservation,
    b: RunObservation,
    oracle: str,
    *,
    both_match_reference: bool = False,
) -> None:
    """``both_match_reference``: both runs' heaps already equal the
    reference byte for byte, so they equal each other and the
    cross-mode heap comparison is skipped.  Pass it only then."""
    if a.elapsed != b.elapsed:
        _fail(
            report, oracle,
            f"elapsed diverges: {a.mode}={a.elapsed!r} vs {b.mode}={b.elapsed!r}",
        )
    if a.start_time != b.start_time:
        _fail(
            report, oracle,
            f"start_time diverges: {a.start_time!r} vs {b.start_time!r}",
        )
    if a.protocol_counts != b.protocol_counts:
        _fail(
            report, oracle,
            f"protocol counts diverge: {a.protocol_counts} vs {b.protocol_counts}",
        )
    if a.probe_series != b.probe_series:
        keys = sorted(set(a.probe_series) ^ set(b.probe_series))
        if keys:
            _fail(report, oracle, f"probe series present in only one mode: {keys}")
        else:
            diff = [
                k for k in a.probe_series if a.probe_series[k] != b.probe_series[k]
            ]
            _fail(report, oracle, f"probe samples diverge (not bit-identical): {diff}")
    for section in _IDENTITY_SECTIONS:
        sa, sb = a.snapshot_section(section), b.snapshot_section(section)
        if sa != sb:
            keys = [k for k in set(sa) | set(sb) if sa.get(k) != sb.get(k)]
            _fail(
                report, oracle,
                f"snapshot section {section!r} diverges at {sorted(keys)[:6]}",
            )
    if a.msgs != b.msgs:
        diff = sorted(uid for uid in set(a.msgs) | set(b.msgs) if a.msgs.get(uid) != b.msgs.get(uid))
        _fail(report, oracle, f"recv envelopes diverge between modes: ops {diff[:6]}")
    if not both_match_reference and not heaps_equal(a.heaps, b.heaps):
        cells = [
            f"pe{pe}/{name}" for (pe, name), data in a.heaps.items()
            if (pe, name) not in b.heaps or not np.array_equal(data, b.heaps[pe, name])
        ]
        _fail(report, oracle, f"final heap bytes diverge between modes: {cells[:6]}")


# --------------------------------------------------------------- oracle 4
def oracle_span_hold_parity(report: CheckReport, traced: RunObservation) -> None:
    # One ``rdma_write`` call opens one ``ib`` span; each wire crossing
    # is one link hold.  Under faults the RC transport keeps the exact
    # ledger of where those diverge: a retransmission after an
    # in-flight loss re-holds the wire inside the same span
    # (``rc_retx_holds`` extra holds), while a WR whose every attempt
    # died at acquire time never held it (``rc_aborted_wrs`` spans with
    # no hold).  Anything outside that ledger is an accounting bug.
    retx = traced.stats.get("rc_retx_holds", 0)
    aborted = traced.stats.get("rc_aborted_wrs", 0)
    expected_holds = traced.span_rdma_writes - aborted + retx
    if expected_holds != traced.rdma_write_holds:
        _fail(
            report, "span-parity",
            f"{traced.span_rdma_writes} rdma_write spans vs "
            f"{traced.rdma_write_holds} rdma_write link holds "
            f"(RC ledger: {retx} retransmitted holds, "
            f"{aborted} zero-hold aborts -> expected {expected_holds})",
        )
    if traced.open_spans:
        _fail(report, "span-parity", f"{traced.open_spans} span(s) left open at exit")


# --------------------------------------------------------------- oracle 5
def oracle_link_conservation(report: CheckReport, obs: RunObservation) -> None:
    elapsed = obs.snapshot.get("job.elapsed")
    links = {}
    for key, value in obs.snapshot.items():
        if key.startswith("link."):
            name, stat = key[5:].rsplit(".", 1)
            links.setdefault(name, {})[stat] = value
    for name, stats in sorted(links.items()):
        nbytes, transfers = stats.get("bytes", 0), stats.get("transfers", 0)
        if nbytes < 0 or transfers <= 0:
            _fail(
                report, "link-conservation",
                f"{obs.mode}: link {name} has bytes={nbytes} transfers={transfers}",
            )
        want = nbytes / elapsed / 1e6 if elapsed > 0 else 0.0
        if stats.get("avg_mbps") != want:
            _fail(
                report, "link-conservation",
                f"{obs.mode}: link {name} avg_mbps inconsistent with bytes/elapsed",
            )
    bound = report.workload.internode_payload_bytes()
    if bound:
        port_bytes = sum(
            stats.get("bytes", 0) for name, stats in links.items() if ".port:" in name
        )
        if port_bytes < bound:
            _fail(
                report, "link-conservation",
                f"{obs.mode}: HCA ports moved {port_bytes} B < inter-node "
                f"payload lower bound {bound} B",
            )


# ------------------------------------------------------------------ entry
def check_workload(
    w: Workload,
    *,
    corrupt_uid: Optional[int] = None,
    modes: bool = True,
) -> CheckReport:
    """Run every oracle over ``w``; ``corrupt_uid`` threads the
    deliberate-divergence hook through to the runner (harness
    self-test).  ``modes=False`` runs only the fast-path run and the
    reference comparison (the shrinker uses it to keep minimisation
    cheap when the failure is mode-independent)."""
    report = CheckReport(workload=w)
    payloads = draw_payloads(w)
    ref = execute_reference(w, payloads)
    start = None

    def attempt(mode: str, **kw) -> Optional[RunObservation]:
        # A run that dies mid-workload (truncation, retry exhaustion,
        # a runtime assertion) is a first-class finding — record it as
        # a violation so the sweep and the shrinker treat it like any
        # other failure instead of crashing the harness.
        nonlocal start
        try:
            if w.faults and start is None:
                # The probe job is deterministic per workload: one
                # fault-plan start serves every mode.
                start = measure_start(w)
            return run_workload(w, corrupt_uid=corrupt_uid, start=start,
                                payloads=payloads, **kw)
        except Exception as exc:
            _fail(report, "run", f"{mode}: {type(exc).__name__}: {exc}")
            return None

    base = attempt("fast")
    if base is not None:
        report.runs["fast"] = base
        base_matched = oracle_heap_matches_reference(report, ref, base)
        oracle_atomic_conservation(report, ref, base)
        oracle_link_conservation(report, base)
    report.oracles_run += 3
    if modes:
        # A fast run whose tiers were disarmed (a fault plan's health
        # tracker) took the event path for every op: it is its own event
        # run, so fast-vs-event holds by construction and the traced run
        # is compared with it.  A fast run that raised proves nothing.
        own_event = base is not None and not base.tiers_armed
        event = base if own_event else attempt("event", fastpath=False)
        traced = attempt("traced", trace=True)
        if event is not None and not own_event:
            report.runs["event"] = event
            matched = oracle_heap_matches_reference(report, ref, event)
            oracle_atomic_conservation(report, ref, event)
            if base is not None:
                oracle_bit_identity(report, base, event, "fast-vs-event",
                                    both_match_reference=base_matched and matched)
        if traced is not None:
            report.runs["traced"] = traced
            matched = oracle_heap_matches_reference(report, ref, traced)
            if base is not None:
                oracle_bit_identity(report, base, traced, "traced-vs-untraced",
                                    both_match_reference=base_matched and matched)
            if event is not None and event.stats != traced.stats:
                keys = [k for k in event.stats if event.stats[k] != traced.stats.get(k)]
                _fail(
                    report, "traced-vs-untraced",
                    f"SimStats diverge between event and traced runs at {sorted(keys)[:6]}",
                )
            oracle_span_hold_parity(report, traced)
        report.oracles_run += 6
    return report
