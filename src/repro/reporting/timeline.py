"""Timeline analysis: link utilization and span breakdowns.

Attach a :class:`~repro.obs.spans.SpanTracer` to a job's simulator and
this module turns its op, verbs and link spans into per-category
breakdowns and a textual activity report — the poor man's Vampir for
the simulated cluster.  Used by tests to assert *where* time goes
(e.g. "the baseline stages through more copies than the proposed
design") and by users to understand a protocol's anatomy.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hardware.cluster import ClusterHardware
from repro.obs.spans import SpanTracer
from repro.reporting.format import format_table


#: Span-name prefixes grouped into protocol phases for breakdowns.
CATEGORIES = (
    ("rdma_write", "rdma"),
    ("rdma_read", "rdma"),
    ("ib_send", "rdma"),
    ("cudaMemcpy", "cuda-copy"),
    ("gdrP2P", "gdr-p2p"),
    ("ibWire", "wire"),
    ("hostMemcpy", "host-copy"),
    ("hcaHostDMA", "hca-dma"),
    ("shmem:", "software"),
)


def categorize(name: str) -> Optional[str]:
    for prefix, cat in CATEGORIES:
        if name.startswith(prefix):
            return cat
    return None


@dataclass
class EventCount:
    category: str
    events: int

    def row(self) -> List[str]:
        return [self.category, str(self.events)]


def event_breakdown(tracer: SpanTracer, strict: bool = True) -> List[EventCount]:
    """Count spans per protocol category.

    A link hold records one span per hop direction; only its first
    (``hop == 0``) counts, so a hold is one event however many
    directions it crosses.  A truncated tracer (spans dropped past its
    limit) undercounts every category; by default that raises so an
    analysis can never silently report partial numbers.  Pass
    ``strict=False`` to get the partial counts anyway (as
    :func:`breakdown_table` does, which flags the truncation in its
    rendering instead).
    """
    if strict and tracer.truncated:
        raise ValueError(
            f"trace is truncated ({tracer.dropped} spans dropped past its "
            "limit); breakdown would undercount — raise SpanTracer(limit=...) "
            "or pass strict=False for partial counts"
        )
    counts: Dict[str, int] = defaultdict(int)
    for span in tracer.spans:
        if span.args.get("hop", 0) > 0:
            continue
        cat = categorize(span.name)
        if cat:
            counts[cat] += 1
    return [EventCount(c, n) for c, n in sorted(counts.items(), key=lambda kv: -kv[1])]


def link_utilization(hw: ClusterHardware, elapsed: float) -> List[Tuple[str, int, int, float]]:
    """Per-direction ``(name, transfers, bytes, avg MB/s over the run)``
    from the links' own byte counters (no trace needed)."""
    rows = []

    def add(direction):
        if direction.transfers:
            mbps = direction.bytes_moved / elapsed / 1e6 if elapsed > 0 else 0.0
            rows.append((direction.name, direction.transfers, direction.bytes_moved, mbps))

    for node in hw.nodes:
        for link in node.pcie.gpu_links + node.pcie.hca_links:
            add(link.fwd)
            add(link.rev)
        add(node.pcie.qpi.fwd)
        add(node.pcie.qpi.rev)
        add(node.pcie.host_mem.fwd)
        for hca in node.hcas:
            add(hca.port.fwd)
            add(hca.port.rev)
    rows.sort(key=lambda r: -r[2])
    return rows


def utilization_table(hw: ClusterHardware, elapsed: float, top: int = 12) -> str:
    rows = [
        [name, str(n), f"{b:,}", f"{mbps:,.0f}"]
        for name, n, b, mbps in link_utilization(hw, elapsed)[:top]
    ]
    return format_table(
        ["link direction", "transfers", "bytes", "avg MB/s"],
        rows,
        title="Link utilization (busiest first)",
    )


def breakdown_table(tracer: SpanTracer) -> str:
    table = format_table(
        ["category", "events"],
        [e.row() for e in event_breakdown(tracer, strict=False)],
        title="Span breakdown",
    )
    if tracer.truncated:
        table += (
            f"\nWARNING: trace truncated — {tracer.dropped} spans dropped "
            "past the record limit; counts above are partial"
        )
    return table


def reliability_report(job) -> str:
    """Fault/reliability summary for a job run under a
    :class:`~repro.faults.FaultPlan`: the aggregate counters, the
    per-path health outcome, and the chronological fault timeline.
    Returns an empty string when no plan was attached (nothing to say).
    """
    if getattr(job, "faults", None) is None:
        return ""
    stats = job.sim.stats
    counters = format_table(
        ["counter", "value"],
        [
            ["flap windows", str(stats.flap_windows)],
            ["rc retries", str(stats.retries)],
            ["failovers", str(stats.failovers)],
            ["hca stalls", str(stats.hca_stalls)],
            ["degraded time (s)", f"{stats.degraded_time:.6g}"],
        ],
        title="Reliability counters",
    )
    health = format_table(
        ["path", "final state", "degraded (s)"],
        [
            [p["path"], p["state"], f"{p['degraded_time']:.6g}"]
            for p in job.runtime.health.snapshot()
        ],
        title="Path health",
    )
    rc = job.verbs.rc
    retries = format_table(
        ["path", "retries"],
        [[name, str(n)] for name, n in sorted(rc.retries_by_path.items())],
        title="RC retransmissions by path",
    )
    timeline = format_table(
        ["t (s)", "fault"],
        [[f"{t:.6f}", desc] for t, desc in job.faults.log],
        title="Fault timeline",
    )
    return "\n\n".join(part for part in (counters, health, retries, timeline) if part)
