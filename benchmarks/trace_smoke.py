#!/usr/bin/env python
"""Trace smoke: the Fig 8 inter-node D-D sweep under the span tracer.

Usage:
    PYTHONPATH=src python benchmarks/trace_smoke.py [--output trace_fig8.json]

Four checks, any failure exits non-zero:

1. **Bit-identical timestamps** — the traced run's virtual end time
   equals the untraced run's exactly (spans only read ``sim.now``).
2. **Fast-path gating** — the untraced run commits its single-RDMA
   puts through tier 2 (``analytic_flows > 0``: each posted without an
   issue wake-up); the traced run takes the per-op path
   (``analytic_flows == 0``), so every op emits its spans.
3. **Span/hold agreement** — the tracer's ``ib`` ``rdma_write`` span
   count equals its ``rdma_write`` link-hold count (``link`` spans
   with ``hop == 0``): one span per work request, one timed hold per
   work request.
4. **Export schema** — the Chrome trace JSON round-trips through
   ``json`` and passes :func:`repro.obs.validate_chrome_trace`; CI
   archives it as an artifact.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

import repro.bench.latency as lat  # noqa: E402
from repro.obs import SpanTracer, snapshot_job, write_chrome_trace  # noqa: E402
from repro.obs import validate_chrome_trace  # noqa: E402
from repro.shmem import Domain, ShmemJob  # noqa: E402
from repro.units import KiB, MiB  # noqa: E402

SIZES = [16 * KiB << i for i in range(9)]  # 16 KiB .. 4 MiB (Fig 8)


def _job() -> ShmemJob:
    return ShmemJob(
        nodes=2, pes_per_node=1, design="enhanced-gdr",
        host_heap_size=32 * MiB, gpu_heap_size=32 * MiB,
    )


def _program():
    return lat._sweep_program("put", SIZES, Domain.GPU, Domain.GPU, "far")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--output", default="trace_fig8.json")
    args = ap.parse_args(argv)
    failures = []

    # Reference: untraced, fast paths armed.
    ref = _job()
    ref.run(_program())
    ref_end = ref.sim.now
    ref_flows = ref.sim.stats.analytic_flows
    if ref_flows <= 0:
        failures.append(f"untraced run made no tier-2 commits ({ref_flows})")

    # Span-traced run.
    job = _job()
    tracer = SpanTracer().attach(job.sim, label="fig8 internode D-D put")
    job.run(_program())
    if job.sim.now != ref_end:
        failures.append(
            f"span-traced end time diverged: {job.sim.now!r} != {ref_end!r}"
        )
    if job.sim.stats.analytic_flows != 0:
        failures.append(
            f"span-traced run still made {job.sim.stats.analytic_flows} tier-2 commits"
        )
    # The verbs layer opens one "ib" span per work request; the link
    # layer reuses the spec label for its crossings, one span per hop
    # direction, so a hold is its ``hop == 0`` span.
    writes = tracer.by_name("rdma_write")
    span_writes = sum(1 for s in writes if s.cat == "ib")
    holds = sum(1 for s in writes if s.cat == "link" and s.args["hop"] == 0)
    if span_writes != holds:
        failures.append(f"rdma_write span count {span_writes} != hold count {holds}")
    if tracer.open_spans():
        failures.append(f"{len(tracer.open_spans())} spans never closed")
    if tracer.truncated:
        failures.append(f"tracer truncated ({tracer.dropped} dropped)")

    # Export + validate + archive.
    path = write_chrome_trace(tracer, args.output)
    doc = json.loads(path.read_text())
    problems = validate_chrome_trace(doc)
    failures.extend(f"schema: {p}" for p in problems)

    snap = snapshot_job(job)
    print(
        f"untraced: end={ref_end:.9f}s flows={ref_flows}\n"
        f"traced:   end={job.sim.now:.9f}s flows=0 "
        f"spans={len(tracer.spans)} instants={len(tracer.instants)}\n"
        f"rdma_write spans={span_writes} holds={holds}\n"
        f"metrics keys={len(snap)} "
        f"p99(put:pipeline-gdr-write)={snap.get('probe.put:pipeline-gdr-write.p99')}\n"
        f"artifact: {path} ({len(doc['traceEvents'])} trace events)"
    )
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
