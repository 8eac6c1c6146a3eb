#!/usr/bin/env python
"""CI gate over a smoke-sweep report: analytic tiers fired, no extra work.

Usage:
    PYTHONPATH=src python benchmarks/run_all.py --smoke --fresh \
        --output BENCH_smoke.json
    PYTHONPATH=src python benchmarks/perf_smoke.py BENCH_smoke.json
    PYTHONPATH=src python benchmarks/perf_smoke.py BENCH_smoke.json \
        --update-baseline   # re-record the archived per-target counts

Two checks:

1. **Tier liveness** — the analytic engine must have carried real work
   in the quick sweep: ``fastpath_batches + analytic_flows > 0`` in
   the report's engine totals.  A
   refactor that silently widens an eligibility gate until nothing
   commits analytically turns every sweep into a pure per-op generator
   run; wall time regresses quietly and bit-identity tests can't see
   it.  This check can.  (``contended_windows`` is no proof: it counts
   every queued link hold, in every mode.)

2. **Scheduler-work guard** — per target, ``sim_stats.processed`` and
   ``sim_stats.scheduled`` must not exceed the archived baseline in
   ``benchmarks/results/perf_smoke_baseline.json``.  Event counts are
   deterministic — the same source gives the same counts on any host —
   so unlike a wall budget this guard fails wherever it runs.  Any
   increase fails, and so does a target the baseline lacks; a change
   that adds scheduler work on purpose re-records the baseline with
   ``--update-baseline`` and says why.

Total target wall is printed as a diagnostic only.
"""

from __future__ import annotations

import argparse
import platform
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.reporting.artifacts import (  # noqa: E402
    artifact_doc,
    read_json_artifact,
    write_json_artifact,
)

BASELINE = REPO / "benchmarks" / "results" / "perf_smoke_baseline.json"

#: These SimStats counters prove the analytic tiers committed work.
TIER_COUNTERS = ("fastpath_batches", "analytic_flows")

#: Per-target SimStats counters that may never grow over the baseline.
WORK_COUNTERS = ("processed", "scheduled")


def target_counts(doc: dict) -> dict:
    """``{exp_id: {counter: value}}`` for every target in a sweep report."""
    return {
        rec["exp_id"]: {k: rec["sim_stats"][k] for k in WORK_COUNTERS}
        for rec in doc.get("targets", [])
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report", help="sweep JSON from run_all.py --smoke")
    ap.add_argument("--update-baseline", action="store_true",
                    help="re-record the archived per-target counts from this report")
    args = ap.parse_args(argv)

    doc = read_json_artifact(args.report)
    totals = doc.get("engine_totals", {})
    wall = doc.get("total_target_wall_seconds", 0.0)
    counts = target_counts(doc)

    fired = {k: totals.get(k, 0) for k in TIER_COUNTERS}
    print("tier counters:", fired)
    if sum(fired.values()) <= 0:
        print("FAIL: no analytic tier committed any work "
              f"({' + '.join(TIER_COUNTERS)} == 0)", file=sys.stderr)
        return 1

    if args.update_baseline:
        write_json_artifact(BASELINE, artifact_doc("perf_baseline", {
            "targets": counts,
            "total_target_wall_seconds": wall,
            "host": platform.platform(),
            "python": platform.python_version(),
        }, version=2))
        print(f"baseline updated: {len(counts)} targets -> {BASELINE}")
        return 0

    base = read_json_artifact(BASELINE, kind="perf_baseline")
    print(f"wall {wall:.3f}s on {platform.platform()} (diagnostic, not gated; "
          f"baseline {base.get('total_target_wall_seconds', 0.0):.3f}s on "
          f"{base.get('host', '?')})")
    if "targets" not in base:
        print(f"FAIL: {BASELINE} has no per-target counts; "
              "re-record it with --update-baseline", file=sys.stderr)
        return 1
    failures = []
    for exp_id, got in sorted(counts.items()):
        want = base["targets"].get(exp_id)
        if want is None:
            failures.append(f"{exp_id}: not in the baseline")
            continue
        for k in WORK_COUNTERS:
            if got[k] > want[k]:
                failures.append(f"{exp_id}: {k} {got[k]} > baseline {want[k]}")
            elif got[k] < want[k]:
                print(f"note: {exp_id}: {k} {got[k]} < baseline {want[k]} "
                      "(re-record to lock the saving in)")
    if failures:
        for line in failures:
            print(f"FAIL: {line}", file=sys.stderr)
        return 1
    print(f"ok: {len(counts)} targets within their baseline "
          f"{'/'.join(WORK_COUNTERS)} counts")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
