#!/usr/bin/env python
"""Regenerate every paper artifact through the cached parallel runner.

Usage:
    PYTHONPATH=src python benchmarks/run_all.py [--smoke] [--jobs N]
        [--verbose] [--output BENCH_PR1.json] [--no-tier1] [--fresh]
        [--faults off]

``--faults off`` additionally runs the reliability-subsystem zero-cost
probe: the Fig 8 D-D put sweep with *no* fault plan attached must hit
the golden simulated end time exactly (bit-identical to the pre-faults
tree), and its wall-clock must be within 1% of the same sweep with the
RC dispatch wrapper bypassed (interleaved min-of-N).  The result lands
in the report under ``faults_off_baseline`` (written to BENCH_PR2.json
by default in this mode).

The sweep runs each experiment in :mod:`repro.reporting.experiments`
(in parallel across a process pool, memoized under
``benchmarks/.bench_cache/`` keyed by a source-tree fingerprint) and
writes a JSON report with per-target wall-times and engine event
counters — ``fastpath_batches > 0`` is the proof that the tier-0
staged-host batch carried the sweep's staged-host curves.  Unless ``--no-tier1`` is given
(or ``--smoke``, which implies it), it also records the measured wall
time of the tier-1 pytest suite.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO / "src"))

from repro.bench.runner import SweepRunner  # noqa: E402
from repro.reporting.artifacts import write_json_artifact  # noqa: E402
from repro.reporting.experiments import EXPERIMENTS  # noqa: E402

#: A fast, representative subset for CI smoke runs.  The four-way
#: targets keep the three existing designs in the same comparison as
#: device-initiated, so a regression in any of them shows up in the
#: perf-smoke baseline.
SMOKE_TARGETS = [
    "table2", "fig6b", "fig8b", "fig8d", "fig9b", "fig10",
    "fig6a4", "fig8a4", "fig8b4", "xover1", "xover2",
]

#: Default eager/rendezvous thresholds swept by ``--crossover``.
CROSSOVER_THRESHOLDS = "0,2048,8192,32768,262144"
#: Default transports compared by the message-rate half of the study.
CROSSOVER_TRANSPORTS = "rc,ud"


#: Golden Fig 8 enhanced-gdr D-D put end time (tests/test_fastpath.py).
FIG8_PUT_GOLDEN = 0.0038866478717841137


def faults_off_baseline(repeats: int = 7) -> dict:
    """Prove the reliability subsystem costs nothing when unused.

    Runs the Fig 8 D-D put sweep ``repeats`` times stock and ``repeats``
    times with ``Verbs._execute`` monkeypatched back to the pre-faults
    direct ``spec.execute`` call, interleaved so thermal/cache drift
    hits both sides equally.  Simulated time must equal the golden
    constant in *both* configurations (zero simulated-time overhead);
    wall-clock overhead is min-of-N stock over min-of-N bypassed.
    """
    import repro.bench.latency as lat
    from repro.shmem import Domain, ShmemJob
    from repro.units import KiB, MiB

    sizes = [16 * KiB << i for i in range(9)]

    def run(bypass_rc_dispatch: bool):
        job = ShmemJob(
            nodes=2, pes_per_node=1, design="enhanced-gdr",
            host_heap_size=32 * MiB, gpu_heap_size=32 * MiB,
        )
        if bypass_rc_dispatch:
            job.verbs._execute = lambda spec, hca=None: spec.execute(job.sim)
        program = lat._sweep_program("put", sizes, Domain.GPU, Domain.GPU, "far")
        t0 = time.perf_counter()
        job.run(program)
        return job.sim.now, time.perf_counter() - t0

    stock, bypassed = [], []
    for _ in range(repeats):
        now, wall = run(False)
        assert now == FIG8_PUT_GOLDEN, f"simulated time drifted: {now!r}"
        stock.append(wall)
        now, wall = run(True)
        assert now == FIG8_PUT_GOLDEN, f"bypassed run drifted: {now!r}"
        bypassed.append(wall)
    overhead = min(stock) / min(bypassed) - 1.0
    return {
        "sweep": "fig8 enhanced-gdr put D-D far (9 sizes, 16 KiB..4 MiB)",
        "repeats": repeats,
        "simulated_end_time": FIG8_PUT_GOLDEN,
        "simulated_time_overhead": 0.0,  # exact float equality asserted above
        "stock_wall_min_seconds": min(stock),
        "bypassed_wall_min_seconds": min(bypassed),
        "wall_overhead_fraction": overhead,
        "within_one_percent": overhead < 0.01,
    }


def run_via_service(targets, quick, url, verbose=False):
    """Drive the sweep through a running ``repro serve`` instance.

    Submits one sweep job per target in a single batch, waits for all
    of them, and rebuilds the usual :class:`SweepReport` from the
    service's result records — which are produced by the *same* worker
    (``repro.bench.runner._run_one``) and cached under the *same* disk
    key, so ``output_sha256`` is bit-identical to a local run.
    """
    from repro.bench.runner import SweepReport, TargetResult, code_fingerprint
    from repro.serve.client import JobFailed, ServeClient

    report = SweepReport(fingerprint=code_fingerprint(), quick=quick, jobs=0)
    with ServeClient(url, timeout=120.0) as client:
        specs = [{"kind": "sweep", "experiment": t, "quick": quick} for t in targets]
        acks = client.submit_batch(specs)
        for target, ack in zip(targets, acks):
            try:
                detail = client.wait(ack["id"], raise_on_failure=True)
                rec = detail["result"]
                cached = bool(
                    ack.get("dedup") == "cached"
                    or detail.get("cached")
                    or rec.get("cached")
                )
                err = rec.get("error")
            except JobFailed as exc:
                detail = exc.detail
                rec, cached = {}, False
                err = detail.get("error") or detail.get("state")
            report.targets.append(TargetResult(
                exp_id=target,
                wall_seconds=rec.get("wall_seconds", 0.0),
                output_sha256=rec.get("output_sha256", ""),
                sim_stats=rec.get("sim_stats", {}),
                cached=cached,
                error=err,
                metrics=rec.get("metrics", {}),
            ))
            if verbose:
                flag = f"ERROR {err}" if err else (
                    "cache hit" if cached else f"{rec.get('wall_seconds', 0.0):.2f}s"
                )
                print(f"  serve      {target} ({flag})")
    return report


def crossover_study(thresholds_csv: str, transports_csv: str, out_path, quick: bool) -> dict:
    """Run the eager/rendezvous + RC/UD crossover study and archive it.

    The protocol tunables arrive as CSV strings straight from the CLI
    so the bench runner can sweep them (``--msg-thresholds 0,4096,...``
    ``--msg-transports rc,ud``).  The curves land in a standalone JSON
    artifact (default ``benchmarks/results/crossover_curves.json``) and
    a summary is folded into the main report.
    """
    from repro.bench.crossover import crossover_report
    from repro.reporting.experiments import (
        XOVER_LATENCY_QUICK, XOVER_LATENCY_SIZES,
        XOVER_RATE_QUICK, XOVER_RATE_SIZES,
    )

    thresholds = [int(t) for t in thresholds_csv.split(",") if t != ""]
    transports = [t.strip() for t in transports_csv.split(",") if t.strip()]
    doc = crossover_report(
        thresholds=thresholds,
        transports=transports,
        latency_sizes=XOVER_LATENCY_QUICK if quick else XOVER_LATENCY_SIZES,
        rate_sizes=XOVER_RATE_QUICK if quick else XOVER_RATE_SIZES,
    )
    write_json_artifact(str(out_path), doc)
    doc["artifact"] = str(out_path)
    return doc


def time_tier1() -> float:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "tests"],
        cwd=REPO,
        env={**dict(__import__("os").environ), "PYTHONPATH": "src"},
        capture_output=True,
        text=True,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit("tier-1 suite failed; not recording a benchmark report")
    return wall


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--smoke", action="store_true",
                    help="quick sweeps over a representative target subset")
    ap.add_argument("--jobs", type=int, default=0,
                    help="process-pool size (default: CPU count)")
    ap.add_argument("--verbose", action="store_true",
                    help="report cache hits/misses and pool size per target")
    ap.add_argument("--output", default=None,
                    help="where to write the JSON report "
                         "(default: BENCH_PR1.json, or BENCH_PR2.json with --faults)")
    ap.add_argument("--no-tier1", action="store_true",
                    help="skip timing the tier-1 pytest suite")
    ap.add_argument("--fresh", action="store_true",
                    help="drop the on-disk cache before running")
    ap.add_argument("--faults", choices=["off"], default=None,
                    help="'off': also run the no-fault-plan zero-overhead probe")
    ap.add_argument("--serve", metavar="URL", default=None,
                    help="run the sweep through a 'repro serve' service at URL "
                         "instead of an in-process pool (bit-identical records)")
    ap.add_argument("--crossover", action="store_true",
                    help="also run the eager/rendezvous + RC/UD crossover "
                         "study (implied by --smoke, quick sizes there)")
    ap.add_argument("--msg-thresholds", default=CROSSOVER_THRESHOLDS,
                    help="CSV of msg_eager_threshold values the crossover "
                         f"study sweeps (default: {CROSSOVER_THRESHOLDS})")
    ap.add_argument("--msg-transports", default=CROSSOVER_TRANSPORTS,
                    help="CSV of transports for the message-rate curves "
                         f"(default: {CROSSOVER_TRANSPORTS})")
    ap.add_argument("--crossover-out",
                    default=str(REPO / "benchmarks" / "results" / "crossover_curves.json"),
                    help="where the crossover curves artifact is written")
    args = ap.parse_args(argv)
    if args.output is None:
        args.output = str(REPO / ("BENCH_PR2.json" if args.faults else "BENCH_PR1.json"))

    cache_dir = REPO / "benchmarks" / ".bench_cache"
    if args.fresh and cache_dir.exists():
        shutil.rmtree(cache_dir)

    targets = SMOKE_TARGETS if args.smoke else list(EXPERIMENTS)
    t0 = time.perf_counter()
    if args.serve:
        report = run_via_service(
            targets, quick=args.smoke, url=args.serve, verbose=args.verbose
        )
    else:
        runner = SweepRunner(cache_dir, jobs=args.jobs, quick=args.smoke)
        report = runner.run(targets, verbose=args.verbose)
    sweep_wall = time.perf_counter() - t0

    doc = report.as_dict()
    doc["sweep_wall_seconds"] = sweep_wall
    if args.serve:
        doc["serve"] = {"url": args.serve}
    totals = doc["engine_totals"]

    if args.faults == "off":
        doc["faults_off_baseline"] = faults_off_baseline()

    if args.crossover or args.smoke:
        doc["crossover"] = crossover_study(
            args.msg_thresholds, args.msg_transports,
            args.crossover_out, quick=args.smoke,
        )

    if not (args.no_tier1 or args.smoke):
        tier1 = time_tier1()
        doc["tier1"] = {"wall_seconds": tier1}

    write_json_artifact(args.output, doc)

    failed = [t.exp_id for t in report.targets if t.error]
    print(
        f"{len(report.targets)} targets in {sweep_wall:.1f}s wall "
        f"({report.cache_hits} cached, {report.cache_misses} run, "
        f"pool={report.jobs}); engine: {totals.get('processed', 0)} events, "
        f"{totals.get('fastpath_batches', 0)} tier-0 batches"
    )
    if "crossover" in doc:
        xo = doc["crossover"]
        er, rate = xo["eager_rendezvous"], xo["rc_ud_rate"]
        gaps = rate.get("ud_over_rc") or []
        print(
            f"crossover: eager/rendezvous at {er['crossover_bytes']} B "
            f"(default threshold {er['default_threshold']} B); "
            f"UD/RC message-rate ratio "
            f"{max(gaps):.2f}x small -> {min(gaps):.2f}x large; "
            f"curves: {xo['artifact']}"
        )
    if "faults_off_baseline" in doc:
        fb = doc["faults_off_baseline"]
        print(
            f"faults-off probe: simulated time golden-exact, wall overhead "
            f"{fb['wall_overhead_fraction'] * 100:+.2f}% "
            f"({'within' if fb['within_one_percent'] else 'OVER'} the 1% budget)"
        )
    if "tier1" in doc:
        print(f"tier-1: {doc['tier1']['wall_seconds']:.1f}s wall")
    print(f"report: {args.output}")
    if failed:
        print(f"FAILED targets: {failed}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
