"""Repository benchmark: end-to-end and per-layer performance.

    python3 perfbench/run.py --workload p2p --seed 1 --seconds 6 --trace 0
    python3 perfbench/run.py --workload apps --seed 1 --seconds 6 --trace 1
    python3 perfbench/run.py --workload all --seed 1 --seconds 6

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` runs every
unit twice, untraced then with the layer wrappers of ``tracing.py``
installed, checks that both produce the same outputs and engine
counters, and reports the per-layer metrics plus the tracing overhead.
The last line of stdout is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from refclock import RefClock, pinned  # noqa: E402
from stats import tail  # noqa: E402
import workloads  # noqa: E402

NAMES = tuple(workloads.WORKLOADS)
#: Start no pass beyond ``wl.min_passes`` after this much wall time, so a
#: throttled host still exits well inside the per-run limit.
HARD_CAP_S = 100.0


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def pass_count(wl, seconds: float) -> int:
    """Passes that take about ``seconds`` of normalised time on the
    reference host (at least ``wl.min_passes``).  The count depends only
    on ``seconds``, so two versions of the program are measured on the
    same requests."""
    return max(wl.min_passes, round(seconds / wl.pass_seconds))


def measure(wl, clock: RefClock, count: int, run_unit) -> tuple:
    """Run ``count`` whole passes; pass ``i`` runs on CPU ``i mod n``.
    Once ``wl.min_passes`` have run, no pass starts after ``HARD_CAP_S``
    of wall time.  Returns the records and the number of passes run."""
    records: list = []
    t_start = time.perf_counter()
    done = 0
    for units in itertools.islice(wl.passes(), count):
        with pinned(done):
            if hasattr(wl, "run_pass"):
                wl.run_pass(units, clock, records)
            else:
                for unit in units:
                    run_unit(unit, records)
        done += 1
        if done >= wl.min_passes and time.perf_counter() - t_start > HARD_CAP_S:
            break
    return records, done


def end_to_end(clock: RefClock, records: list, setup: list) -> tuple:
    lat = [clock.normalise(r.t0, r.t1) for r in records]
    raw = [(r.t1 - r.t0) * 1e3 for r in records]
    ok = sum(r.ok for r in records)
    q, tail_ms = tail(lat)
    metrics = {
        "latency_ms": {"value": median(lat), "unit": "ms"},
        "latency_tail_ms": {"value": tail_ms, "unit": "ms"},
        "throughput_per_s": {"value": ok / (sum(lat) / 1e3), "unit": "1/s"},
        "setup_s": {"value": median(setup), "unit": "s"},
    }
    diag = {
        "samples": len(lat),
        "tail_percentile": q,
        "raw_latency_ms": median(raw),
        "raw_latency_tail_ms": tail(raw)[1],
        "raw_throughput_per_s": ok / (sum(raw) / 1e3),
        "setup_starts": len(setup),
        **clock.summary(),
    }
    return metrics, diag


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    clock = RefClock()
    clock.sample(5)
    wl = workloads.WORKLOADS[name](seed)
    try:
        if trace:
            import tracing

            return tracing.run_traced(wl, clock, measure)
        wl.measure_setup(clock)
        warm_ok = wl.warm_up()
        count = pass_count(wl, seconds)
        records, done = measure(wl, clock, count,
                                lambda unit, out: wl.run_unit(unit, clock, out))
        clock.sample(3)
        metrics, diag = end_to_end(clock, records, wl.setup_s)
    finally:
        wl.close()
    failed = sum(not r.ok for r in records)
    diag.update(workload=name, passes=done, passes_planned=count)
    print(f"{name}: {len(records)} requests, {failed} failed; tail is p{diag['tail_percentile']:.1f}; "
          f"{wl.pins.summary()}")
    if done < count:
        print(f"  stopped after {done} of {count} passes: wall time passed {HARD_CAP_S:.0f} s")
    for key, m in metrics.items():
        print(f"  {key:18s} {m['value']:12.4f} {m['unit']}")
    print(f"  bench.ref_ms       {diag['ref_ms']:12.4f} ms "
          f"(p10 {diag['ref_p10_ms']:.3f}, p90 {diag['ref_p90_ms']:.3f}, "
          f"{diag['ref_samples']} samples)")
    print("diagnostics " + json.dumps(diag, sort_keys=True))
    return {
        "correct": warm_ok and failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": metrics,
    }


def run_all(args) -> dict:
    """Every workload in a fresh interpreter; one merged result."""
    import subprocess

    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        sys.stdout.write(proc.stdout.rsplit("\n", 2)[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise SystemExit(proc.returncode)
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        merged["correct"] &= res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, m in res["metrics"].items():
            merged["metrics"][f"{name}/{key}"] = m
    return merged


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=6.0,
                   help="run length: passes taking about this many normalised seconds")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (workloads.SRC / "repro").is_dir() or not (workloads.ROOT / "BENCH_PR1.json").is_file():
        return _fail(f"no repro sources under {workloads.ROOT}; run from a repository checkout")
    sys.path.insert(0, str(workloads.SRC))
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
