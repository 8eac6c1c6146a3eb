"""``python -m repro serve`` / ``repro submit`` — service CLIs.

``serve`` hosts the job service in the foreground until SIGINT/SIGTERM
(announcing its URL on stdout so wrappers can parse it); ``submit`` is
the generic thin client: build specs from the command line, submit
them, optionally wait for and/or stream one job's telemetry.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from pathlib import Path
from typing import List, Optional


def build_serve_parser(p: Optional[argparse.ArgumentParser] = None) -> argparse.ArgumentParser:
    p = p or argparse.ArgumentParser(prog="repro serve")
    p.add_argument("--host", default="127.0.0.1", help="bind address (default loopback)")
    p.add_argument("--port", type=int, default=8787,
                   help="TCP port (0 = ephemeral, announced on stdout)")
    p.add_argument("--workers", type=int, default=2,
                   help="concurrent executing jobs (default 2)")
    p.add_argument("--sim-procs", type=int, default=0,
                   help="process-pool size for sweep/check execution (0 = cpu count - 1)")
    p.add_argument("--cache-dir", default=None,
                   help="sweep disk cache (default benchmarks/.bench_cache)")
    p.add_argument("--timeout", type=float, default=900.0,
                   help="default per-job timeout in seconds")
    p.add_argument("--retry-limit", type=int, default=2,
                   help="bounded retries for fault-flagged jobs")
    p.add_argument("--max-queue", type=int, default=200_000,
                   help="admission control: max queued jobs")
    p.add_argument("--journal-dir", default=None,
                   help="write-ahead job journal directory (enables crash "
                        "recovery; omit to run without durability)")
    p.add_argument("--compact-every", type=int, default=2048,
                   help="journal records between snapshot compactions")
    p.add_argument("--journal-fsync", action="store_true",
                   help="fsync every journal append (stronger durability, slower)")
    p.add_argument("--drain-grace", type=float, default=10.0,
                   help="SIGTERM drain: seconds to let running jobs finish "
                        "before parking them in the journal")
    return p


def serve_main(args) -> int:
    from repro.serve.scheduler import SchedulerConfig
    from repro.serve.server import run_service

    config = SchedulerConfig(
        workers=args.workers,
        sim_processes=args.sim_procs,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        default_timeout=args.timeout,
        retry_limit=args.retry_limit,
        max_queue=args.max_queue,
        journal_dir=Path(args.journal_dir) if args.journal_dir else None,
        journal_compact_every=args.compact_every,
        journal_fsync=bool(getattr(args, "journal_fsync", False)),
        drain_grace=args.drain_grace,
    )

    async def main() -> dict:
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        drain = asyncio.Event()
        # SIGINT stops hard (journal parks queued work on close);
        # SIGTERM drains gracefully — stop admitting, let running jobs
        # finish inside the grace window, park the rest, compact.
        try:
            loop.add_signal_handler(signal.SIGINT, stop.set)
            loop.add_signal_handler(signal.SIGTERM, drain.set)
        except NotImplementedError:  # pragma: no cover - non-posix
            pass
        return await run_service(
            config,
            host=args.host,
            port=args.port,
            announce=lambda line: print(line, flush=True),
            stop_event=stop,
            drain_event=drain,
        )

    stats = asyncio.run(main())
    counters = stats["counters"]
    line = (
        f"repro-serve stopped: {counters['submitted']} submitted "
        f"({counters['unique']} unique, {counters['coalesced']} coalesced, "
        f"{counters['cached_memo'] + counters['cached_disk']} cache hits), "
        f"{counters['done']} done, {counters['failed']} failed, "
        f"{counters['cancelled']} cancelled"
    )
    if counters.get("recovered") or counters.get("parked"):
        line += (
            f", {counters.get('recovered', 0)} recovered "
            f"({counters.get('resumed', 0)} resumed), "
            f"{counters.get('parked', 0)} parked"
        )
    print(line, flush=True)
    return 0


def build_submit_parser(p: Optional[argparse.ArgumentParser] = None) -> argparse.ArgumentParser:
    p = p or argparse.ArgumentParser(prog="repro submit")
    p.add_argument("kind", choices=["sweep", "check", "trace", "synthetic"],
                   help="job kind to submit")
    p.add_argument("targets", nargs="*",
                   help="experiment ids (sweep/trace) or seeds (check)")
    p.add_argument("--url", default="http://127.0.0.1:8787", help="service URL")
    p.add_argument("--quick", action="store_true", help="trimmed sweeps")
    p.add_argument("--ops", type=int, default=14, help="check: ops per workload")
    p.add_argument("--faults", action="store_true",
                   help="check: arm the seeded fault plan (enables bounded retry)")
    p.add_argument("--priority", type=int, default=None, help="override job priority")
    p.add_argument("--job-timeout", type=float, default=None, help="per-job timeout")
    p.add_argument("-o", "--output", default=None, help="trace: Chrome JSON output path")
    p.add_argument("--no-wait", action="store_true",
                   help="submit and print job ids without waiting")
    p.add_argument("--stream", action="store_true",
                   help="stream the first job's telemetry events while waiting")
    p.add_argument("--wait-timeout", type=float, default=900.0,
                   help="max seconds to wait for completion")
    return p


def _build_specs(args) -> List[dict]:
    extra = {}
    if args.priority is not None:
        extra["priority"] = args.priority
    if args.job_timeout is not None:
        extra["timeout"] = args.job_timeout
    if args.kind in ("sweep", "trace"):
        if not args.targets:
            raise SystemExit(f"repro submit {args.kind}: need at least one experiment id")
        specs = [
            {"kind": args.kind, "experiment": t, "quick": args.quick, **extra}
            for t in args.targets
        ]
        if args.kind == "trace" and args.output:
            if len(specs) > 1:
                raise SystemExit("repro submit trace: -o only works with one experiment")
            specs[0]["output"] = args.output
        return specs
    if args.kind == "check":
        if not args.targets:
            raise SystemExit("repro submit check: need at least one seed")
        try:
            seeds = [int(t) for t in args.targets]
        except ValueError:
            raise SystemExit("repro submit check: seeds must be integers")
        return [
            {"kind": "check", "seed": s, "ops": args.ops, "faults": args.faults, **extra}
            for s in seeds
        ]
    # synthetic: targets are opaque dedup keys
    return [
        {"kind": "synthetic", "key": t, **extra} for t in (args.targets or ["probe"])
    ]


def submit_main(args) -> int:
    from repro.serve.client import JobFailed, ServeClient

    specs = _build_specs(args)
    with ServeClient(args.url) as client:
        acks = [client.submit(spec) for spec in specs]
        for spec, ack in zip(specs, acks):
            job = ack["job"]
            label = spec.get("experiment", spec.get("seed", spec.get("key", "")))
            print(f"{job['id']}  {args.kind} {label}  [{ack['dedup']}]  {job['state']}")
        if args.no_wait:
            return 0
        if args.stream:
            for event in client.stream(acks[0]["job"]["id"]):
                print(f"  event #{event['seq']} {event['type']}: "
                      f"{json.dumps(event['data'])[:160]}")
        failed = 0
        for ack in acks:
            job_id = ack["job"]["id"]
            try:
                detail = client.wait(job_id, timeout=args.wait_timeout)
            except JobFailed as exc:
                print(f"{job_id}  {exc.detail['state']}: {exc.detail.get('error')}",
                      file=sys.stderr)
                failed += 1
                continue
            result = detail.get("result") or {}
            line = f"{job_id}  done"
            if detail.get("cached"):
                line += "  (cached)"
            for key in ("output_sha256", "passed", "trace_path", "digest"):
                if key in result:
                    line += f"  {key}={result[key]}"
            print(line)
            if args.kind == "check" and result.get("passed") is False:
                for violation in result.get("violations", []):
                    print(f"    {violation}", file=sys.stderr)
                failed += 1
        return 1 if failed else 0
