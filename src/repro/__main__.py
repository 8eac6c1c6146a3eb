"""Command-line entry point: regenerate paper artifacts, or talk to
the job service.

Usage::

    python -m repro list                 # every registered experiment
    python -m repro run fig8a            # one artifact + its claim verdict
    python -m repro run table3 --quick   # trimmed sweep
    python -m repro run all --quick      # everything (CI smoke)
    python -m repro trace fig8a          # traced run -> Chrome JSON
    python -m repro profile fig8a --quick  # calls into repro.* per layer
    python -m repro check --seeds 200    # differential correctness sweep
    python -m repro check --seed 17 --faults   # one seed, fault plan armed
    python -m repro serve --port 8787    # host the async job service
    python -m repro submit sweep fig8b --quick # submit through the service

``run``, ``trace``, and ``check`` also accept ``--serve-url URL`` to
execute through a running service instead of in-process (results are
bit-identical; see DESIGN.md §10).
"""

from __future__ import annotations

import argparse
import sys

#: Subcommand -> one-line help, the single source for the usage listing.
COMMANDS = {
    "list": "list registered experiments",
    "run": "run one experiment (or 'all')",
    "trace": "traced run, export Chrome JSON",
    "profile": "deterministic count of calls into repro.* per layer",
    "check": "differential correctness harness (seeded fuzzing + oracles)",
    "serve": "host the async simulation job service",
    "submit": "submit jobs to a running service",
}


def print_usage(stream=None) -> None:
    stream = stream or sys.stderr
    print("usage: python -m repro <command> [options]\n", file=stream)
    print("commands:", file=stream)
    width = max(len(c) for c in COMMANDS)
    for name, help_line in COMMANDS.items():
        print(f"  {name:<{width}}  {help_line}", file=stream)
    print(
        "\nrun 'python -m repro <command> --help' for command options",
        file=stream,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate tables/figures from CLUSTER'15 GDR-OpenSHMEM",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help=COMMANDS["list"])
    runp = sub.add_parser("run", help=COMMANDS["run"])
    runp.add_argument("experiment", help="experiment id, e.g. fig8a, table3, all")
    runp.add_argument("--quick", action="store_true", help="trimmed sweeps")
    runp.add_argument("--serve-url", default=None,
                      help="run via the job service at this URL")
    tracep = sub.add_parser("trace", help=COMMANDS["trace"])
    tracep.add_argument("experiment", help="experiment id, e.g. fig8a")
    tracep.add_argument("--quick", action="store_true", help="trimmed sweeps")
    tracep.add_argument(
        "-o", "--output", default=None,
        help="output path (default: trace-<experiment>.json)",
    )
    tracep.add_argument("--serve-url", default=None,
                        help="trace via the job service at this URL")
    profp = sub.add_parser("profile", help=COMMANDS["profile"])
    profp.add_argument("experiment", help="experiment id, e.g. fig8a, or 'all'")
    profp.add_argument("--quick", action="store_true", help="trimmed sweeps")
    from repro.check.cli import build_parser as build_check_parser

    checkp = sub.add_parser("check", help=COMMANDS["check"])
    build_check_parser(checkp)
    checkp.add_argument("--serve-url", default=None,
                        help="run seeds via the job service at this URL")

    from repro.serve.cli import build_serve_parser, build_submit_parser

    build_serve_parser(sub.add_parser("serve", help=COMMANDS["serve"]))
    build_submit_parser(sub.add_parser("submit", help=COMMANDS["submit"]))
    return parser


def _check_via_service(args) -> int:
    """``repro check --serve-url``: the seeds as service jobs."""
    from repro.serve.client import JobFailed, ServeClient

    if args.seed is not None:
        seeds = [args.seed]
    else:
        seeds = list(range(args.seed_start, args.seed_start + args.seeds))
    specs = [
        {
            "kind": "check",
            "seed": seed,
            "ops": args.ops,
            "faults": args.faults,
            "msg": args.msg,
            "design": args.design,
            "nodes": args.nodes,
            "pes_per_node": args.pes_per_node,
            "max_bytes": args.max_bytes,
        }
        for seed in seeds
    ]
    failed = 0
    oracles = 0
    with ServeClient(args.serve_url) as client:
        acks = client.submit_batch(specs)
        for seed, ack in zip(seeds, acks):
            try:
                detail = client.wait(ack["id"])
            except JobFailed as exc:
                print(f"seed {seed}: job {exc.detail['state']}: "
                      f"{exc.detail.get('error')}", file=sys.stderr)
                failed += 1
                continue
            result = detail["result"]
            oracles += result["oracles_run"]
            if not result["passed"]:
                failed += 1
                print(f"seed {seed}: FAIL")
                for violation in result["violations"]:
                    print(f"  {violation}")
                print(f"reproduce locally with: python -m repro check --seed {seed} "
                      f"--ops {args.ops}" + (" --faults" if args.faults else "")
                      + (" --msg" if args.msg else ""))
            elif not args.quiet:
                tag = "cached" if detail.get("cached") else (
                    f"{result.get('wall_seconds', 0.0):.2f}s"
                )
                print(f"seed {seed}: OK ({result['oracles_run']} oracles, {tag})")
    print(f"check via {args.serve_url}: {len(seeds)} seed(s), {oracles} oracle passes, "
          f"{failed} failures")
    return 1 if failed else 0


def _trace_via_service(args) -> int:
    """``repro trace --serve-url``: submit, stream span chunks."""
    from repro.serve.client import JobFailed, ServeClient

    out = args.output or f"trace-{args.experiment}.json"
    spec = {
        "kind": "trace",
        "experiment": args.experiment,
        "quick": args.quick,
        "output": out,
    }
    with ServeClient(args.serve_url) as client:
        ack = client.submit(spec)
        job_id = ack["job"]["id"]
        print(f"{job_id} trace {args.experiment} [{ack['dedup']}]")
        chunks = 0
        for event in client.stream(job_id):
            if event["type"] == "spans":
                chunks += 1
                data = event["data"]
                print(f"  spans chunk {chunks}: +{data['new']} (total {data['total']})")
        try:
            detail = client.wait(job_id)
        except JobFailed as exc:
            print(f"trace failed: {exc}", file=sys.stderr)
            return 1
    result = detail["result"]
    print(f"wrote {result.get('trace_path', out)}: {result['spans']} spans, "
          f"{result['instants']} instants"
          + (f" [TRUNCATED: {result['dropped']} dropped]" if result["dropped"] else ""))
    return 0


def _claim_verdict(target: str, misses) -> str:
    """The claim line ``repro run`` prints after a full-size target."""
    from repro.reporting import EXPERIMENTS

    verdict = f"FAILS: {'; '.join(misses)}" if misses else "holds"
    return f"\n{target} claim {verdict} (paper: {EXPERIMENTS[target].paper_claim.text})"


def _run_via_service(args, targets) -> int:
    """``repro run --serve-url``: targets as sweep jobs.  At full size
    each job's record carries its claim failures, checked on the rows
    it rendered, and the verdict is printed as in-process."""
    from repro.serve.client import JobFailed, ServeClient

    specs = [
        {"kind": "sweep", "experiment": t, "quick": args.quick} for t in targets
    ]
    failed = 0
    with ServeClient(args.serve_url) as client:
        acks = client.submit_batch(specs)
        for target, ack in zip(targets, acks):
            try:
                detail = client.wait(ack["id"])
            except JobFailed as exc:
                print(f"{target}: {exc}", file=sys.stderr)
                failed += 1
                continue
            result = detail["result"]
            hit = ack.get("dedup") == "cached" or detail.get("cached")
            if result["error"]:
                print(f"{target}: {result['error']}", file=sys.stderr)
                failed += 1
                continue
            print(f"{target}: done ({'cache' if hit else 'ran'}, "
                  f"{result['wall_seconds']:.2f}s recorded, "
                  f"sha256 {result['output_sha256'][:16]})")
            if not args.quick:
                misses = result["claim_failures"]
                failed += bool(misses)
                print(_claim_verdict(target, misses))
    return 1 if failed else 0


def _profile(targets, quick: bool) -> int:
    """``repro profile``: each target's run (measure and render) under a
    :class:`~repro.obs.calls.CallMeter`.  Targets run in order in this
    process, so a target's counts include the first-use work (imports,
    module memos) of whatever ran before it in the list."""
    from repro.obs.calls import meter_experiment

    for target in targets:
        meter = meter_experiment(target, quick)
        print(meter.report(target + (" (quick)" if quick else "")))
    return 0


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # A missing or unknown subcommand gets the full usage listing and a
    # non-zero exit instead of a bare argparse error.
    if not argv:
        print_usage(sys.stderr)
        return 2
    if argv[0] in ("-h", "--help"):
        print_usage(sys.stdout)
        return 0
    if argv[0] not in COMMANDS:
        print(f"python -m repro: unknown command {argv[0]!r}\n", file=sys.stderr)
        print_usage(sys.stderr)
        return 2
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "check":
        if args.serve_url:
            return _check_via_service(args)
        from repro.check.cli import main as check_main

        return check_main(parsed=args)
    if args.command == "serve":
        from repro.serve.cli import serve_main

        return serve_main(args)
    if args.command == "submit":
        from repro.serve.cli import submit_main

        return submit_main(args)

    from repro.reporting import EXPERIMENTS, run_experiment

    if args.command == "list":
        width = max(len(k) for k in EXPERIMENTS)
        for exp_id, exp in EXPERIMENTS.items():
            print(f"{exp_id:<{width}}  {exp.title:<32}  paper: {exp.paper_claim.text}")
        return 0

    targets = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    unknown = [t for t in targets if t not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {unknown}; try 'python -m repro list'", file=sys.stderr)
        return 2

    if args.command == "trace":
        if args.serve_url:
            return _trace_via_service(args)
        from repro.obs import SpanTracer, install, uninstall, write_chrome_trace

        tracer = install(SpanTracer())
        try:
            for target in targets:
                print(run_experiment(target, quick=args.quick))
                print()
        finally:
            uninstall()
        out = args.output or f"trace-{args.experiment}.json"
        path = write_chrome_trace(tracer, out)
        print(
            f"wrote {path}: {len(tracer.spans)} spans, "
            f"{len(tracer.instants)} instants across {tracer.nscopes} job(s)"
            + (f" [TRUNCATED: {tracer.dropped} dropped]" if tracer.truncated else "")
        )
        return 0

    if args.command == "profile":
        return _profile(targets, args.quick)

    if args.serve_url:
        return _run_via_service(args, targets)

    # One run per target renders the artifact and, at full size, checks
    # the paper's claim on the same rows.
    failed = 0
    for target in targets:
        exp = EXPERIMENTS[target]
        rows = exp.measure(args.quick)
        print(exp.render(rows))
        if not args.quick:
            misses = exp.paper_claim.failures(rows)
            failed += bool(misses)
            print(_claim_verdict(target, misses))
        print()
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
