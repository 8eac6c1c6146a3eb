"""Smoke tests: examples run, the CLI works, probes collect samples."""

import statistics
import subprocess
import sys
from glob import glob

import pytest

from repro.shmem import Domain, Protocol, ShmemJob

EXAMPLES = sorted(glob("examples/*.py"))


@pytest.mark.parametrize("script", EXAMPLES)
def test_example_runs(script):
    proc = subprocess.run(
        [sys.executable, script], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip()


def test_cli_list():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "list"], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0
    assert "fig8a" in proc.stdout and "table3" in proc.stdout


def test_cli_run_quick():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "fig6a", "--quick"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0
    assert "enhanced-gdr" in proc.stdout


def test_cli_run_checks_the_claim(capsys, monkeypatch):
    from repro.__main__ import main
    from repro.reporting.experiments import EXPERIMENTS, Claim

    assert main(["run", "table1"]) == 0
    assert "table1 claim holds" in capsys.readouterr().out
    monkeypatch.setattr(EXPERIMENTS["table1"], "paper_claim", Claim("no", (("never", lambda r: False),)))
    assert main(["run", "table1"]) == 1
    assert "table1 claim FAILS: never" in capsys.readouterr().out


def test_cli_unknown_experiment():
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "run", "fig99"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert "unknown experiment" in proc.stderr


def test_probe_collects_protocol_samples():
    """The job-wide probe records per-protocol op durations."""

    def main(ctx):
        sym = yield from ctx.shmalloc(1 << 20, domain=Domain.GPU)
        src = ctx.cuda.malloc(1 << 20)
        yield from ctx.barrier_all()
        if ctx.my_pe() == 0:
            yield from ctx.putmem(sym, src, 8, pe=ctx.npes - 1)
            yield from ctx.putmem(sym, src, 1 << 20, pe=ctx.npes - 1)
            yield from ctx.quiet()
            dst = ctx.cuda.malloc(1 << 20)
            yield from ctx.getmem(dst, sym, 1 << 20, pe=ctx.npes - 1)
        yield from ctx.barrier_all()

    job = ShmemJob(nodes=2, design="enhanced-gdr")
    job.run(main)
    names = job.probe.names()
    assert f"put:{Protocol.DIRECT_GDR.value}" in names
    assert f"put:{Protocol.PIPELINE_GDR_WRITE.value}" in names
    assert f"get:{Protocol.PROXY.value}" in names
    assert statistics.mean(job.probe.series(f"put:{Protocol.DIRECT_GDR.value}")) > 0
