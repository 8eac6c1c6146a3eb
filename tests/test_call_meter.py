"""The call meter behind ``python -m repro profile``: exact and inert."""

import os
import subprocess
import sys

from repro.bench.runner import _run_one
from repro.obs.calls import CallMeter
from repro.units import usec

TARGET = "fig8a4"  # the four designs, at quick size


def _profile(hash_seed: int) -> str:
    env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "profile", TARGET, "--quick"],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_counts_repeat_across_processes_and_hash_seeds():
    first, second = _profile(1), _profile(2)
    assert first == second
    assert first.startswith(f"{TARGET} (quick): ")
    for layer in ("repro.simulator", "repro.shmem", "repro.hardware", "repro.cuda", "repro.ib"):
        assert f"  {layer} " in first


def test_meter_changes_no_stats_and_no_output():
    plain = _run_one(TARGET, True)
    with CallMeter() as meter:
        metered = _run_one(TARGET, True)
    assert meter.total > 0
    for key in ("output_sha256", "sim_stats", "bytes_copied", "error"):
        assert metered[key] == plain[key]


def test_meter_counts_repro_calls_by_layer_only():
    def outside():
        return usec(2)

    with CallMeter() as meter:
        usec(1)
        outside()
        len("not counted")
    assert meter.counts == {"repro.units": 2}
    assert sys.getprofile() is None
