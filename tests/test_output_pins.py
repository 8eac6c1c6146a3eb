"""Every target's rendered output matches its pin.

The expected ``output_sha256`` values of the microbenchmark targets
come from ``BENCH_PR1.json`` (the paper targets) and
``perfbench/pins.json`` (later targets), at full size.  The two
application targets (fig11, fig12) take seconds each at full size, so
tier-1 pins them at quick size (``run_experiment(..., quick=True)``,
about 0.1 s each) with the hashes in ``QUICK_APP_PINS``; their
full-size pins stay in ``BENCH_PR1.json`` for the benchmark.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.reporting import run_experiment

ROOT = Path(__file__).resolve().parent.parent

#: Quick-size ``output_sha256`` of the application targets.
QUICK_APP_PINS = {
    "fig11": "b8c6d86757bca7d19eb2057684b4708dab817514f26249b34fef97657a845101",
    "fig12": "cb37bd0df6f05f502dcbbdefd735391c76bb55a6de36e73892202e2f932b80e0",
}


def _pins():
    doc = json.loads((ROOT / "BENCH_PR1.json").read_text())
    pins = {t["exp_id"]: (t["output_sha256"], False) for t in doc["targets"]}
    pins.update((t, (sha, False)) for t, sha in json.loads((ROOT / "perfbench" / "pins.json").read_text()).items())
    pins.update((t, (sha, True)) for t, sha in QUICK_APP_PINS.items())
    return pins


PINS = _pins()


def test_pin_set_complete():
    assert len(PINS) == 27


@pytest.mark.parametrize("target", sorted(PINS))
def test_output_matches_pin(target):
    sha, quick = PINS[target]
    digest = hashlib.sha256(run_experiment(target, quick=quick).encode()).hexdigest()
    assert digest == sha
