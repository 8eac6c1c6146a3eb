"""Every microbenchmark target's rendered output matches its pin.

The expected ``output_sha256`` values come from ``BENCH_PR1.json`` (the
paper targets) and ``perfbench/pins.json`` (later targets).  The two
application targets (fig11, fig12) take seconds each and are left to
the benchmark.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.reporting import run_experiment

ROOT = Path(__file__).resolve().parent.parent
APP_TARGETS = {"fig11", "fig12"}


def _pins():
    doc = json.loads((ROOT / "BENCH_PR1.json").read_text())
    pins = {t["exp_id"]: t["output_sha256"] for t in doc["targets"]}
    pins.update(json.loads((ROOT / "perfbench" / "pins.json").read_text()))
    return {t: sha for t, sha in pins.items() if t not in APP_TARGETS}


PINS = _pins()


def test_pin_set_complete():
    assert len(PINS) == 25


@pytest.mark.parametrize("target", sorted(PINS))
def test_output_matches_pin(target):
    digest = hashlib.sha256(run_experiment(target).encode()).hexdigest()
    assert digest == PINS[target]
