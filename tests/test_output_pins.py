"""Every target's rendered output matches its pin, and its rows hold
the paper's claim.

The expected full-size ``output_sha256`` values come from
``BENCH_PR1.json`` (the paper targets), ``perfbench/pins.json`` (the
four-way and crossover targets) and ``FULL_PINS`` (the second panels of
Figs 10-12 and the ablations).  The application targets (fig11, fig12
and their second panels) take seconds each at full size, so tier-1
pins them at quick size (``run_experiment(..., quick=True)``, about
0.1 s each) with the hashes in ``QUICK_APP_PINS``.

One run per target feeds both checks, so a re-pin cannot pass while
the target's claim fails.  Each archived ``benchmarks/results/<id>.txt``
is the full-size text its pin hashes, checked without running anything.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.reporting import EXPERIMENTS
from tests.helpers import pinned_rows

ROOT = Path(__file__).resolve().parent.parent

#: Full-size ``output_sha256`` of the targets registered after
#: ``perfbench/pins.json``.
FULL_PINS = {
    "fig10_8k": "514b8e0a4f17ba3196b2f1f186f7e015b9bec60ffe63253932d7c9fbed84c528",
    "fig11_2k": "6b4d8dd4151215cad6ef6a1c791c32c1e804c5c68ad522feefc6fbfa04eac885",
    "fig12_weak": "c18ae5db7855223e47163b201b28e2cf2778d3d33ad69190fbf4d3a0fab434a2",
    "ablation_pipeline": "c9aa78712c9cdfb571707de712955f25baf270cdf249cd4f2165aba861adae2c",
    "ablation_proxy": "51de45b4f42353678c14223afb7378c06434db74ada0356cc615af24bd15f1d5",
    "ablation_service_thread": "b2cdc50904de53b0e24c23628274b7839c0e544bce0af62dc3cfeaecfdb984d8",
    "ablation_sockets": "155039d47fbe541142cc37d12e98bfd84c43e10c8c63f1286fe15f6de83e734e",
    "ablation_thresholds": "aeba7261bd7a1bc9aebbc7089dc9a93eda86f2cb108c457c7f6f77bd4c659a61",
    "collectives": "8b74af9b6e5ecee372538511517c44dbd0d88cff8b29c198c027c54472d0361e",
    "omb_bandwidth": "f9e1b6d2858569ffdf9b1865d685528b4632a19d87db1acb8d14fe839a9d7052",
    "omb_rate_atomics": "38c69c03ae6a19c392ce66a621bbcdc7ee37476b165817651617308ee4ec8cc7",
}

#: Quick-size ``output_sha256`` of the application targets.
QUICK_APP_PINS = {
    "fig11": "b8c6d86757bca7d19eb2057684b4708dab817514f26249b34fef97657a845101",
    "fig12": "cb37bd0df6f05f502dcbbdefd735391c76bb55a6de36e73892202e2f932b80e0",
    "fig11_2k": "8f4940bc3c3e8ba37c92787b5fd02af477ab24f56729fdcc617f913eb6776fc2",
    "fig12_weak": "77bdb5bc1ba2041ffbb7c07d608e767b673d2e6486ff04345ea2fbb14eb4862a",
}


def _full_pins():
    doc = json.loads((ROOT / "BENCH_PR1.json").read_text())
    pins = {t["exp_id"]: t["output_sha256"] for t in doc["targets"]}
    pins.update(json.loads((ROOT / "perfbench" / "pins.json").read_text()))
    pins.update(FULL_PINS)
    return pins


FULL = _full_pins()
#: What tier-1 runs: ``target -> (output_sha256, quick)``.
PINS = {**{t: (sha, False) for t, sha in FULL.items()},
        **{t: (sha, True) for t, sha in QUICK_APP_PINS.items()}}


def test_pin_set_complete():
    assert set(PINS) == set(EXPERIMENTS)


def test_goldens_are_the_full_size_pins():
    goldens = {p.stem: p.read_bytes() for p in (ROOT / "benchmarks" / "results").glob("*.txt")}
    assert set(goldens) == set(EXPERIMENTS)
    for target, text in goldens.items():
        assert text.endswith(b"\n"), target
        assert hashlib.sha256(text[:-1]).hexdigest() == FULL[target], target


@pytest.mark.parametrize("target", sorted(PINS))
def test_output_matches_pin(target):
    sha, quick = PINS[target]
    exp = EXPERIMENTS[target]
    rows = pinned_rows(target, quick)
    assert hashlib.sha256(exp.render(rows).encode()).hexdigest() == sha
    assert exp.paper_claim.failures(rows, quick=quick) == []
