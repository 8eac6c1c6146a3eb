"""Fig 10 — one-sidedness: communication time vs target compute time.

Paper: the proposed design's communication time is flat regardless of
target behaviour (100% overlap); the baseline's grows 1:1 with the
target's compute for both 8 KB and 1 MB messages.
"""

from conftest import run_and_archive
from repro.bench.overlap import overlap_percentage, overlap_sweep
from repro.reporting.experiments import run_fig10
from repro.units import KiB, MiB

COMPUTES = [0, 50, 100, 200, 400, 800, 1600]


def test_fig10a_overlap_8kb(benchmark):
    run_and_archive(benchmark, "fig10a", lambda: run_fig10(nbytes=8 * KiB))


def test_fig10b_overlap_1mb(benchmark):
    run_and_archive(benchmark, "fig10b", lambda: run_fig10(nbytes=1 * MiB))


def test_fig10_shape_claims():
    # No pinned run measures 8 KB; the 1 MB panel is fig10's claim.
    enhanced = overlap_percentage(overlap_sweep("enhanced-gdr", 8 * KiB, COMPUTES))
    baseline = overlap_percentage(overlap_sweep("host-pipeline", 8 * KiB, COMPUTES))
    assert enhanced > 95.0
    assert baseline < 40.0
