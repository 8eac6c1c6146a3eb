"""Fig 12 — LBM evolution phase: strong (128^3) and weak (64^3/GPU).

Paper: 70/53/45% improvement at 16/32/64 GPUs (strong) and 39/30% at
32/64 GPUs (weak) over the original two-sided CUDA-aware MPI version.
Our MPI baseline is better-behaved than 2015 MVAPICH2, so measured
improvements are smaller but strictly positive at every scale (see
EXPERIMENTS.md for the full discussion).
"""

from conftest import run_and_archive
from repro.reporting.experiments import run_fig12


def test_fig12a_lbm_strong(benchmark):
    run_and_archive(benchmark, "fig12a", lambda: run_fig12(mode="strong"))


def test_fig12b_lbm_weak(benchmark):
    run_and_archive(benchmark, "fig12b", lambda: run_fig12(mode="weak"))
