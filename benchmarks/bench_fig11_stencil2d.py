"""Fig 11 — Stencil2D (SHOC) execution time at 16/32/64 GPUs.

Paper: 24/18/14% improvement for 1K x 1K and 20/19% (32/64 GPUs) for
2K x 2K, double precision, 1000 iterations.
"""

from conftest import run_and_archive
from repro.reporting.experiments import run_fig11


def test_fig11a_stencil_1k(benchmark):
    run_and_archive(benchmark, "fig11a", lambda: run_fig11(size=1024))


def test_fig11b_stencil_2k(benchmark):
    run_and_archive(benchmark, "fig11b", lambda: run_fig11(size=2048))
