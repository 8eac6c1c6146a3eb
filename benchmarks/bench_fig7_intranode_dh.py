"""Fig 7 — intra-node D-H put/get latency, small and large messages.

Paper: small >2x better; large puts ~40% better via the shared-memory
design (Fig 3); large gets on par (both are an H2D from shm).
"""

from conftest import run_and_archive
from repro.reporting import run_experiment


def test_fig7a_put_small(benchmark):
    run_and_archive(benchmark, "fig7a", lambda: run_experiment("fig7a"))


def test_fig7b_put_large(benchmark):
    run_and_archive(benchmark, "fig7b", lambda: run_experiment("fig7b"))


def test_fig7c_get_small(benchmark):
    run_and_archive(benchmark, "fig7c", lambda: run_experiment("fig7c"))


def test_fig7d_get_large(benchmark):
    run_and_archive(benchmark, "fig7d", lambda: run_experiment("fig7d"))
