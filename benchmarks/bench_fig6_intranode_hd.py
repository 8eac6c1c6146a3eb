"""Fig 6 — intra-node H-D put/get latency, small and large messages.

Paper anchors: 4 B put 2.4 usec (vs 6.2 baseline), 4 B get 2.02 usec;
large puts on par (both IPC), large gets ~40% better (shm design).
"""

from conftest import run_and_archive
from repro.reporting import run_experiment


def test_fig6a_put_small(benchmark):
    run_and_archive(benchmark, "fig6a", lambda: run_experiment("fig6a"))


def test_fig6b_put_large(benchmark):
    run_and_archive(benchmark, "fig6b", lambda: run_experiment("fig6b"))


def test_fig6c_get_small(benchmark):
    run_and_archive(benchmark, "fig6c", lambda: run_experiment("fig6c"))


def test_fig6d_get_large(benchmark):
    run_and_archive(benchmark, "fig6d", lambda: run_experiment("fig6d"))
