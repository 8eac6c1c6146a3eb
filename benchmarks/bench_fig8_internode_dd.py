"""Fig 8 — inter-node D-D put/get latency, small and large messages.

Paper anchors: 8 B put 20.9 -> 3.13 usec (7x); 2 KB < 4 usec; large
puts on par (cudaMemcpy-bound); large gets: proxy matches the pipeline
while avoiding the P2P read bottleneck.
"""

from conftest import run_and_archive
from repro.reporting import run_experiment


def test_fig8a_put_small(benchmark):
    run_and_archive(benchmark, "fig8a", lambda: run_experiment("fig8a"))


def test_fig8b_put_large(benchmark):
    run_and_archive(benchmark, "fig8b", lambda: run_experiment("fig8b"))


def test_fig8c_get_small(benchmark):
    run_and_archive(benchmark, "fig8c", lambda: run_experiment("fig8c"))


def test_fig8d_get_large(benchmark):
    run_and_archive(benchmark, "fig8d", lambda: run_experiment("fig8d"))
