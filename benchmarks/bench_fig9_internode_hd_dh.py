"""Fig 9 — inter-node H-D and D-H put/get (proposed design only).

The baseline cannot serve inter-node inter-domain traffic at all
(rendered 'n/s'); the proposed design achieves 2.81 usec for an 8 B
H-D put and 3.7 usec at 4 KB.
"""

from conftest import run_and_archive
from repro.reporting import run_experiment


def test_fig9a_put_dh(benchmark):
    run_and_archive(benchmark, "fig9a", lambda: run_experiment("fig9a"))


def test_fig9b_put_hd(benchmark):
    run_and_archive(benchmark, "fig9b", lambda: run_experiment("fig9b"))


def test_fig9c_get_hd(benchmark):
    run_and_archive(benchmark, "fig9c", lambda: run_experiment("fig9c"))


def test_fig9d_get_dh(benchmark):
    run_and_archive(benchmark, "fig9d", lambda: run_experiment("fig9d"))
