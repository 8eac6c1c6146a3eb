"""Table II — 4 B put latency at the IB level vs the OpenSHMEM level.

Paper: raw verbs reach GPU memory in a few usec while the existing
OpenSHMEM runtime needs ~20 usec GPU-GPU; the proposed runtime closes
the gap to near the verbs floor.
"""

from conftest import run_and_archive
from repro.reporting import run_experiment


def test_table2_ib_vs_openshmem(benchmark):
    out = run_and_archive(benchmark, "table2", lambda: run_experiment("table2"))
    assert "OpenSHMEM put" in out
