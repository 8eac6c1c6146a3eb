"""Table III — PCIe peer-to-peer bandwidth and the FDR percentage."""

from conftest import run_and_archive
from repro.reporting import run_experiment


def test_table3_p2p_bandwidth(benchmark):
    out = run_and_archive(benchmark, "table3", lambda: run_experiment("table3"))
    assert "intra-socket" in out
