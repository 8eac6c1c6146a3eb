"""Table I — feature/design/configuration matrix of the three designs."""

from conftest import run_and_archive
from repro.reporting import run_experiment


def test_table1_feature_matrix(benchmark):
    run_and_archive(benchmark, "table1", lambda: run_experiment("table1"))
