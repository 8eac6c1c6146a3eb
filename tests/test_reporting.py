"""Tests for table rendering and the experiment registry."""

import pytest

from repro.reporting import EXPERIMENTS, format_series, format_table, run_experiment
from repro.shmem.capabilities import capability_rows
from repro.shmem.constants import Config
from repro.shmem.designs import design_spec


# ------------------------------------------------------------------- format
def test_format_table_alignment():
    out = format_table(["a", "bbbb"], [["1", "2"], ["333", "4"]], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert lines[2].startswith("a")
    # columns align: the 'bbbb' header starts where '2'/'4' cells start
    col = lines[2].index("bbbb")
    assert lines[4][col] == "2"
    assert lines[5][col] == "4"


def test_format_series_with_unsupported_curve():
    out = format_series("x", {"good": [1.0, 2.0], "missing": None}, [10, 20])
    assert "n/s" in out
    assert "1.00" in out and "2.00" in out


def test_format_table_numeric_cells_coerced():
    out = format_table(["n"], [[42]])
    assert "42" in out


# ------------------------------------------------------------- capabilities
def test_table1_rows_complete():
    rows = capability_rows()
    assert len(rows) == 3
    designs = [r[0] for r in rows]
    assert designs == ["naive", "host-pipeline", "enhanced-gdr"]


def test_capabilities_supports_queries():
    hp = design_spec("host-pipeline").caps
    assert hp.supports(Config.DD, internode=True)
    assert not hp.supports(Config.HD, internode=True)
    assert hp.supports(Config.HD, internode=False)
    naive = design_spec("naive").caps
    assert not naive.gpu_domain
    assert not naive.supports(Config.DD, internode=False)
    gdr = design_spec("enhanced-gdr").caps
    assert all(gdr.supports(c, internode=True) for c in Config)


# ---------------------------------------------------------------- registry
def test_registry_covers_every_paper_artifact():
    expected = {
        "table1", "table2", "table3",
        "fig6a", "fig6b", "fig6c", "fig6d",
        "fig7a", "fig7b", "fig7c", "fig7d",
        "fig8a", "fig8b", "fig8c", "fig8d",
        "fig9a", "fig9b", "fig9c", "fig9d",
        "fig10", "fig11", "fig12",
    }
    assert expected <= set(EXPERIMENTS)


def test_registry_entries_have_claims():
    for exp in EXPERIMENTS.values():
        assert exp.title and exp.paper_claim
        assert callable(exp.run)


@pytest.mark.parametrize("exp_id", ["fig6a", "fig7b", "fig8c", "fig9b"])
def test_quick_latency_experiments_render(exp_id):
    out = run_experiment(exp_id, quick=True)
    assert "bytes" in out
    assert "enhanced-gdr" in out


def test_quick_fig9_shows_baseline_unsupported():
    out = run_experiment("fig9a", quick=True)
    assert "n/s" in out  # the baseline column renders as not-supported


def test_quick_fig10_renders_overlap():
    out = run_experiment("fig10", quick=True)
    assert "overlap" in out and "enhanced-gdr" in out


def test_quick_fig11_renders_improvement():
    out = run_experiment("fig11", quick=True)
    assert "Stencil2D" in out and "%" in out


def test_quick_fig12_renders_improvement():
    out = run_experiment("fig12", quick=True)
    assert "LBM" in out and "MPI two-sided" in out


def test_quick_table2_and_table3():
    assert "OpenSHMEM" in run_experiment("table2", quick=True)
    assert "intra-socket" in run_experiment("table3", quick=True)


# ----------------------------------------------- format robustness
def test_format_series_ragged_curve_raises_valueerror():
    with pytest.raises(ValueError, match="series 'b' has 2 values for 3"):
        format_series("size", {"a": [1.0, 2.0, 3.0], "b": [1.0, 2.0]}, [1, 2, 4])


def test_format_series_all_none_curves():
    out = format_series("size", {"a": None, "b": None}, [1, 2])
    assert out.count("n/s") == 4


def test_format_series_empty_x_values():
    out = format_series("size", {"a": [], "b": None}, [])
    assert "size" in out  # headers render; no data rows


def test_format_table_empty_rows():
    out = format_table(["col1", "col2"], [])
    lines = out.splitlines()
    assert lines[0].split() == ["col1", "col2"]
    assert set(lines[1]) == {"-"}


def _rdma_write_spans(tracer, count):
    from repro.simulator import Simulator

    sim = Simulator()
    tracer.attach(sim)

    def proc(sim):
        for _ in range(count):
            start = sim.now
            yield sim.timeout(0.001)
            tracer.complete(sim, "rdma_write", "ib", "ib:pe0", start)

    sim.process(proc(sim))
    sim.run()
    return tracer


def test_event_breakdown_raises_on_truncated_trace():
    from repro.obs import SpanTracer
    from repro.reporting.timeline import breakdown_table, event_breakdown

    tracer = _rdma_write_spans(SpanTracer(limit=3), 10)
    assert tracer.truncated
    assert tracer.dropped > 0
    with pytest.raises(ValueError, match="truncated"):
        event_breakdown(tracer)
    partial = event_breakdown(tracer, strict=False)
    assert sum(e.events for e in partial) <= 3
    table = breakdown_table(tracer)
    assert "WARNING: trace truncated" in table
    assert str(tracer.dropped) in table


def test_breakdown_table_clean_trace_has_no_warning():
    from repro.obs import SpanTracer
    from repro.reporting.timeline import breakdown_table

    tracer = _rdma_write_spans(SpanTracer(), 1)
    assert not tracer.truncated
    assert "WARNING" not in breakdown_table(tracer)
