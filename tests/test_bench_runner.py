"""Unit coverage for the cached sweep runner's reporting surface:
engine-total aggregation over the analytic-tier counters, the
cache-invalidation fingerprint, and the disk-cache key/store semantics
shared with ``repro serve``."""

import repro.bench.runner as runner_mod
from repro.bench.runner import (
    SweepReport,
    SweepRunner,
    TargetResult,
    code_fingerprint,
    target_cache_key,
)


def test_totals_aggregates_every_tier_counter():
    stats_a = {
        "processed": 10,
        "fastpath_batches": 1,
        "analytic_flows": 2,
        "contended_windows": 1,
        "collective_closed_forms": 3,
        "vectorised_events": 7,
    }
    stats_b = {"processed": 5, "analytic_flows": 4, "vectorised_events": 1}
    rep = SweepReport(
        fingerprint="f",
        quick=False,
        jobs=1,
        targets=[
            TargetResult("a", 0.1, "x", stats_a),
            TargetResult("b", 0.2, "y", stats_b),
        ],
    )
    totals = rep.totals()
    assert totals["processed"] == 15
    assert totals["fastpath_batches"] == 1
    assert totals["analytic_flows"] == 6
    assert totals["contended_windows"] == 1
    assert totals["collective_closed_forms"] == 3
    assert totals["vectorised_events"] == 8
    # The serialised report carries the same aggregate.
    assert rep.as_dict()["engine_totals"] == totals


def test_code_fingerprint_changes_with_content(tmp_path, monkeypatch):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    mod = pkg / "mod.py"
    mod.write_bytes(b"x = 1\n")
    monkeypatch.setattr(runner_mod, "_SRC_ROOT", tmp_path)
    before = code_fingerprint()
    mod.write_bytes(b"x = 2\n")
    assert code_fingerprint() != before


def test_target_cache_key_varies_with_every_input():
    base = target_cache_key("fig6a", quick=True, fingerprint="fp")
    variants = {
        base,
        target_cache_key("fig6b", quick=True, fingerprint="fp"),
        target_cache_key("fig6a", quick=False, fingerprint="fp"),
        target_cache_key("fig6a", quick=True, fingerprint="fp2"),
    }
    assert len(variants) == 4


def test_runner_cache_key_is_the_shared_target_key(tmp_path):
    runner = SweepRunner(tmp_path, jobs=1, quick=True)
    assert runner.cache_key("fig6a") == target_cache_key(
        "fig6a", quick=True, fingerprint=runner.fingerprint
    )
    assert runner._cache_path("fig6a").name == f"{runner.cache_key('fig6a')}.json"


def _record(exp_id="fig6a", error=None):
    return {
        "exp_id": exp_id,
        "wall_seconds": 0.5,
        "output_sha256": "abc",
        "sim_stats": {"processed": 1},
        "error": error,
        "metrics": {},
    }


def test_store_then_lookup_roundtrip_is_atomic(tmp_path):
    runner = SweepRunner(tmp_path, jobs=1, quick=True)
    runner._store(_record())
    hit = runner._lookup("fig6a")
    assert hit is not None and hit.cached and hit.output_sha256 == "abc"
    # Write-then-rename must leave no temp droppings beside the record.
    assert [p.name for p in tmp_path.iterdir()] == [
        runner._cache_path("fig6a").name
    ]


def test_store_never_caches_failures(tmp_path):
    runner = SweepRunner(tmp_path, jobs=1, quick=True)
    runner._store(_record(error="ValueError: boom"))
    assert runner._lookup("fig6a") is None
    assert list(tmp_path.iterdir()) == []


def test_lookup_ignores_other_flag_variants(tmp_path):
    quick = SweepRunner(tmp_path, jobs=1, quick=True)
    quick._store(_record())
    full = SweepRunner(tmp_path, jobs=1, quick=False)
    assert quick._lookup("fig6a") is not None
    assert full._lookup("fig6a") is None


def test_code_fingerprint_framing_is_unambiguous(tmp_path, monkeypatch):
    # The same concatenated byte stream split differently across two
    # files must not collide: per-file length framing disambiguates.
    monkeypatch.setattr(runner_mod, "_SRC_ROOT", tmp_path)
    (tmp_path / "a.py").write_bytes(b"ab")
    (tmp_path / "b.py").write_bytes(b"c")
    one = code_fingerprint()
    (tmp_path / "a.py").write_bytes(b"a")
    (tmp_path / "b.py").write_bytes(b"bc")
    assert code_fingerprint() != one
