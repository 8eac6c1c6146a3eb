"""Parallel, cached benchmark sweep runner.

Regenerating every paper artifact serially repeats a lot of identical
work across development iterations.  This runner drives the
:mod:`repro.reporting.experiments` registry through a process pool and
memoizes each target on disk, keyed by everything that can change its
output:

* the experiment id and ``quick`` flag,
* a fingerprint of the ``repro`` source tree (any code change
  invalidates every entry — simulated results must never go stale).

Each record carries the target's wall-time and the engine's event
counters (:class:`repro.simulator.core.SimStats`), so a sweep doubles
as evidence that the batched fast paths fired (``fastpath_batches``)
and as a coarse regression guard on scheduler workload.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

_SRC_ROOT = Path(__file__).resolve().parents[1]  # .../src/repro


def code_fingerprint() -> str:
    """Hash of every ``repro`` source file (cache invalidation key).

    Each entry is framed as ``<path> NUL <length> NUL <content>`` so the
    digest is unambiguous under concatenation (moving bytes between a
    filename and a file body, or between two adjacent files, cannot
    produce the same stream).  Files that vanish mid-walk (editor tmp
    files) are skipped rather than crashing the sweep."""
    h = hashlib.sha256()
    for path in sorted(_SRC_ROOT.rglob("*.py")):
        try:
            body = path.read_bytes()
        except OSError:
            continue
        h.update(str(path.relative_to(_SRC_ROOT)).encode())
        h.update(b"\x00")
        h.update(str(len(body)).encode())
        h.update(b"\x00")
        h.update(body)
    return h.hexdigest()


def target_cache_key(exp_id: str, *, quick: bool, fingerprint: str) -> str:
    """The memo key one experiment target caches under.

    Shared between the sweep runner's disk cache and the ``repro
    serve`` scheduler's dedup index, so a queued service request and a
    disk record for the same work always collide: same target + flags
    + source tree -> same key; any code change -> a different key.
    """
    return hashlib.sha256(
        f"{exp_id}\x00quick={quick}\x00{fingerprint}".encode()
    ).hexdigest()


@dataclass
class TargetResult:
    """Outcome of one experiment target."""

    exp_id: str
    wall_seconds: float
    output_sha256: str
    sim_stats: Dict[str, int]
    cached: bool = False
    error: Optional[str] = None
    #: Flat dotted-key metrics snapshot (``repro.obs.snapshot_stats``).
    metrics: Dict[str, object] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "exp_id": self.exp_id,
            "wall_seconds": self.wall_seconds,
            "output_sha256": self.output_sha256,
            "sim_stats": self.sim_stats,
            "cached": self.cached,
            "error": self.error,
            "metrics": self.metrics,
        }


@dataclass
class SweepReport:
    """Everything one sweep run learned, JSON-serializable."""

    fingerprint: str
    quick: bool
    jobs: int
    targets: List[TargetResult] = field(default_factory=list)

    @property
    def cache_hits(self) -> int:
        return sum(1 for t in self.targets if t.cached)

    @property
    def cache_misses(self) -> int:
        return sum(1 for t in self.targets if not t.cached)

    @property
    def total_wall(self) -> float:
        return sum(t.wall_seconds for t in self.targets)

    def totals(self) -> Dict[str, int]:
        agg: Dict[str, int] = {}
        for t in self.targets:
            for k, v in t.sim_stats.items():
                agg[k] = agg.get(k, 0) + v
        return agg

    def as_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "quick": self.quick,
            "jobs": self.jobs,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "total_target_wall_seconds": self.total_wall,
            "engine_totals": self.totals(),
            "targets": [t.as_dict() for t in self.targets],
        }


def _run_one(exp_id: str, quick: bool) -> dict:
    """Worker: run one experiment, return a plain dict (picklable)."""
    from repro.obs import snapshot_stats
    from repro.reporting.experiments import run_experiment
    from repro.simulator.core import GLOBAL_STATS, reset_global_stats

    reset_global_stats()
    t0 = time.perf_counter()
    try:
        output = run_experiment(exp_id, quick=quick)
        err = None
        digest = hashlib.sha256(output.encode()).hexdigest()
    except Exception as exc:  # surface, don't kill the pool
        err = f"{type(exc).__name__}: {exc}"
        digest = ""
    t1 = time.perf_counter()
    return {
        "exp_id": exp_id,
        "wall_seconds": t1 - t0,
        "output_sha256": digest,
        "sim_stats": GLOBAL_STATS.as_dict(),
        "error": err,
        "metrics": snapshot_stats(GLOBAL_STATS),
    }


class SweepRunner:
    """Run experiment targets with disk memoization and a process pool."""

    def __init__(self, cache_dir: Path, jobs: int = 0, quick: bool = False):
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.jobs = jobs if jobs > 0 else max(1, os.cpu_count() or 1)
        self.quick = quick
        self.fingerprint = code_fingerprint()

    def cache_key(self, exp_id: str) -> str:
        return target_cache_key(exp_id, quick=self.quick, fingerprint=self.fingerprint)

    def _cache_path(self, exp_id: str) -> Path:
        return self.cache_dir / f"{self.cache_key(exp_id)}.json"

    def _lookup(self, exp_id: str) -> Optional[TargetResult]:
        path = self._cache_path(exp_id)
        if not path.is_file():
            return None
        try:
            rec = json.loads(path.read_text())
        except (OSError, ValueError):
            return None
        return TargetResult(
            exp_id=rec["exp_id"],
            wall_seconds=rec["wall_seconds"],
            output_sha256=rec["output_sha256"],
            sim_stats=rec["sim_stats"],
            cached=True,
            error=rec.get("error"),
            metrics=rec.get("metrics", {}),
        )

    def _store(self, rec: dict) -> None:
        if rec.get("error"):
            return  # never cache failures
        # Atomic write-then-rename: an interrupted sweep must never
        # leave a torn record that a later run would half-parse.
        from repro.reporting.artifacts import write_json_artifact

        write_json_artifact(self._cache_path(rec["exp_id"]), rec, indent=1)

    def run(self, exp_ids: Sequence[str], verbose: bool = False) -> SweepReport:
        report = SweepReport(fingerprint=self.fingerprint, quick=self.quick, jobs=self.jobs)
        todo = []
        by_id: Dict[str, TargetResult] = {}
        for exp_id in exp_ids:
            hit = self._lookup(exp_id)
            if hit is not None:
                by_id[exp_id] = hit
                if verbose:
                    print(f"  cache hit  {exp_id} ({hit.wall_seconds:.2f}s recorded)")
            else:
                todo.append(exp_id)
        if verbose:
            print(
                f"pool size {self.jobs}: {len(by_id)} cache hits, "
                f"{len(todo)} targets to run"
            )
        if todo:
            if self.jobs > 1 and len(todo) > 1:
                ctx = multiprocessing.get_context("fork" if os.name == "posix" else "spawn")
                pool = ctx.Pool(min(self.jobs, len(todo)))
                try:
                    recs = pool.starmap_async(
                        _run_one, [(e, self.quick) for e in todo]
                    ).get()
                    pool.close()
                except KeyboardInterrupt:
                    # Ctrl-C mid-sweep: kill outstanding workers instead
                    # of waiting them out.  Nothing has been stored yet,
                    # and _store itself is atomic, so the cache holds
                    # only complete records.
                    pool.terminate()
                    raise
                finally:
                    pool.join()
            else:
                recs = [_run_one(e, self.quick) for e in todo]
            for rec in recs:
                self._store(rec)
                by_id[rec["exp_id"]] = TargetResult(
                    exp_id=rec["exp_id"],
                    wall_seconds=rec["wall_seconds"],
                    output_sha256=rec["output_sha256"],
                    sim_stats=rec["sim_stats"],
                    cached=False,
                    error=rec["error"],
                    metrics=rec.get("metrics", {}),
                )
                if verbose:
                    r = by_id[rec["exp_id"]]
                    flag = f"ERROR {r.error}" if r.error else f"{r.wall_seconds:.2f}s"
                    print(f"  ran        {r.exp_id} ({flag})")
        report.targets = [by_id[e] for e in exp_ids]
        return report
