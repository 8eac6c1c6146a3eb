"""Process-pool entry points for service job execution.

These are module-level functions (picklable by qualified name) the
:class:`~repro.serve.scheduler.JobScheduler` dispatches into its
``ProcessPoolExecutor``.  Sweep targets reuse the cached sweep
runner's worker verbatim — that is what makes a service-submitted
sweep bit-identical to ``benchmarks/run_all.py``: same worker, same
record shape, same disk cache key.  Only the sweep's leading garbage
collection is skipped: it costs a few ms per job and serves just the
record's ``gc_collections`` meter.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional

from repro.bench.runner import _run_one


def run_sweep_target(exp_id: str, quick: bool) -> Dict[str, Any]:
    """One experiment target — the sweep runner's own worker."""
    return _run_one(exp_id, quick)


def run_check_seed(
    seed: int,
    ops: int = 14,
    faults: bool = False,
    design: Optional[str] = None,
    nodes: Optional[int] = None,
    pes_per_node: Optional[int] = None,
    max_bytes: Optional[int] = None,
    msg: bool = False,
) -> Dict[str, Any]:
    """One differential-harness seed through the full oracle battery."""
    from repro.check.oracles import check_workload
    from repro.check.workload import generate_workload

    kwargs: Dict[str, Any] = dict(
        ops=ops, design=design, faults=faults, nodes=nodes,
        pes_per_node=pes_per_node, msg=msg,
    )
    if max_bytes is not None:
        kwargs["max_nbytes"] = max_bytes
    t0 = time.perf_counter()
    w = generate_workload(seed, **kwargs)
    report = check_workload(w)
    return {
        "seed": seed,
        "faults": faults,
        "design": w.design,
        "nodes": w.nodes,
        "pes_per_node": w.pes_per_node,
        "ops": w.op_count(),
        "oracles_run": report.oracles_run,
        "passed": report.passed,
        "violations": [f"{v.oracle}: {v.message}" for v in report.violations],
        "wall_seconds": time.perf_counter() - t0,
        "metrics": {
            "check.seed": seed,
            "check.ops": w.op_count(),
            "check.oracles_run": report.oracles_run,
            "check.violations": len(report.violations),
        },
    }
