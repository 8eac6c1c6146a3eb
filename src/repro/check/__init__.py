"""Differential correctness harness (the ``repro check`` CLI).

Three cooperating parts, per the correctness-tooling direction in the
ROADMAP:

- :mod:`repro.check.workload` — a seeded generator of *valid* random
  SHMEM programs (puts/gets, typed puts, atomics, collectives, locks,
  host+GPU domains, 8 B-4 MiB, 2-8 PEs, every runtime design);
- :mod:`repro.check.reference` — an untimed sequential executor giving
  the expected final symmetric-heap bytes and atomic values;
- :mod:`repro.check.oracles` — invariant checkers run over real
  simulated executions: heap-matches-reference, event-path vs
  fast-path bit-identity, traced vs untraced bit-identity, span/event
  parity, link byte conservation, atomic conservation under faults.
  A run whose fast tiers are disarmed is its own event run, so a
  faulted check makes two runs (fast and traced) plus the probe job,
  which runs once per job shape.

:mod:`repro.check.shrink` minimises a failing workload to a
pytest-pasteable repro; ``python -m repro check`` drives the lot.
"""

from repro.check.oracles import CheckReport, OracleViolation, check_workload
from repro.check.reference import ReferenceResult, execute_reference
from repro.check.runner import RunObservation, run_workload
from repro.check.shrink import shrink_workload, to_pytest_repro
from repro.check.workload import BufSpec, WOp, Workload, generate_workload

__all__ = [
    "BufSpec",
    "WOp",
    "Workload",
    "generate_workload",
    "ReferenceResult",
    "execute_reference",
    "RunObservation",
    "run_workload",
    "CheckReport",
    "OracleViolation",
    "check_workload",
    "shrink_workload",
    "to_pytest_repro",
]
