"""Deterministic fault injection and path-health tracking.

Public surface:

* :class:`FaultPlan` — seedable schedule of link flaps and HCA
  stalls; attach to any ``ShmemJob``.
* :class:`FaultInjector` — the live executor a plan attaches.
* :class:`HealthTracker` / :class:`PathHealth` — per-path health state
  machine consulted by protocol selection for failover.
"""

from repro.faults.health import DEGRADED, HEALTHY, PROBING, HealthTracker, PathHealth
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, HcaStall, LinkFlap

__all__ = [
    "DEGRADED",
    "FaultInjector",
    "FaultPlan",
    "HEALTHY",
    "HcaStall",
    "HealthTracker",
    "LinkFlap",
    "PROBING",
    "PathHealth",
]
