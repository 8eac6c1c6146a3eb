"""Discrete-event simulation engine.

A minimal, deterministic generator-coroutine DES in the style of simpy,
purpose-built for the GDR-SHMEM reproduction.  Every higher layer
(hardware links, CUDA model, InfiniBand verbs, the OpenSHMEM runtimes)
is expressed as processes scheduled by :class:`Simulator`.

The engine is intentionally small but complete:

* :class:`Event` — one-shot condition with success/failure and value.
* :class:`Process` — wraps a generator; yielding an event suspends the
  process until the event fires; it is itself an event that succeeds
  with the generator's return value.
* :class:`Timeout` — an event scheduled ``delay`` into virtual time.
* :class:`AllOf` / :class:`AnyOf` — composite conditions.
* :class:`Resource` / :class:`Store` — FIFO capacity and message-queue
  primitives used to model link occupancy and mailboxes.
* :class:`Probe` — named sample series for benchmark measurements.

Per-layer tracing lives in :mod:`repro.obs` (spans), not in the engine.
"""

from repro.simulator.core import (
    Event,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)
from repro.simulator.conditions import AllOf, AnyOf, ConditionValue
from repro.simulator.resources import Request, Resource, Store
from repro.simulator.monitor import Probe

__all__ = [
    "AllOf",
    "AnyOf",
    "ConditionValue",
    "Event",
    "Probe",
    "Process",
    "Request",
    "Resource",
    "SimulationError",
    "Simulator",
    "Store",
    "Timeout",
]
