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
* :class:`AllOf` — waits for every event of a set.
* :class:`Resource` / :class:`Store` — FIFO capacity and message-queue
  primitives for processes (GPU compute slots, HCA atomic units;
  mailboxes).  Link occupancy does not use them: a link direction
  grants its slots through ready-queue tuples.
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
from repro.simulator.conditions import AllOf
from repro.simulator.resources import Request, Resource, Store
from repro.simulator.monitor import Probe

__all__ = [
    "AllOf",
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
