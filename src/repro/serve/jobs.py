r"""Job model for the ``repro serve`` subsystem.

A :class:`Job` is one unit of simulation work flowing through the
service: an experiment sweep target, a ``repro.check`` seed, a traced
experiment export, or a synthetic soak request.  Jobs move through an
explicit lifecycle state machine::

                      +--------------------------- retry (bounded;
                      v                             transient causes for
                      |                             any job, own errors
                      |                             for fault-flagged)
    queued ------> running ------> done
      | \             |  \
      |  \            |   +-----> failed
      |   +---------------------> done      (dedup cache hit)
      +---------------+---------> cancelled

Transitions outside :data:`TRANSITIONS` raise
:exc:`InvalidTransition` — the scheduler can never half-update a job.
Each job owns an :class:`~repro.serve.telemetry.EventBuffer`; every
state change is emitted as a ``state`` telemetry event and the buffer
is closed when the job reaches a terminal state, which is what wakes
``/jobs/<id>/wait`` long-polls and terminates ``/events`` streams.

Dedup keys are computed once at submission (:func:`dedup_key_for`).
Sweep jobs reuse :func:`repro.bench.runner.target_cache_key` — the
exact key the cached sweep runner memoizes under on disk — so a queued
service request, a running duplicate, and a disk record for the same
work all collide on one key.  Variants that change the produced record
(armed fault plans, a different source tree) hash to distinct keys by
construction.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional

from repro.serve.telemetry import EventBuffer

#: Job kinds the scheduler knows how to execute.
KINDS = ("sweep", "check", "trace", "synthetic")

#: Default priority per kind (higher runs sooner).  Interactive trace
#: exports jump the queue; soak traffic yields to real work.
DEFAULT_PRIORITY = {"sweep": 10, "check": 10, "trace": 20, "synthetic": 0}


class JobState(str, Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in _TERMINAL


_TERMINAL = {JobState.DONE, JobState.FAILED, JobState.CANCELLED}

#: Legal lifecycle transitions.  QUEUED -> DONE is the dedup cache-hit
#: edge; RUNNING -> QUEUED is the bounded-retry edge.
TRANSITIONS = {
    JobState.QUEUED: {JobState.RUNNING, JobState.DONE, JobState.CANCELLED},
    JobState.RUNNING: {
        JobState.DONE,
        JobState.FAILED,
        JobState.CANCELLED,
        JobState.QUEUED,
    },
    JobState.DONE: set(),
    JobState.FAILED: set(),
    JobState.CANCELLED: set(),
}


class InvalidTransition(RuntimeError):
    """An illegal lifecycle edge was attempted (scheduler bug)."""


class SpecError(ValueError):
    """A submitted job spec failed validation."""


def _canon(parts: Dict[str, Any]) -> str:
    """Canonical ``k=v`` framing for dedup hashing (sorted, NUL-joined)."""
    return "\x00".join(f"{k}={parts[k]!r}" for k in sorted(parts))


def dedup_key_for(kind: str, spec: Dict[str, Any], fingerprint: str) -> str:
    """The dedup/memo key of one normalized job spec.

    Two requests with equal keys are guaranteed to produce the same
    result record, so the scheduler may run one and answer both.
    """
    if kind == "sweep":
        from repro.bench.runner import target_cache_key

        return target_cache_key(
            spec["experiment"],
            quick=bool(spec.get("quick", False)),
            fingerprint=fingerprint,
        )
    if kind == "check":
        frame = _canon({
            "seed": spec["seed"],
            "ops": spec.get("ops", 14),
            "faults": bool(spec.get("faults", False)),
            "design": spec.get("design"),
            "nodes": spec.get("nodes"),
            "pes_per_node": spec.get("pes_per_node"),
            "max_bytes": spec.get("max_bytes"),
            "msg": bool(spec.get("msg", False)),
        })
        return hashlib.sha256(f"check\x00{frame}\x00{fingerprint}".encode()).hexdigest()
    if kind == "trace":
        frame = _canon({
            "experiment": spec["experiment"],
            "quick": bool(spec.get("quick", False)),
            "output": spec.get("output"),
        })
        return hashlib.sha256(f"trace\x00{frame}\x00{fingerprint}".encode()).hexdigest()
    if kind == "synthetic":
        # Soak traffic: no source-tree fingerprint in the key (the
        # result is a pure function of the spec) so key computation
        # stays cheap on the million-request path.
        frame = _canon({
            "key": spec.get("key", ""),
            "payload": spec.get("payload", ""),
            "rounds": spec.get("rounds", 1),
        })
        return hashlib.sha256(f"synthetic\x00{frame}".encode()).hexdigest()
    raise SpecError(f"unknown job kind {kind!r} (want one of {KINDS})")


def validate_spec(spec: Dict[str, Any]) -> str:
    """Check a submitted spec, returning its kind or raising SpecError."""
    if not isinstance(spec, dict):
        raise SpecError(f"job spec must be an object, got {type(spec).__name__}")
    kind = spec.get("kind")
    if kind not in KINDS:
        raise SpecError(f"unknown job kind {kind!r} (want one of {KINDS})")
    if kind in ("sweep", "trace") and not isinstance(spec.get("experiment"), str):
        raise SpecError(f"{kind} spec needs an 'experiment' id")
    if kind == "check":
        if not isinstance(spec.get("seed"), int):
            raise SpecError("check spec needs an integer 'seed'")
        design = spec.get("design")
        if design is not None:
            from repro.errors import ShmemError
            from repro.shmem.designs import design_spec

            try:
                design_spec(design)
            except ShmemError as exc:
                raise SpecError(str(exc)) from None
    prio = spec.get("priority")
    if prio is not None and not isinstance(prio, int):
        raise SpecError(f"priority must be an integer, got {prio!r}")
    return kind


@dataclass
class Job:
    """One request's full lifecycle record."""

    id: str
    kind: str
    spec: Dict[str, Any]
    priority: int = 0
    dedup_key: str = ""
    state: JobState = JobState.QUEUED
    submitted_at: float = field(default_factory=time.time)
    started_at: Optional[float] = None
    finished_at: Optional[float] = None
    attempts: int = 0
    retries_left: int = 0
    timeout: Optional[float] = None
    #: True when the result came from the dedup memo / disk cache.
    cached: bool = False
    #: How many later identical requests were folded into this job.
    coalesced: int = 0
    cancel_requested: bool = False
    #: True when this job was rebuilt from the write-ahead journal
    #: after a service restart (DESIGN.md §10).
    recovered: bool = False
    result: Optional[Dict[str, Any]] = None
    error: Optional[str] = None
    events: EventBuffer = field(default_factory=EventBuffer)

    def advance(
        self,
        new_state: JobState,
        error: Optional[str] = None,
        jseq: Optional[int] = None,
    ) -> None:
        """Take one lifecycle edge, emit the ``state`` event, and close
        the telemetry buffer on terminal states.  ``jseq`` is the
        write-ahead journal sequence number of this edge when the
        scheduler journaled it (the durable stream-resume cursor)."""
        if new_state not in TRANSITIONS[self.state]:
            raise InvalidTransition(
                f"job {self.id}: illegal transition {self.state.value} -> {new_state.value}"
            )
        self.state = new_state
        now = time.time()
        if new_state is JobState.RUNNING:
            self.started_at = now
        if new_state.terminal:
            self.finished_at = now
            self.error = error
        self.events.emit("state", {
            "state": new_state.value,
            "attempts": self.attempts,
            "error": error,
        }, jseq=jseq)
        if new_state.terminal:
            self.events.close()

    def summary(self) -> Dict[str, Any]:
        """The wire shape list/submit endpoints return (no result body)."""
        return {
            "id": self.id,
            "kind": self.kind,
            "state": self.state.value,
            "priority": self.priority,
            "dedup_key": self.dedup_key,
            "submitted_at": self.submitted_at,
            "started_at": self.started_at,
            "finished_at": self.finished_at,
            "attempts": self.attempts,
            "cached": self.cached,
            "coalesced": self.coalesced,
            "recovered": self.recovered,
            "error": self.error,
        }

    def detail(self) -> Dict[str, Any]:
        """Summary plus the result record and spec."""
        out = self.summary()
        out["spec"] = self.spec
        out["result"] = self.result
        out["events_buffered"] = len(self.events)
        return out
