"""Priority scheduler + worker pool behind ``repro serve``.

The :class:`JobScheduler` is the heart of the service: a single-loop
asyncio component that owns the job registry, the priority queue, the
dedup/memo index, and the execution pools.

Admission path (``submit``, synchronous, runs on the event loop)::

    spec -> validate -> dedup key
         -> active job with same key?   coalesce (one execution, N answers)
         -> memoized/disk-cached key?   answer instantly ("cached")
         -> else                        enqueue (priority heap)

Execution path (``_worker`` coroutines, ``config.workers`` of them)::

    pop highest-priority job -> RUNNING -> dispatch by kind
      sweep  -> process pool, repro.bench.runner._run_one (bit-identical
                to benchmarks/run_all.py; record stored to the same
                disk cache, atomically)
      check  -> process pool, one differential-harness seed
      trace  -> dedicated thread + live span-chunk streaming (the
                obs install hook is process-global, so trace jobs are
                serialised behind a lock)
      synthetic -> in-loop deterministic hash work (soak traffic)

Every job observes a per-job timeout, cooperative cancellation, and
bounded retry (RUNNING -> QUEUED, at most ``config.retry_limit``
re-queues).  Retry eligibility distinguishes the failure cause:
*transient* infrastructure failures — worker timeouts, broken process
pools, lost pipes — are retried for every job, while application-level
failures (the job's own exception) are final unless the spec is
fault-flagged, which opts into replaying its own errors too.  Oracle
failures from check jobs are DONE results with ``ok: false`` and are
never retried.  On
success the scheduler emits the result's ``metrics`` dict as a final
``metrics`` telemetry event *before* the terminal state event, which
is the contract the acceptance check "streamed snapshot == final
snapshot" relies on.

Timeouts are enforced promptly for in-loop and cancellable work; a
pool-backed job that has already started keeps its worker slot busy
until the underlying process returns (its result is then discarded).

Durability (``config.journal_dir``, DESIGN.md §10): every admission
and every lifecycle edge is appended to a write-ahead
:class:`~repro.serve.journal.JobJournal` *before* the in-memory action
— admit before enqueue, edge before ``Job.advance`` — so a SIGKILL at
any instant leaves a journal from which :meth:`JobScheduler.recover`
(run automatically on ``start``) rebuilds the registry: terminal jobs
re-seed the dedup memo, queued/running jobs re-enter the queue exactly
once (dedup on the journaled key suppresses duplicate admits; sweep
re-executions hit the shared disk cache and stay bit-identical).
Journaled state events carry the journal sequence number (``jseq``),
the durable cursor ``/events`` streams resume from across restarts.

Graceful degradation: :meth:`drain` (wired to SIGTERM by the CLI)
stops admitting (:class:`Draining` → HTTP 503 + ``Retry-After``),
gives running jobs a grace window to finish, parks the rest back to
``QUEUED`` in the journal, flushes every telemetry stream's ``eos``
sentinel, and compacts the journal for a fast restart.  A plain
``stop`` also parks running jobs as ``QUEUED`` (journaled) rather than
failing them with ``CANCELLED: service shutdown``.
"""

from __future__ import annotations

import asyncio
import hashlib
import heapq
import itertools
import os
import time
from collections import OrderedDict, deque
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.serve.jobs import (
    DEFAULT_PRIORITY,
    Job,
    JobState,
    SpecError,
    dedup_key_for,
    validate_spec,
)
from repro.serve.journal import JobJournal


class QueueFull(RuntimeError):
    """Admission control rejected a submission (queue at capacity).

    The HTTP layer maps this to ``429 Too Many Requests`` with a
    ``Retry-After`` header — bounded queue depth instead of unbounded
    heap growth."""


class Draining(RuntimeError):
    """The service is draining (or stopping) and not admitting jobs.

    The HTTP layer maps this to ``503 Service Unavailable`` with a
    ``Retry-After`` header; clients should resubmit to the restarted
    service (dedup makes resubmission idempotent)."""


@dataclass
class SchedulerConfig:
    """Tunables for one scheduler instance."""

    #: Concurrent executing jobs (worker coroutines).
    workers: int = 2
    #: Process-pool size for sweep/check execution (0 = cpu count).
    sim_processes: int = 0
    #: Disk cache shared with the sweep runner (None = repo default).
    cache_dir: Optional[Path] = None
    #: Per-job wall timeout unless the spec overrides it.
    default_timeout: float = 900.0
    #: Retry budget for fault-flagged jobs (RUNNING -> QUEUED edges).
    retry_limit: int = 2
    #: Admission control: max queued (not yet running) jobs.
    max_queue: int = 200_000
    #: Terminal jobs retained in the registry for late GETs.
    retain_finished: int = 10_000
    #: Completed dedup keys answered instantly from memory.
    memo_capacity: int = 8_192
    #: Write-ahead journal directory (None = durability off; the hot
    #: path then never touches the journal code).
    journal_dir: Optional[Path] = None
    #: Journal records between snapshot compactions.
    journal_compact_every: int = 2048
    #: fsync every journal append (survives machine crashes, not just
    #: process kills; costs ~one disk flush per record).
    journal_fsync: bool = False
    #: Seconds ``drain`` waits for running jobs before parking them.
    drain_grace: float = 10.0


_REPO_ROOT = Path(__file__).resolve().parents[3]
_DEFAULT_CACHE = _REPO_ROOT / "benchmarks" / ".bench_cache"


class JobScheduler:
    """Asyncio job scheduler with priority, dedup, and telemetry."""

    def __init__(self, config: Optional[SchedulerConfig] = None):
        self.config = config or SchedulerConfig()
        self.jobs: Dict[str, Job] = {}
        self._heap: List[Tuple[int, int, str]] = []  # (-priority, seq, id)
        self._seq = itertools.count()
        self._ids = itertools.count(1)
        self._queued_count = 0
        #: dedup_key -> job id for QUEUED/RUNNING jobs (coalescing).
        self._active_by_key: Dict[str, str] = {}
        #: dedup_key -> job id of a successful finished job (memo).
        self._memo: "OrderedDict[str, str]" = OrderedDict()
        self._memo_jobs: set = set()
        self._finished: deque = deque()
        self._inflight: Dict[str, asyncio.Future] = {}
        self._workers: List[asyncio.Task] = []
        self._work_event: Optional[asyncio.Event] = None
        self._stopping = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._procs: Optional[ProcessPoolExecutor] = None
        self._threads: Optional[ThreadPoolExecutor] = None
        self._trace_lock = asyncio.Lock()
        self._sweep_runners: Dict[bool, Any] = {}
        self._fingerprint: Optional[str] = None
        self._draining = False
        self.drain_started_at: Optional[float] = None
        self._journal: Optional[JobJournal] = None
        if self.config.journal_dir is not None:
            self._journal = JobJournal(
                self.config.journal_dir,
                compact_every=self.config.journal_compact_every,
                fsync=self.config.journal_fsync,
            )
        self.counters: Dict[str, int] = {
            "submitted": 0,
            "unique": 0,
            "coalesced": 0,
            "cached_memo": 0,
            "cached_disk": 0,
            "executed": 0,
            "done": 0,
            "failed": 0,
            "cancelled": 0,
            "retried": 0,
            "timeouts": 0,
            "rejected": 0,
            "rejected_draining": 0,
            "parked": 0,
            "recovered": 0,
            "resumed": 0,
        }

    # ------------------------------------------------------------- admission

    @property
    def fingerprint(self) -> str:
        if self._fingerprint is None:
            from repro.bench.runner import code_fingerprint

            self._fingerprint = code_fingerprint()
        return self._fingerprint

    def _sweep_runner(self, quick: bool):
        """One SweepRunner per ``quick`` flag — the service's view of
        the sweep disk cache."""
        if quick not in self._sweep_runners:
            from repro.bench.runner import SweepRunner

            runner = SweepRunner(self.config.cache_dir or _DEFAULT_CACHE, jobs=1, quick=quick)
            runner.fingerprint = self.fingerprint  # computed once
            self._sweep_runners[quick] = runner
        return self._sweep_runners[quick]

    def submit(self, spec: Dict[str, Any]) -> Tuple[Job, str]:
        """Admit one spec; returns ``(job, mode)`` with mode one of
        ``"new"`` / ``"coalesced"`` / ``"cached"``."""
        if self._draining or self._stopping:
            self.counters["rejected_draining"] += 1
            raise Draining(
                "service is draining; not admitting new jobs "
                "(resubmit after restart — dedup makes this idempotent)"
            )
        kind = validate_spec(spec)
        self.counters["submitted"] += 1
        key = dedup_key_for(kind, spec, self.fingerprint if kind != "synthetic" else "")

        active_id = self._active_by_key.get(key)
        if active_id is not None:
            job = self.jobs[active_id]
            job.coalesced += 1
            self.counters["coalesced"] += 1
            return job, "coalesced"

        memo_id = self._memo.get(key)
        if memo_id is not None:
            job = self.jobs[memo_id]
            job.coalesced += 1
            self.counters["cached_memo"] += 1
            return job, "cached"

        if kind == "sweep":
            hit = self._sweep_runner(bool(spec.get("quick", False)))._lookup(spec["experiment"])
            if hit is not None:
                job = self._register(kind, spec, key)
                job.cached = True
                job.result = hit.as_dict()
                self._journal_admit(job)
                self._advance(job, JobState.DONE)
                self._on_terminal(job, memoize=True)
                self.counters["cached_disk"] += 1
                return job, "cached"

        if self._queued_count >= self.config.max_queue:
            self.counters["rejected"] += 1
            raise QueueFull(
                f"queue at capacity ({self.config.max_queue} jobs); retry later"
            )

        job = self._register(kind, spec, key)
        self._active_by_key[key] = job.id
        # Write-ahead: the admit record lands before the job is
        # reachable by a worker, so an acked submission can never be
        # lost to a crash.
        self._journal_admit(job)
        self._push(job)
        return job, "new"

    def _register(self, kind: str, spec: Dict[str, Any], key: str) -> Job:
        job = Job(
            id=f"j{next(self._ids):08d}",
            kind=kind,
            spec=spec,
            priority=int(spec.get("priority", DEFAULT_PRIORITY[kind])),
            dedup_key=key,
            # Every job gets the retry budget; _fail_or_retry decides
            # per failure whether spending it is allowed (transient
            # causes always; application errors only for fault-flagged
            # specs).  Granting it only to fault-flagged specs silently
            # ignored retry_limit for clean jobs hit by worker timeouts.
            retries_left=self.config.retry_limit,
            timeout=float(spec.get("timeout", self.config.default_timeout)),
        )
        self.jobs[job.id] = job
        self.counters["unique"] += 1
        return job

    def _push(self, job: Job) -> None:
        heapq.heappush(self._heap, (-job.priority, next(self._seq), job.id))
        self._queued_count += 1
        if self._work_event is not None:
            evt, self._work_event = self._work_event, None
            evt.set()

    def cancel(self, job_id: str) -> Job:
        """Cancel a job: immediate for queued jobs, cooperative for
        running ones.  Terminal jobs are returned unchanged."""
        job = self.jobs[job_id]
        if job.state.terminal:
            return job
        job.cancel_requested = True
        if job.state is JobState.QUEUED:
            # The heap entry is removed lazily by the next pop.
            self._queued_count -= 1
            self._advance(job, JobState.CANCELLED)
            self._on_terminal(job)
        elif job.state is JobState.RUNNING:
            task = self._inflight.get(job.id)
            if task is not None:
                task.cancel()
        return job

    # ----------------------------------------------------------- durability

    def _journal_admit(self, job: Job) -> Optional[int]:
        if self._journal is None:
            return None
        jseq = self._journal.append("admit", job={
            "id": job.id,
            "kind": job.kind,
            "spec": job.spec,
            "priority": job.priority,
            "dedup_key": job.dedup_key,
            "timeout": job.timeout,
            "submitted_at": job.submitted_at,
        })
        self._maybe_compact()
        return jseq

    def _advance(
        self, job: Job, state: JobState, error: Optional[str] = None
    ) -> None:
        """Journal one lifecycle edge (write-ahead), then take it.

        The journal record for a terminal ``DONE`` embeds the result,
        which is what lets recovery re-seed the dedup memo.  The
        returned journal sequence number is stamped onto the emitted
        ``state`` telemetry event as the durable stream cursor.

        Compaction is deferred on terminal edges: between this edge
        and ``_on_terminal`` the job is finished but not yet memoized,
        and a compactor running in that window would mistake it for an
        evicted terminal and erase it from the snapshot — losing the
        job from the journal entirely.  ``_on_terminal`` triggers the
        deferred compaction once the memo is consistent."""
        jseq = None
        if self._journal is not None:
            fields: Dict[str, Any] = {
                "id": job.id,
                "state": state.value,
                "attempts": job.attempts,
            }
            if error is not None:
                fields["error"] = error
            if state is JobState.DONE and job.result is not None:
                fields["result"] = job.result
            jseq = self._journal.append("state", **fields)
        job.advance(state, error=error, jseq=jseq)
        if not state.terminal:
            self._maybe_compact()

    def _maybe_compact(self) -> None:
        if self._journal is not None and self._journal.wants_compaction:
            self._compact()

    def _compact(self) -> None:
        """Snapshot every job worth recovering and truncate the tail.

        Retained: all non-terminal jobs (they must resume) and every
        memoized terminal job (they answer dedup hits).  Terminal jobs
        already evicted from the memo add nothing to recovery and are
        dropped from the snapshot."""
        if self._journal is None:
            return
        rows = []
        for job_id, job in self.jobs.items():
            if job.state.terminal and job_id not in self._memo_jobs:
                continue
            rows.append(self._serialise(job))
        self._journal.compact(rows)

    def _serialise(self, job: Job) -> Dict[str, Any]:
        edges = [
            {
                "jseq": e["jseq"],
                "state": e["data"]["state"],
                "attempts": e["data"]["attempts"],
                "error": e["data"]["error"],
            }
            for e in job.events.since(0)
            if e["type"] == "state" and "jseq" in e
        ]
        return {
            "id": job.id,
            "kind": job.kind,
            "spec": job.spec,
            "priority": job.priority,
            "dedup_key": job.dedup_key,
            "timeout": job.timeout,
            "submitted_at": job.submitted_at,
            "state": job.state.value,
            "attempts": job.attempts,
            "error": job.error,
            "result": job.result if job.state is JobState.DONE else None,
            "edges": edges,
        }

    def recover(self) -> Dict[str, int]:
        """Replay the journal into the registry (idempotent).

        Called automatically by :meth:`start`.  Terminal ``done`` jobs
        re-seed the dedup memo; queued/running jobs are re-queued —
        running ones lost their in-flight attempt to the crash and are
        resumed from ``QUEUED`` with a fresh retry budget.  Exactly-
        once guarantees come from dedup: a resumed job keeps its
        original id and dedup key, so resubmissions coalesce onto it,
        and a re-executed sweep stores to (or hits) the same disk
        cache entry bit-identically."""
        if self._journal is None:
            return {"recovered": 0, "resumed": 0}
        state = self._journal.recover()
        self._journal.open(state.next_jseq)
        recovered = resumed = 0
        max_id = 0
        for rec in state.jobs.values():
            try:
                max_id = max(max_id, int(rec.id.lstrip("j")))
            except ValueError:
                pass
            if rec.id in self.jobs:
                continue  # double replay of the same journal
            job = Job(
                id=rec.id,
                kind=rec.kind,
                spec=rec.spec,
                priority=rec.priority,
                dedup_key=rec.dedup_key,
                submitted_at=rec.submitted_at,
                attempts=rec.attempts,
                retries_left=self.config.retry_limit,
                timeout=rec.timeout,
                recovered=True,
            )
            # Replay the journaled edges into the fresh buffer so a
            # client's jseq cursor keeps working across the restart.
            for edge in rec.edges:
                job.events.emit("state", {
                    "state": edge["state"],
                    "attempts": edge.get("attempts", 0),
                    "error": edge.get("error"),
                }, jseq=edge["jseq"])
            self.jobs[job.id] = job
            recovered += 1
            if rec.terminal:
                job.state = JobState(rec.state)
                job.error = rec.error
                job.result = rec.result
                job.events.close()
                if job.state is JobState.DONE and job.result is not None:
                    self._memo[job.dedup_key] = job.id
                    self._memo_jobs.add(job.id)
                else:
                    self._finished.append(job.id)
            else:
                job.state = JobState.QUEUED
                if rec.state == "running":
                    # The crash interrupted this attempt; surface the
                    # implicit park edge to any resuming stream.
                    job.events.emit("state", {
                        "state": "queued",
                        "attempts": job.attempts,
                        "error": None,
                        "recovered": True,
                    })
                self._active_by_key[job.dedup_key] = job.id
                self._push(job)
                resumed += 1
        while len(self._memo) > self.config.memo_capacity:
            _, old_id = self._memo.popitem(last=False)
            self._memo_jobs.discard(old_id)
            self._finished.append(old_id)
        if max_id:
            self._ids = itertools.count(max_id + 1)
        self.counters["recovered"] += recovered
        self.counters["resumed"] += resumed
        return {"recovered": recovered, "resumed": resumed}

    async def drain(self, grace: Optional[float] = None) -> Dict[str, Any]:
        """Graceful degradation: stop admitting, let running jobs
        finish within ``grace`` seconds, park the rest as ``QUEUED``
        in the journal, flush every telemetry stream's ``eos``
        sentinel, and compact the journal for a fast restart."""
        if self._draining:
            return self.stats()
        self._draining = True
        self.drain_started_at = time.time()
        grace = self.config.drain_grace if grace is None else grace
        loop = asyncio.get_running_loop()
        deadline = loop.time() + grace
        while self._inflight and loop.time() < deadline:
            await asyncio.sleep(0.02)
        await self.stop()  # parks whatever is still running
        for job in self.jobs.values():
            if not job.events.closed:
                job.events.close()
        if self._journal is not None:
            self._compact()
            self._journal.close()
        return self.stats()

    # ------------------------------------------------------------- lifecycle

    def _on_terminal(self, job: Job, memoize: bool = False) -> None:
        if self._active_by_key.get(job.dedup_key) == job.id:
            del self._active_by_key[job.dedup_key]
        self.counters[job.state.value] += 1
        if memoize or (job.state is JobState.DONE and job.result is not None):
            self._memo[job.dedup_key] = job.id
            self._memo_jobs.add(job.id)
            while len(self._memo) > self.config.memo_capacity:
                _, old_id = self._memo.popitem(last=False)
                self._memo_jobs.discard(old_id)
                self._finished.append(old_id)
        if job.id not in self._memo_jobs:
            self._finished.append(job.id)
        self._gc()
        # The compaction deferred by the terminal edge (see _advance):
        # the memo now reflects this job, so a snapshot taken here
        # cannot mistake a fresh result for an evicted one.
        self._maybe_compact()

    def _gc(self) -> None:
        while len(self._finished) > self.config.retain_finished:
            old_id = self._finished.popleft()
            if old_id in self._memo_jobs:
                continue  # re-appended when evicted from the memo
            old = self.jobs.get(old_id)
            if old is not None and old.state.terminal:
                del self.jobs[old_id]

    # ------------------------------------------------------------- execution

    async def start(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stopping = False
        # Replay the write-ahead journal before any worker can run, so
        # resumed jobs are admitted ahead of new traffic and recovery
        # never races an execution.
        self.recover()
        for idx in range(self.config.workers):
            self._workers.append(asyncio.create_task(self._worker(idx)))

    async def stop(self) -> None:
        """Cancel workers (running jobs are parked back to QUEUED —
        journaled, so a restart resumes them) and release the
        execution pools.  Queued jobs stay queued."""
        self._stopping = True
        if self._work_event is not None:
            evt, self._work_event = self._work_event, None
            evt.set()
        for task in self._workers:
            task.cancel()
        await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers.clear()
        if self._procs is not None:
            self._procs.shutdown(wait=False, cancel_futures=True)
            self._procs = None
        if self._threads is not None:
            self._threads.shutdown(wait=False, cancel_futures=True)
            self._threads = None
        if self._journal is not None and not self._draining:
            # Drain compacts and closes the journal itself.
            self._journal.close()

    async def join(self, timeout: Optional[float] = None) -> bool:
        """Wait until the queue is empty and nothing is running."""
        loop = asyncio.get_running_loop()
        deadline = None if timeout is None else loop.time() + timeout
        while self._queued_count > 0 or self._inflight:
            if deadline is not None and loop.time() >= deadline:
                return False
            await asyncio.sleep(0.005)
        return True

    def _proc_pool(self) -> ProcessPoolExecutor:
        if self._procs is None:
            import multiprocessing

            procs = self.config.sim_processes or max(1, (os.cpu_count() or 2) - 1)
            ctx = multiprocessing.get_context("fork" if os.name == "posix" else "spawn")
            self._procs = ProcessPoolExecutor(procs, mp_context=ctx)
        return self._procs

    def _thread_pool(self) -> ThreadPoolExecutor:
        if self._threads is None:
            self._threads = ThreadPoolExecutor(
                max_workers=2, thread_name_prefix="repro-serve"
            )
        return self._threads

    async def _next_job(self) -> Optional[Job]:
        while True:
            while self._heap:
                _, _, job_id = heapq.heappop(self._heap)
                job = self.jobs.get(job_id)
                if job is None or job.state is not JobState.QUEUED:
                    continue  # lazily-deleted (cancelled / retried duplicate)
                self._queued_count -= 1
                return job
            if self._stopping:
                return None
            if self._work_event is None:
                self._work_event = asyncio.Event()
            await self._work_event.wait()

    async def _worker(self, idx: int) -> None:
        while True:
            job = await self._next_job()
            if job is None:
                return
            await self._execute(job)

    async def _execute(self, job: Job) -> None:
        job.attempts += 1
        self._advance(job, JobState.RUNNING)
        self.counters["executed"] += 1
        job.events.emit("progress", {
            "phase": "dispatch",
            "attempt": job.attempts,
            "queue_depth": self._queued_count,
        })
        task = asyncio.ensure_future(self._dispatch(job))
        self._inflight[job.id] = task
        try:
            result = await asyncio.wait_for(task, job.timeout)
        except asyncio.TimeoutError:
            self.counters["timeouts"] += 1
            self._fail_or_retry(job, f"timeout after {job.timeout:g}s", transient=True)
        except asyncio.CancelledError:
            if job.cancel_requested:
                self._advance(job, JobState.CANCELLED)
                self._on_terminal(job)
            else:
                # Scheduler shutdown cancelled the worker itself: park
                # the job back to QUEUED (journaled) so a restarted
                # service resumes it instead of failing it.  It is not
                # re-pushed — the workers are going away — but it
                # keeps its dedup-key claim, so late duplicate
                # submissions still coalesce onto it.
                self.counters["parked"] += 1
                job.events.emit("progress", {
                    "phase": "parked", "attempts": job.attempts,
                })
                self._advance(job, JobState.QUEUED)
                raise
        except Exception as exc:
            # Infrastructure failures (the worker crashed under the
            # job, the pool's IPC broke) are transient and retryable
            # for every spec; the job's own exception is not.
            transient = isinstance(exc, (BrokenExecutor, OSError, EOFError))
            self._fail_or_retry(job, f"{type(exc).__name__}: {exc}", transient=transient)
        else:
            if job.cancel_requested:
                self._advance(job, JobState.CANCELLED)
                self._on_terminal(job)
            else:
                job.result = result
                metrics = result.get("metrics") if isinstance(result, dict) else None
                if metrics:
                    job.events.emit("metrics", metrics)
                self._advance(job, JobState.DONE)
                self._on_terminal(job)
        finally:
            self._inflight.pop(job.id, None)

    def _fail_or_retry(self, job: Job, error: str, *, transient: bool = False) -> None:
        """Fail ``job``, or spend one retry and re-queue it.

        ``transient`` marks infrastructure causes (timeout, broken
        pool) that any job may retry; application-level failures are
        retried only when the spec is fault-flagged (it opted into
        replaying its own errors)."""
        eligible = transient or bool(job.spec.get("faults"))
        if eligible and job.retries_left > 0 and not job.cancel_requested:
            job.retries_left -= 1
            self.counters["retried"] += 1
            job.events.emit("progress", {
                "phase": "retry",
                "cause": "transient" if transient else "fault-flagged",
                "error": error,
                "retries_left": job.retries_left,
            })
            self._advance(job, JobState.QUEUED)
            self._push(job)
            return
        self._advance(job, JobState.FAILED, error=error)
        self._on_terminal(job)

    # ------------------------------------------------------------- dispatch

    async def _dispatch(self, job: Job) -> Dict[str, Any]:
        if job.kind == "synthetic":
            return await self._run_synthetic(job)
        if job.kind == "sweep":
            return await self._run_sweep(job)
        if job.kind == "check":
            return await self._run_check(job)
        if job.kind == "trace":
            return await self._run_trace(job)
        raise SpecError(f"unknown job kind {job.kind!r}")  # pragma: no cover

    async def _run_synthetic(self, job: Job) -> Dict[str, Any]:
        spec = job.spec
        sleep = float(spec.get("sleep", 0.0))
        if sleep:
            await asyncio.sleep(sleep)
        if job.attempts <= int(spec.get("fail_attempts", 0)):
            raise RuntimeError(f"synthetic fault (attempt {job.attempts})")
        rounds = max(1, int(spec.get("rounds", 1)))
        digest = str(spec.get("payload") or spec.get("key") or job.id).encode()
        for _ in range(rounds):
            digest = hashlib.sha256(digest).digest()
        return {
            "digest": digest.hex(),
            "rounds": rounds,
            "metrics": {"synthetic.rounds": rounds, "synthetic.attempts": job.attempts},
        }

    async def _run_sweep(self, job: Job) -> Dict[str, Any]:
        from repro.reporting.experiments import EXPERIMENTS
        from repro.serve.workers import run_sweep_target

        spec = job.spec
        exp_id = spec["experiment"]
        if exp_id not in EXPERIMENTS:
            raise SpecError(f"unknown experiment {exp_id!r}")
        quick = bool(spec.get("quick", False))
        loop = asyncio.get_running_loop()
        rec = await loop.run_in_executor(self._proc_pool(), run_sweep_target, exp_id, quick)
        if rec.get("error"):
            raise RuntimeError(f"experiment {exp_id} failed: {rec['error']}")
        # Store into the sweep runner's disk cache (atomic), so a later
        # benchmarks/run_all.py — or a later service restart — hits it.
        self._sweep_runner(quick)._store(rec)
        rec.setdefault("cached", False)
        return rec

    async def _run_check(self, job: Job) -> Dict[str, Any]:
        from repro.serve.workers import run_check_seed

        spec = job.spec
        loop = asyncio.get_running_loop()
        rec = await loop.run_in_executor(
            self._proc_pool(),
            run_check_seed,
            spec["seed"],
            int(spec.get("ops", 14)),
            bool(spec.get("faults", False)),
            spec.get("design"),
            spec.get("nodes"),
            spec.get("pes_per_node"),
            spec.get("max_bytes"),
            bool(spec.get("msg", False)),
        )
        return rec

    async def _run_trace(self, job: Job) -> Dict[str, Any]:
        # ``obs.install`` is process-global, so trace jobs serialise.
        async with self._trace_lock:
            import repro.obs as obs
            from repro.obs import SpanTracer, write_chrome_trace
            from repro.reporting.experiments import EXPERIMENTS, run_experiment

            spec = job.spec
            exp_id = spec["experiment"]
            if exp_id not in EXPERIMENTS:
                raise SpecError(f"unknown experiment {exp_id!r}")
            quick = bool(spec.get("quick", False))
            tracer = SpanTracer()

            def work() -> str:
                obs.install(tracer)
                try:
                    return run_experiment(exp_id, quick=quick)
                finally:
                    # Don't stomp a newer install if this job was
                    # cancelled and another trace has since started.
                    if obs.active() is tracer:
                        obs.uninstall()

            loop = asyncio.get_running_loop()
            fut = loop.run_in_executor(self._thread_pool(), work)
            emitted = 0
            while not fut.done():
                await asyncio.wait({fut}, timeout=0.1)
                emitted = self._emit_span_chunk(job, tracer, emitted)
            output = await fut
            emitted = self._emit_span_chunk(job, tracer, emitted, final=True)
            result: Dict[str, Any] = {
                "experiment": exp_id,
                "quick": quick,
                "output_sha256": hashlib.sha256(output.encode()).hexdigest(),
                "spans": len(tracer.spans),
                "instants": len(tracer.instants),
                "dropped": tracer.dropped,
                "metrics": {
                    "trace.spans": len(tracer.spans),
                    "trace.instants": len(tracer.instants),
                    "trace.dropped": tracer.dropped,
                },
            }
            if spec.get("output"):
                path = write_chrome_trace(tracer, spec["output"])
                result["trace_path"] = str(path)
            return result

    #: Span dicts included per streamed chunk (rest summarised by count).
    SPAN_CHUNK_LIMIT = 50

    def _emit_span_chunk(
        self, job: Job, tracer, emitted: int, final: bool = False
    ) -> int:
        total = len(tracer.spans)
        if total == emitted and not final:
            return emitted
        chunk = tracer.spans[emitted:emitted + self.SPAN_CHUNK_LIMIT]
        job.events.emit("spans", {
            "new": total - emitted,
            "total": total,
            "final": final,
            "spans": [
                {
                    "name": s.name,
                    "cat": s.cat,
                    "track": s.track,
                    "start": s.start,
                    "end": s.end,
                }
                for s in chunk
            ],
        })
        return total

    # ------------------------------------------------------------- stats

    def stats(self) -> Dict[str, Any]:
        dropped_events = truncated_chunks = 0
        for job in self.jobs.values():
            dropped_events += job.events.dropped
            truncated_chunks += job.events.truncated_chunks
        journal: Dict[str, Any] = {"enabled": self._journal is not None}
        if self._journal is not None:
            journal.update(self._journal.stats())
        return {
            "queue_depth": self._queued_count,
            "running": len(self._inflight),
            "workers": self.config.workers,
            "stopping": self._stopping,
            "draining": self._draining,
            "drain_started_at": self.drain_started_at,
            "jobs_registered": len(self.jobs),
            "memo_size": len(self._memo),
            "active_keys": len(self._active_by_key),
            "dropped_events": dropped_events,
            "truncated_chunks": truncated_chunks,
            "admission": {
                "max_queue": self.config.max_queue,
                "rejected_full": self.counters["rejected"],
                "rejected_draining": self.counters["rejected_draining"],
            },
            "journal": journal,
            "counters": dict(self.counters),
        }

    def metrics_snapshot(self):
        """The service's health as ``serve.*`` dotted keys in the
        repo-wide :class:`~repro.obs.metrics.MetricsSnapshot` shape,
        so service stats compose with engine/link/fault counters in
        one registry."""
        from repro.obs.metrics import MetricsSnapshot

        stats = self.stats()
        snap = MetricsSnapshot()
        for key in (
            "queue_depth", "running", "workers", "jobs_registered",
            "memo_size", "active_keys", "dropped_events", "truncated_chunks",
        ):
            snap.put(f"serve.{key}", stats[key])
        snap.put("serve.stopping", int(stats["stopping"]))
        snap.put("serve.draining", int(stats["draining"]))
        for key, value in stats["admission"].items():
            snap.put(f"serve.admission.{key}", value)
        journal = stats["journal"]
        snap.put("serve.journal.enabled", int(journal["enabled"]))
        if journal["enabled"]:
            for key in ("jseq", "depth", "appended", "compactions"):
                snap.put(f"serve.journal.{key}", journal[key])
            snap.put(
                "serve.journal.last_compaction_at",
                journal["last_compaction_at"] or 0.0,
            )
        for key, value in stats["counters"].items():
            snap.put(f"serve.counters.{key}", value)
        return snap
