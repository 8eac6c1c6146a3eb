"""Coverage for the ``repro serve`` subsystem: job lifecycle edges,
dedup-key semantics, scheduler behaviour (coalescing, memo, cancel,
timeout, bounded retry, priority), the HTTP wire surface, the
streamed-telemetry acceptance contract, and durability (write-ahead
journal, restart recovery, graceful drain, stream resume)."""

import asyncio
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.bench.runner import SweepRunner, target_cache_key
from repro.reporting.artifacts import (
    artifact_doc,
    read_json_artifact,
    write_json_artifact,
)
from repro.reporting.experiments import run_experiment
from repro.serve.client import JobFailed, ServeClient, ServeError
from repro.serve.jobs import (
    InvalidTransition,
    Job,
    JobState,
    SpecError,
    dedup_key_for,
    validate_spec,
)
from repro.serve.journal import JobJournal, JournalError
from repro.serve.scheduler import Draining, JobScheduler, QueueFull, SchedulerConfig
from repro.serve.server import ServiceThread
from repro.serve.telemetry import EventBuffer

REPO = Path(__file__).resolve().parents[1]


def run_async(coro):
    return asyncio.run(coro)


async def scheduler_session(body, **config):
    """Start a scheduler, run ``body(sched)``, always stop it."""
    config.setdefault("workers", 2)
    sched = JobScheduler(SchedulerConfig(**config))
    await sched.start()
    try:
        return await body(sched)
    finally:
        await sched.stop()


async def wait_terminal(job, timeout=30.0):
    assert await job.events.wait_closed(timeout), f"job stuck in {job.state}"
    return job


# --------------------------------------------------------------- lifecycle


def test_lifecycle_legal_path_and_telemetry():
    job = Job(id="j1", kind="synthetic", spec={})
    job.advance(JobState.RUNNING)
    assert job.started_at is not None
    job.advance(JobState.DONE)
    assert job.state.terminal and job.finished_at is not None
    states = [e["data"]["state"] for e in job.events.since(0) if e["type"] == "state"]
    assert states == ["running", "done"]
    assert job.events.closed


@pytest.mark.parametrize("start,bad", [
    (JobState.QUEUED, JobState.FAILED),   # failures only happen while running
    (JobState.DONE, JobState.RUNNING),    # terminal states are final
    (JobState.CANCELLED, JobState.QUEUED),
    (JobState.FAILED, JobState.DONE),
])
def test_lifecycle_illegal_edges_raise(start, bad):
    job = Job(id="j1", kind="synthetic", spec={}, state=start)
    with pytest.raises(InvalidTransition):
        job.advance(bad)
    assert job.state is start  # never half-updated


def test_lifecycle_cache_hit_and_retry_edges_are_legal():
    hit = Job(id="j1", kind="sweep", spec={})
    hit.advance(JobState.DONE)  # QUEUED -> DONE: the dedup cache-hit edge
    retry = Job(id="j2", kind="check", spec={}, state=JobState.RUNNING)
    retry.advance(JobState.QUEUED)  # RUNNING -> QUEUED: the bounded-retry edge


# --------------------------------------------------------------- dedup keys


def test_sweep_dedup_key_is_the_sweep_runner_cache_key(tmp_path):
    runner = SweepRunner(tmp_path, jobs=1, quick=True)
    spec = {"kind": "sweep", "experiment": "fig6a", "quick": True}
    key = dedup_key_for("sweep", spec, runner.fingerprint)
    assert key == runner.cache_key("fig6a")
    assert key == target_cache_key("fig6a", quick=True, fingerprint=runner.fingerprint)


def test_dedup_key_variants_are_distinct():
    base = {"kind": "sweep", "experiment": "fig6a", "quick": True}
    keys = {
        dedup_key_for("sweep", base, "fp"),
        dedup_key_for("sweep", {**base, "quick": False}, "fp"),
        dedup_key_for("sweep", {**base, "experiment": "fig6b"}, "fp"),
        dedup_key_for("sweep", base, "other-fingerprint"),
    }
    assert len(keys) == 4

    check = {"kind": "check", "seed": 7}
    assert dedup_key_for("check", check, "fp") != dedup_key_for(
        "check", {**check, "faults": True}, "fp"
    )
    assert dedup_key_for("check", check, "fp") != dedup_key_for(
        "check", {**check, "seed": 8}, "fp"
    )


def test_synthetic_key_ignores_fingerprint_but_not_payload():
    spec = {"kind": "synthetic", "key": "a"}
    assert dedup_key_for("synthetic", spec, "fp1") == dedup_key_for(
        "synthetic", spec, "fp2"
    )
    assert dedup_key_for("synthetic", spec, "") != dedup_key_for(
        "synthetic", {"kind": "synthetic", "key": "b"}, ""
    )


def test_validate_spec_rejects_malformed():
    with pytest.raises(SpecError):
        validate_spec({"kind": "nope"})
    with pytest.raises(SpecError):
        validate_spec({"kind": "sweep"})  # no experiment
    with pytest.raises(SpecError):
        validate_spec({"kind": "check", "seed": "seven"})
    with pytest.raises(SpecError):
        validate_spec({"kind": "synthetic", "priority": "high"})
    assert validate_spec({"kind": "synthetic"}) == "synthetic"


# --------------------------------------------------------------- scheduler


def test_duplicate_submissions_coalesce_to_one_execution():
    async def body(sched):
        spec = {"kind": "synthetic", "key": "dup", "sleep": 0.05}
        first, mode_a = sched.submit(dict(spec))
        second, mode_b = sched.submit(dict(spec))
        assert (mode_a, mode_b) == ("new", "coalesced")
        assert second is first and first.coalesced == 1
        await wait_terminal(first)
        assert first.state is JobState.DONE
        # A third submission after completion answers from the memo.
        third, mode_c = sched.submit(dict(spec))
        assert mode_c == "cached" and third is first
        assert sched.counters["executed"] == 1
        assert sched.counters["submitted"] == 3

    run_async(scheduler_session(body))


def test_cancel_queued_job_is_immediate():
    async def body(sched):
        # Occupy the single worker so the next job stays queued.
        blocker, _ = sched.submit({"kind": "synthetic", "key": "b", "sleep": 5})
        queued, _ = sched.submit({"kind": "synthetic", "key": "q", "sleep": 5})
        await asyncio.sleep(0.05)
        assert queued.state is JobState.QUEUED
        sched.cancel(queued.id)
        assert queued.state is JobState.CANCELLED
        sched.cancel(blocker.id)
        await wait_terminal(blocker)
        assert blocker.state is JobState.CANCELLED
        assert sched.counters["cancelled"] == 2

    run_async(scheduler_session(body, workers=1))


def test_cancel_running_job_is_cooperative():
    async def body(sched):
        job, _ = sched.submit({"kind": "synthetic", "key": "r", "sleep": 30})
        await asyncio.sleep(0.05)
        assert job.state is JobState.RUNNING
        sched.cancel(job.id)
        await wait_terminal(job)
        assert job.state is JobState.CANCELLED

    run_async(scheduler_session(body))


def test_timeout_fails_the_job():
    async def body(sched):
        job, _ = sched.submit(
            {"kind": "synthetic", "key": "slow", "sleep": 30, "timeout": 0.05}
        )
        await wait_terminal(job)
        assert job.state is JobState.FAILED
        assert "timeout" in job.error
        assert sched.counters["timeouts"] == 1

    # Timeouts are transient, so with a retry budget the job would be
    # re-queued; a zero budget makes the first timeout terminal.
    run_async(scheduler_session(body, retry_limit=0))


def test_timeout_is_transient_and_retries_any_job():
    async def body(sched):
        # No faults flag: the retry budget still applies because a
        # worker timeout is an infrastructure (transient) cause.
        job, _ = sched.submit(
            {"kind": "synthetic", "key": "slow2", "sleep": 30, "timeout": 0.05}
        )
        await wait_terminal(job)
        assert job.state is JobState.FAILED
        assert job.attempts == 2  # first try + one transient retry
        assert sched.counters["retried"] == 1
        retries = [
            e["data"]
            for e in job.events.since(0)
            if e["type"] == "progress" and e["data"].get("phase") == "retry"
        ]
        assert len(retries) == 1
        assert retries[0]["cause"] == "transient"
        assert retries[0]["retries_left"] == 0

    run_async(scheduler_session(body, retry_limit=1))


def test_bounded_retry_for_fault_flagged_jobs():
    async def body(sched):
        job, _ = sched.submit(
            {"kind": "synthetic", "key": "flaky", "fail_attempts": 1, "faults": True}
        )
        await wait_terminal(job)
        assert job.state is JobState.DONE and job.attempts == 2
        assert sched.counters["retried"] == 1
        retries = [
            e["data"]
            for e in job.events.since(0)
            if e["type"] == "progress" and e["data"].get("phase") == "retry"
        ]
        assert len(retries) == 1 and retries[0]["cause"] == "fault-flagged"
        # Without the faults flag the same failure is terminal.
        dead, _ = sched.submit(
            {"kind": "synthetic", "key": "dead", "fail_attempts": 1}
        )
        await wait_terminal(dead)
        assert dead.state is JobState.FAILED and dead.attempts == 1

    run_async(scheduler_session(body, retry_limit=2))


def test_retry_budget_exhaustion_fails():
    async def body(sched):
        job, _ = sched.submit(
            {"kind": "synthetic", "key": "hopeless", "fail_attempts": 99, "faults": True}
        )
        await wait_terminal(job)
        assert job.state is JobState.FAILED
        assert job.attempts == 3  # first try + retry_limit retries

    run_async(scheduler_session(body, retry_limit=2))


def test_priority_orders_the_queue():
    async def body(sched):
        order = []
        blocker, _ = sched.submit({"kind": "synthetic", "key": "block", "sleep": 0.2})
        low, _ = sched.submit({"kind": "synthetic", "key": "low", "priority": 0})
        high, _ = sched.submit({"kind": "synthetic", "key": "high", "priority": 50})
        for job in (low, high):
            async def tag(j=job):
                await j.events.wait_closed(10)
                order.append(j.id)
            asyncio.ensure_future(tag())
        for job in (blocker, low, high):
            await wait_terminal(job)
        await asyncio.sleep(0.01)
        assert order == [high.id, low.id]

    run_async(scheduler_session(body, workers=1))


def test_queue_full_rejects():
    async def body(sched):
        sched.submit({"kind": "synthetic", "key": "a", "sleep": 5})
        sched.submit({"kind": "synthetic", "key": "b", "sleep": 5})
        with pytest.raises(QueueFull):
            for i in range(5):
                sched.submit({"kind": "synthetic", "key": f"c{i}", "sleep": 5})
        assert sched.counters["rejected"] == 1

    run_async(scheduler_session(body, workers=1, max_queue=2))


def test_metrics_event_precedes_terminal_state_and_matches_result():
    async def body(sched):
        job, _ = sched.submit({"kind": "synthetic", "key": "m", "rounds": 3})
        await wait_terminal(job)
        events = job.events.since(0)
        types = [e["type"] for e in events]
        assert types.index("metrics") < types.index("state", 1)
        streamed = [e for e in events if e["type"] == "metrics"][-1]["data"]
        assert streamed == job.result["metrics"]

    run_async(scheduler_session(body))


# ------------------------------------------------- real sweep via scheduler


def test_sweep_job_is_bit_identical_and_seeds_the_disk_cache(tmp_path):
    local_sha = hashlib.sha256(
        run_experiment("fig6a", quick=True).encode()
    ).hexdigest()

    async def body(sched):
        spec = {"kind": "sweep", "experiment": "fig6a", "quick": True}
        job, mode = sched.submit(dict(spec))
        assert mode == "new"
        await wait_terminal(job, timeout=120)
        assert job.state is JobState.DONE, job.error
        assert job.result["output_sha256"] == local_sha
        again, mode2 = sched.submit(dict(spec))
        assert mode2 == "cached" and again is job

    run_async(scheduler_session(body, cache_dir=tmp_path, sim_processes=1))

    # A fresh scheduler over the same cache dir answers from disk
    # without executing anything.
    async def fresh(sched):
        job, mode = sched.submit({"kind": "sweep", "experiment": "fig6a", "quick": True})
        assert mode == "cached" and job.cached
        assert job.state is JobState.DONE
        assert job.result["output_sha256"] == local_sha
        assert sched.counters["cached_disk"] == 1
        assert sched.counters["executed"] == 0

    run_async(scheduler_session(fresh, cache_dir=tmp_path, sim_processes=1))

    # And the record on disk is the sweep runner's own cache entry.
    runner = SweepRunner(tmp_path, jobs=1, quick=True)
    hit = runner._lookup("fig6a")
    assert hit is not None and hit.output_sha256 == local_sha


def test_unknown_experiment_fails_cleanly():
    async def body(sched):
        job, _ = sched.submit({"kind": "sweep", "experiment": "fig99", "quick": True})
        await wait_terminal(job)
        assert job.state is JobState.FAILED
        assert "fig99" in job.error

    run_async(scheduler_session(body))


# ------------------------------------------------------------- HTTP surface


@pytest.fixture()
def service(tmp_path):
    thread = ServiceThread(SchedulerConfig(workers=2, cache_dir=tmp_path))
    url = thread.start()
    client = ServeClient(url, timeout=30.0)
    try:
        yield client
    finally:
        client.close()
        thread.stop()


def test_http_submit_wait_and_stream(service):
    assert service.healthz()
    ack = service.submit({"kind": "synthetic", "key": "http", "rounds": 2})
    assert ack["dedup"] == "new"
    job_id = ack["job"]["id"]
    detail = service.wait(job_id, timeout=30)
    assert detail["state"] == "done"
    assert detail["result"]["rounds"] == 2
    # Replayed stream: running/metrics/done, and the streamed metrics
    # snapshot equals the final result's metrics.
    events = list(service.stream(job_id))
    states = [e["data"]["state"] for e in events if e["type"] == "state"]
    assert states[-1] == "done"
    metrics = [e["data"] for e in events if e["type"] == "metrics"]
    assert metrics and metrics[-1] == detail["result"]["metrics"]


def test_http_batch_dedup_modes(service):
    specs = [{"kind": "synthetic", "key": f"k{i % 2}"} for i in range(6)]
    acks = service.submit_batch(specs)
    assert len(acks) == 6
    assert sum(1 for a in acks if a["dedup"] == "new") == 2
    assert len({a["id"] for a in acks}) == 2
    ids = {a["id"] for a in acks}
    details = service.wait_many(ids, timeout=30)
    assert all(d["state"] == "done" for d in details.values())
    stats = service.stats()
    assert stats["counters"]["submitted"] == 6
    assert stats["counters"]["unique"] == 2


def test_http_cancel_and_errors(service):
    ack = service.submit({"kind": "synthetic", "key": "naptime", "sleep": 60})
    job = service.cancel(ack["job"]["id"])
    assert job["state"] in ("cancelled", "running")
    detail = service.wait(ack["job"]["id"], timeout=30, raise_on_failure=False)
    assert detail["state"] == "cancelled"

    with pytest.raises(ServeError) as err:
        service.job("j99999999")
    assert err.value.status == 404
    with pytest.raises(ServeError) as err:
        service.submit({"kind": "bogus"})
    assert err.value.status == 400
    with pytest.raises(JobFailed):
        service.wait(ack["job"]["id"], timeout=30)


# ------------------------------------------------------------ event buffer


def test_event_buffer_replay_last_and_drop_accounting():
    async def body():
        buf = EventBuffer(maxlen=4)
        for i in range(6):
            buf.emit("tick", {"i": i})
        assert len(buf) == 4
        assert buf.dropped == 2
        assert [e["data"]["i"] for e in buf.since(0)] == [2, 3, 4, 5]
        assert buf.last("tick")["data"]["i"] == 5
        assert buf.last("nope") is None
        buf.close()
        got = [e async for e in buf.stream(0)]
        assert [e["data"]["i"] for e in got] == [2, 3, 4, 5]

    run_async(body())


def test_event_buffer_stream_follows_live_emits():
    async def body():
        buf = EventBuffer()
        got = []

        async def follow():
            async for event in buf.stream(0):
                got.append(event["data"]["i"])

        task = asyncio.ensure_future(follow())
        await asyncio.sleep(0)
        for i in range(3):
            buf.emit("tick", {"i": i})
            await asyncio.sleep(0)
        buf.close()
        await asyncio.wait_for(task, 5)
        assert got == [0, 1, 2]

    run_async(body())


# ----------------------------------------------- durability: journal layer


def _admit_row(job_id="j1", key="k1"):
    return {
        "id": job_id, "kind": "synthetic", "spec": {"kind": "synthetic"},
        "priority": 0, "dedup_key": key, "timeout": 5.0, "submitted_at": 1.0,
    }


def test_journal_roundtrip_and_replay_idempotence(tmp_path):
    journal = JobJournal(tmp_path / "j")
    assert journal.append("admit", job=_admit_row()) == 1
    assert journal.append("state", id="j1", state="running", attempts=1) == 2
    journal.append("state", id="j1", state="done", attempts=1, result={"digest": "d"})
    journal.close()

    first = JobJournal(tmp_path / "j").recover()
    second = JobJournal(tmp_path / "j").recover()  # pure read: replay twice
    assert [r.as_dict() for r in first.jobs.values()] == [
        r.as_dict() for r in second.jobs.values()
    ]
    assert first.next_jseq == second.next_jseq == 4
    rec = first.jobs["j1"]
    assert rec.terminal and not rec.resumable
    assert rec.state == "done" and rec.result == {"digest": "d"}
    assert [(e["jseq"], e["state"]) for e in rec.edges] == [
        (2, "running"), (3, "done")
    ]


def test_journal_orphan_state_record_is_a_hard_error(tmp_path):
    journal = JobJournal(tmp_path / "j")
    journal.append("state", id="ghost", state="running", attempts=1)
    journal.close()
    with pytest.raises(JournalError):
        JobJournal(tmp_path / "j").recover()
    with pytest.raises(JournalError):
        journal.append("frobnicate")


def test_journal_compaction_skips_tail_covered_by_snapshot(tmp_path):
    journal = JobJournal(tmp_path / "j")
    journal.append("admit", job=_admit_row())
    journal.append("state", id="j1", state="running", attempts=1)
    stale_tail = journal.tail_path.read_text()
    folded = JobJournal(tmp_path / "j").recover()
    journal.compact([r.as_dict() for r in folded.jobs.values()])
    journal.close()
    # Simulate a crash between snapshot-rename and tail-truncate: the
    # old tail records are still there, all with jseq <= snapshot.jseq.
    journal.tail_path.write_text(stale_tail)

    state = JobJournal(tmp_path / "j").recover()
    assert state.snapshot_jseq == 2 and state.snapshot_at is not None
    rec = state.jobs["j1"]
    assert rec.state == "running" and rec.attempts == 1
    # Double-applying the tail would duplicate this edge.
    assert [e["jseq"] for e in rec.edges] == [2]


# -------------------------------------------- durability: scheduler layer


def test_stop_parks_running_job_and_restart_resumes_exactly_once(tmp_path):
    jdir = tmp_path / "journal"

    async def first_generation():
        sched = JobScheduler(SchedulerConfig(workers=1, journal_dir=jdir))
        await sched.start()
        running, _ = sched.submit({"kind": "synthetic", "key": "park-me", "sleep": 0.5})
        queued, _ = sched.submit({"kind": "synthetic", "key": "later", "rounds": 2})
        await asyncio.sleep(0.05)
        assert running.state is JobState.RUNNING
        await sched.stop()
        # Shutdown parks the running job back to QUEUED (journaled);
        # it must NOT be failed with CANCELLED "service shutdown".
        assert running.state is JobState.QUEUED
        assert sched.counters["parked"] == 1
        assert sched.counters["cancelled"] == 0
        return running.id, queued.id

    running_id, queued_id = run_async(first_generation())

    async def second_generation():
        sched = JobScheduler(SchedulerConfig(workers=2, journal_dir=jdir))
        await sched.start()  # replays the journal before workers run
        try:
            assert sched.counters["recovered"] == 2
            assert sched.counters["resumed"] == 2
            parked = sched.jobs[running_id]
            assert parked.recovered
            for job_id in (running_id, queued_id):
                await wait_terminal(sched.jobs[job_id])
                assert sched.jobs[job_id].state is JobState.DONE
            # Exactly-once admission: resubmitting the journaled spec
            # answers from the recovered job, same id, no re-execution.
            again, mode = sched.submit({"kind": "synthetic", "key": "later", "rounds": 2})
            assert mode == "cached" and again.id == queued_id
            # The id counter resumes past recovered ids: no collisions.
            fresh, _ = sched.submit({"kind": "synthetic", "key": "brand-new"})
            assert int(fresh.id.lstrip("j")) > int(queued_id.lstrip("j"))
            await wait_terminal(fresh)
            # Replaying the same journal again is suppressed by id.
            assert sched.recover() == {"recovered": 0, "resumed": 0}
            assert sched.counters["recovered"] == 2
        finally:
            await sched.stop()

    run_async(second_generation())


def test_compaction_on_terminal_edge_keeps_fresh_result(tmp_path):
    """Regression: the compaction threshold tripping exactly on a
    terminal edge must not erase the job.  Between the journaled DONE
    edge and ``_on_terminal`` the job is finished but not yet
    memoized; a compaction in that window used to drop it from the
    snapshot (terminal, not memoized => treated as evicted)."""
    jdir = tmp_path / "journal"

    async def body():
        # compact_every=3: admit(1) + running(2) + done(3) trips the
        # threshold on the DONE append itself.
        sched = JobScheduler(SchedulerConfig(
            workers=1, journal_dir=jdir, journal_compact_every=3,
        ))
        await sched.start()
        job, _ = sched.submit({"kind": "synthetic", "key": "fresh", "rounds": 2})
        await wait_terminal(job)
        assert job.state is JobState.DONE
        assert sched._journal.compactions == 1
        await sched.stop()
        return job.id, job.result

    job_id, result = run_async(body())
    state = JobJournal(jdir).recover()
    rec = state.jobs[job_id]  # KeyError here == the race regressed
    assert rec.state == "done"
    assert rec.result is not None and rec.result["digest"] == result["digest"]


def test_drain_parks_rejects_and_compacts(tmp_path):
    async def body():
        sched = JobScheduler(SchedulerConfig(
            workers=1, journal_dir=tmp_path / "j", drain_grace=0.05,
        ))
        await sched.start()
        job, _ = sched.submit({"kind": "synthetic", "key": "d", "sleep": 30})
        await asyncio.sleep(0.05)
        assert job.state is JobState.RUNNING
        stats = await sched.drain()
        assert stats["draining"] is True
        assert stats["drain_started_at"] is not None
        assert stats["journal"]["compactions"] >= 1
        assert job.state is JobState.QUEUED  # parked inside the grace window
        assert job.events.closed  # eos flushed to any follower
        with pytest.raises(Draining):
            sched.submit({"kind": "synthetic", "key": "too-late"})
        assert sched.counters["rejected_draining"] == 1

    run_async(body())


def test_stats_and_metrics_snapshot_cover_durability(tmp_path):
    async def body():
        sched = JobScheduler(SchedulerConfig(
            workers=1, journal_dir=tmp_path / "j", journal_compact_every=3,
        ))
        await sched.start()
        job, _ = sched.submit({"kind": "synthetic", "key": "s"})
        await wait_terminal(job)
        stats = sched.stats()
        assert stats["journal"]["enabled"] is True
        assert stats["journal"]["appended"] == 3
        assert stats["journal"]["depth"] == 0  # compacted on the DONE edge
        assert stats["journal"]["compactions"] == 1
        assert stats["journal"]["last_compaction_at"] is not None
        assert stats["admission"]["max_queue"] == sched.config.max_queue
        assert stats["admission"]["rejected_full"] == 0
        snap = sched.metrics_snapshot()
        assert snap.get("serve.journal.enabled") == 1
        assert snap.get("serve.journal.compactions") == 1
        assert snap.get("serve.counters.done") == 1
        assert snap.get("serve.draining") == 0
        assert snap.get("serve.admission.max_queue") == sched.config.max_queue
        await sched.stop()

    run_async(body())
    # Journal off: the stats surface says so and the snapshot skips
    # the journal gauges rather than inventing zeros.
    bare = JobScheduler(SchedulerConfig())
    assert bare.stats()["journal"] == {"enabled": False}
    snap = bare.metrics_snapshot()
    assert snap.get("serve.journal.enabled") == 0
    assert snap.get("serve.journal.depth") is None


# ------------------------------------------------- durability: HTTP layer


def test_http_drain_turns_readyz_503_and_rejects_submissions(tmp_path):
    thread = ServiceThread(SchedulerConfig(workers=1, cache_dir=tmp_path))
    url = thread.start()
    client = ServeClient(url, timeout=10.0, retries=0)
    try:
        assert client.healthz()
        assert client._request("GET", "/readyz")["ok"] is True
        thread.drain(grace=0.0)
        with pytest.raises(ServeError) as err:
            client.submit({"kind": "synthetic", "key": "too-late"})
        assert err.value.status == 503
        with pytest.raises(ServeError) as err:
            client._request("GET", "/readyz")
        assert err.value.status == 503
        assert client.healthz()  # liveness stays green while draining
    finally:
        client.close()
        thread.stop()


def test_http_queue_full_answers_429(tmp_path):
    thread = ServiceThread(SchedulerConfig(workers=1, max_queue=1, cache_dir=tmp_path))
    url = thread.start()
    client = ServeClient(url, timeout=10.0, retries=0)
    try:
        client.submit({"kind": "synthetic", "key": "b1", "sleep": 30})
        deadline = 50
        while client.stats()["running"] != 1 and deadline:
            deadline -= 1
        client.submit({"kind": "synthetic", "key": "b2", "sleep": 30})
        with pytest.raises(ServeError) as err:
            client.submit({"kind": "synthetic", "key": "b3"})
        assert err.value.status == 429
        assert client.stats()["admission"]["rejected_full"] == 1
    finally:
        client.close()
        thread.stop()


def test_client_stream_resume_across_restart(tmp_path):
    jdir = tmp_path / "journal"
    config = dict(workers=1, journal_dir=jdir, cache_dir=tmp_path / "cache")
    thread = ServiceThread(SchedulerConfig(**config))
    client = ServeClient(thread.start(), timeout=10.0)
    ack = client.submit({"kind": "synthetic", "key": "resume-me", "rounds": 2})
    job_id = ack["job"]["id"]
    client.wait(job_id, timeout=30)
    edges = [e for e in client.stream(job_id) if e["type"] == "state" and "jseq" in e]
    assert [e["data"]["state"] for e in edges] == ["running", "done"]
    cursor = edges[0]["jseq"]  # client consumed up to the running edge
    client.close()
    thread.stop()

    thread2 = ServiceThread(SchedulerConfig(**config))
    client2 = ServeClient(thread2.start(), timeout=10.0)
    try:
        assert client2.stats()["counters"]["recovered"] == 1
        resumed = list(client2.stream_resume(job_id, after_jseq=cursor))
        jseqs = [e["jseq"] for e in resumed if "jseq" in e]
        assert jseqs and all(j > cursor for j in jseqs)
        assert len(jseqs) == len(set(jseqs))  # exactly once, no repeats
        states = [e["data"]["state"] for e in resumed if e["type"] == "state"]
        assert states == ["done"]
    finally:
        client2.close()
        thread2.stop()


def test_event_buffer_caps_span_chunk_payloads():
    buf = EventBuffer(maxlen=100, chunk_maxlen=2)
    for i in range(4):
        buf.emit("spans", {
            "new": 1, "total": i + 1, "final": False,
            "spans": [{"name": f"s{i}"}],
        })
    assert buf.truncated_chunks == 2
    events = buf.since(0)
    # Oldest chunks lose their payload but keep the envelope: seq
    # stays contiguous and the counts survive for accounting.
    assert [e["seq"] for e in events] == [1, 2, 3, 4]
    assert [bool(e["data"].get("stripped")) for e in events] == [
        True, True, False, False
    ]
    assert events[0]["data"]["total"] == 1
    assert "spans" not in events[0]["data"]
    assert events[3]["data"]["spans"] == [{"name": "s3"}]


# -------------------------------------------------------- artifact helpers


def test_artifact_roundtrip_and_schema_check(tmp_path):
    path = tmp_path / "x.json"
    write_json_artifact(path, artifact_doc("soak", {"n": 1}))
    doc = read_json_artifact(path, kind="soak")
    assert doc["schema"] == "repro/soak/v1" and doc["n"] == 1
    with pytest.raises(ValueError):
        read_json_artifact(path, kind="other")
    with pytest.raises(ValueError):
        artifact_doc("bad/kind", {})
    with pytest.raises(ValueError):
        artifact_doc("k", {"schema": "clash"})


def test_artifact_write_is_atomic_no_tmp_droppings(tmp_path):
    path = tmp_path / "a.json"
    for i in range(3):
        write_json_artifact(path, {"i": i})
    assert json.loads(path.read_text()) == {"i": 2}
    assert [p.name for p in tmp_path.iterdir()] == ["a.json"]


# ------------------------------------------------------------- CLI surface


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "repro", *args],
        capture_output=True, text=True, timeout=120,
        cwd=REPO, env={**os.environ, "PYTHONPATH": str(REPO / "src")},
    )


def test_cli_no_command_prints_usage_and_exits_nonzero():
    proc = run_cli()
    assert proc.returncode == 2
    for command in ("list", "run", "trace", "check", "serve", "submit"):
        assert command in proc.stderr
    assert "usage:" in proc.stderr


def test_cli_unknown_command_prints_usage_and_exits_nonzero():
    proc = run_cli("frobnicate")
    assert proc.returncode == 2
    assert "unknown command 'frobnicate'" in proc.stderr
    assert "usage:" in proc.stderr


def test_cli_help_prints_usage_and_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "usage:" in proc.stdout and "serve" in proc.stdout
