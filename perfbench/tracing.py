"""Traced run: per-layer counts and self time.

Tracing lives entirely in the benchmark.  ``Installed`` wraps the public
entry points of each ``src/repro`` layer listed in ``ENTRIES`` (plus the
generator each two-sided engine moves data in); its ``uninstall`` puts
the originals back.  A wrapper around a generator-based entry point wraps
the generator it returns too, so every *resume* is timed, not just its
creation.  Self time is a span's duration minus the time its child
spans cover, kept per entry key on one stack.

``run_traced`` runs one pass with every unit twice, untraced then
traced, and counts a unit as failed unless both runs produce the same
output digest (which includes the engine's ``SimStats`` totals).  An
entry point in ``ENTRIES`` or a field in ``_STATS`` that the program no
longer has makes the whole run incorrect, so a rename cannot pass as a
layer doing no work.  Counts are totals over the pass (so they repeat
exactly for one seed); self times are normalised milliseconds per
request over every traced request.  Spans are kept in
memory and written to ``perfbench/out/`` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter
from statistics import median
from types import GeneratorType
from typing import Dict, List, Tuple

from refclock import RefClock
from stats import percentile
import workloads

#: ``(key, module, class or None, attribute names)``.  The key's first
#: dotted part is the layer.
ENTRIES = (
    ("simulator.run", "repro.simulator.core", "Simulator", ("run",)),
    ("shmem.putmem", "repro.shmem.runtime", "Runtime", ("putmem",)),
    ("shmem.getmem", "repro.shmem.runtime", "Runtime", ("getmem",)),
    ("shmem.atomic", "repro.shmem.runtime", "Runtime",
     ("atomic_fetch_add", "atomic_compare_swap", "atomic_swap", "atomic_fetch", "atomic_set")),
    ("shmem.sync", "repro.shmem.runtime", "Runtime", ("quiet", "fence")),
    ("hardware.execute", "repro.hardware.links", "TransferSpec", ("execute",)),
    ("cuda.copy", "repro.cuda.api", "CudaContext", ("memcpy", "memset")),
    ("cuda.memory", "repro.cuda.memory", "Ptr", ("read", "read_view", "snapshot", "write", "fill")),
    ("ib.rdma_write", "repro.ib.verbs", "Verbs", ("rdma_write",)),
    ("ib.rdma_read", "repro.ib.verbs", "Verbs", ("rdma_read",)),
    ("ib.post_send", "repro.ib.verbs", "Verbs", ("post_send",)),
    ("ib.atomic", "repro.ib.verbs", "Verbs", ("fetch_add", "compare_swap", "swap")),
    ("ib.ud", "repro.ib.ud", "UDTransport", ("send_packet",)),
    ("msg.post", "repro.msg.engine", "MsgEngine", ("isend", "irecv")),
    ("msg.move", "repro.msg.engine", "MsgEngine", ("_eager", "_rendezvous")),
    ("mpi.isend", "repro.mpi.core", "MpiComm", ("isend",)),
    ("mpi.post", "repro.mpi.core", "MpiComm", ("irecv", "send", "recv", "sendrecv", "waitall")),
    ("mpi.move", "repro.mpi.core", "MpiWorld", ("_transfer",)),
    ("apps.stencil2d", "repro.apps.stencil2d", None, ("run_stencil2d", "stencil_program")),
    ("apps.lbm", "repro.apps.lbm", None, ("run_lbm", "lbm_program")),
    ("obs.span", "repro.obs.spans", "SpanTracer", ("begin", "complete")),
    ("obs.other", "repro.obs.spans", "SpanTracer", ("end", "instant")),
    ("check.reference", "repro.check.reference", None, ("execute_reference",)),
    ("check.run", "repro.check.runner", None, ("run_workload",)),
    ("check.oracles", "repro.check.oracles", None, ("check_workload",)),
)
#: Entry keys whose ``nbytes`` argument (positional index) is summed.
BYTE_ARGS = {"cuda.copy": 3}
#: Entry points that return an SPMD program (a generator function).
FACTORIES = ("stencil_program", "lbm_program")
#: In-memory span cap; spans past it are counted, not kept.
SPAN_CAP = 200_000


class LayerClock:
    """One stack of open spans; self time and call counts per key."""

    def __init__(self) -> None:
        self.stack: List[Tuple[str, int]] = []
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.calls: Counter = Counter()
        self.nbytes: Counter = Counter()
        self.spans: List[tuple] = []
        self.dropped = 0
        self.last = time.perf_counter_ns()

    def enter(self, key: str) -> None:
        now = time.perf_counter_ns()
        if self.stack:
            self.self_ns[self.stack[-1][0]] += now - self.last
        self.stack.append((key, now))
        self.last = now

    def leave(self) -> None:
        now = time.perf_counter_ns()
        key, start = self.stack.pop()
        self.self_ns[key] += now - self.last
        self.incl_ns[key] += now - start
        self.last = now
        if len(self.spans) < SPAN_CAP:
            self.spans.append((key, start, now, len(self.stack)))
        else:
            self.dropped += 1


def _timed_gen(clock: LayerClock, key: str, gen):
    """Drive ``gen`` like ``yield from`` would, timing each resume."""
    value, exc = None, None
    while True:
        clock.enter(key)
        try:
            item = gen.send(value) if exc is None else gen.throw(exc)
        except StopIteration as stop:
            clock.leave()
            return stop.value
        except BaseException:
            clock.leave()
            raise
        clock.leave()
        value, exc = None, None
        try:
            value = yield item
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as caught:  # forwarded into ``gen``
            exc = caught


def _wrap(clock: LayerClock, key: str, fn):
    byte_arg = BYTE_ARGS.get(key)
    factory = fn.__name__ in FACTORIES

    def wrapped_result(res):
        if type(res) is GeneratorType:
            timed = _timed_gen(clock, key, res)
            timed.__name__, timed.__qualname__ = res.__name__, res.__qualname__
            return timed
        if factory:
            return _wrap(clock, key, res)
        return res

    @functools.wraps(fn)
    def call(*args, **kwargs):
        clock.calls[key] += 1
        if byte_arg is not None and len(args) > byte_arg:
            clock.nbytes[key] += args[byte_arg]
        clock.enter(key)
        try:
            res = fn(*args, **kwargs)
        finally:
            clock.leave()
        return wrapped_result(res)

    return call


class Installed:
    """The wrappers of one traced unit; ``uninstall`` restores everything."""

    def __init__(self, clock: LayerClock, on_job) -> None:
        self.saved: List[tuple] = []
        self.missing: List[str] = []
        for key, modname, clsname, names in ENTRIES:
            mod = importlib.import_module(modname)
            owner = getattr(mod, clsname) if clsname else mod
            for name in names:
                orig = owner.__dict__.get(name) if clsname else getattr(mod, name, None)
                if orig is None:
                    self.missing.append(f"{modname}.{clsname or ''}.{name}")
                    continue
                self._patch(owner, name, orig, _wrap(clock, key, orig))
                if clsname is None:
                    # ``from module import fn`` copies elsewhere in repro.
                    for other in list(sys.modules.values()):
                        if (other is not mod and getattr(other, "__name__", "").startswith("repro")
                                and other.__dict__.get(name) is orig):
                            self._patch(other, name, orig, getattr(mod, name))
        job_cls = importlib.import_module("repro.shmem.job").ShmemJob
        run = job_cls.__dict__["run"]

        def run_and_observe(job, *args, **kwargs):
            res = run(job, *args, **kwargs)
            clock.enter("bench")
            try:
                on_job(job)
            finally:
                clock.leave()
            return res

        self._patch(job_cls, "run", run, run_and_observe)

    def _patch(self, owner, name, orig, new) -> None:
        self.saved.append((owner, name, orig))
        setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self.saved):
            setattr(owner, name, orig)
        self.saved.clear()


class JobCounts:
    """Per-job counters read from ``snapshot_job`` after each run."""

    def __init__(self) -> None:
        self.c: Counter = Counter()

    def __call__(self, job) -> None:
        from repro.obs.metrics import snapshot_job

        snap = snapshot_job(job)
        for key, value in snap.section("link").items():
            if key.endswith(".bytes"):
                self.c["hardware.link_bytes"] += value
            elif key.endswith(".transfers"):
                self.c["hardware.transfers"] += value
        for proto, n in snap.section("protocol").items():
            self.c[f"shmem.protocol.{proto}"] += n


def protocol_names() -> List[str]:
    from repro.shmem.constants import Protocol

    return [p.value for p in Protocol]


def per_layer_names() -> List[str]:
    """Every per-layer metric, in report order (BENCHMARK.json lists the same)."""
    return [name for name, _ in _UNITS] + [f"shmem.protocol.{p}" for p in protocol_names()]


#: Metric name and unit, protocols aside.
_UNITS = (
    ("simulator.events_processed", "count"), ("simulator.events_scheduled", "count"),
    ("simulator.host_us_per_event", "us/event"), ("simulator.run_self_ms", "ms/req"),
    ("shmem.fastpath_batches", "count"), ("shmem.analytic_flows", "count"),
    ("shmem.contended_windows", "count"), ("shmem.collective_closed_forms", "count"),
    ("shmem.vectorised_events", "count"),
    ("shmem.putmem_calls", "count"), ("shmem.getmem_calls", "count"),
    ("shmem.atomic_calls", "count"), ("shmem.putmem_self_ms", "ms/req"),
    ("shmem.getmem_self_ms", "ms/req"),
    ("hardware.transfers", "count"), ("hardware.execute_self_ms", "ms/req"),
    ("hardware.link_bytes", "bytes"),
    ("cuda.copy_calls", "count"), ("cuda.bytes_copied", "bytes"), ("cuda.self_ms", "ms/req"),
    ("ib.rdma_write_calls", "count"), ("ib.rdma_read_calls", "count"),
    ("ib.post_send_calls", "count"), ("ib.self_ms", "ms/req"), ("ib.rc_retries", "count"),
    ("ib.ud_packets", "count"), ("ib.ud_drops", "count"),
    ("msg.eager", "count"), ("msg.rendezvous", "count"), ("msg.ud_resends", "count"),
    ("msg.self_ms", "ms/req"),
    ("mpi.sends", "count"), ("mpi.self_ms", "ms/req"),
    ("faults.injected", "count"), ("faults.failovers", "count"),
    ("apps.self_ms", "ms/req"),
    ("obs.spans_recorded", "count"), ("obs.self_ms", "ms/req"),
    ("check.oracles_run", "count"), ("check.violations", "count"), ("check.reference_ms", "ms/req"),
    ("serve.queue_wait_ms_p50", "ms/req"), ("serve.queue_wait_ms_p99", "ms/req"),
    ("serve.exec_ms_p50", "ms/req"), ("serve.overhead_ms_p50", "ms/req"),
    ("serve.client_overhead_ms_p50", "ms/req"), ("serve.journal_appends", "count"),
    ("serve.cold_ratio", "ratio"),
    ("bench.trace_overhead_pct", "%"),
)
UNITS: Dict[str, str] = dict(_UNITS)

#: SimStats field -> per-layer metric.
_STATS = {
    "processed": "simulator.events_processed",
    "scheduled": "simulator.events_scheduled",
    "fastpath_batches": "shmem.fastpath_batches",
    "analytic_flows": "shmem.analytic_flows",
    "contended_windows": "shmem.contended_windows",
    "collective_closed_forms": "shmem.collective_closed_forms",
    "vectorised_events": "shmem.vectorised_events",
    "retries": "ib.rc_retries",
    "ud_packets": "ib.ud_packets",
    "ud_drops": "ib.ud_drops",
    "msg_eager": "msg.eager",
    "msg_rendezvous": "msg.rendezvous",
    "ud_resends": "msg.ud_resends",
    "failovers": "faults.failovers",
    "flap_windows": "faults.injected",
    "hca_stalls": "faults.injected",
    "cq_errors": "faults.injected",
}
#: Call-count metric -> entry key.
_CALLS = {
    "shmem.putmem_calls": "shmem.putmem",
    "shmem.getmem_calls": "shmem.getmem",
    "shmem.atomic_calls": "shmem.atomic",
    "cuda.copy_calls": "cuda.copy",
    "ib.rdma_write_calls": "ib.rdma_write",
    "ib.rdma_read_calls": "ib.rdma_read",
    "ib.post_send_calls": "ib.post_send",
    "mpi.sends": "mpi.isend",
    "obs.spans_recorded": "obs.span",
}
#: Self-time metric -> entry-key prefix it sums.
_SELF = {
    "simulator.run_self_ms": "simulator.",
    "shmem.putmem_self_ms": "shmem.putmem",
    "shmem.getmem_self_ms": "shmem.getmem",
    "hardware.execute_self_ms": "hardware.execute",
    "cuda.self_ms": "cuda.",
    "ib.self_ms": "ib.",
    "msg.self_ms": "msg.",
    "mpi.self_ms": "mpi.",
    "apps.self_ms": "apps.",
    "obs.self_ms": "obs.",
    "check.reference_ms": "check.reference",
}


def _unknown_stats(engine: dict) -> List[str]:
    """``_STATS`` fields that ``engine`` lacks.  A renamed or removed
    SimStats field fails the traced run instead of reading 0."""
    return [f"SimStats.{field}" for field in _STATS if field not in engine]


def _stats_counts(engine: dict) -> Counter:
    out: Counter = Counter()
    for field, metric in _STATS.items():
        out[metric] += engine[field]
    return out


def _result(values: Dict[str, float]) -> Dict[str, dict]:
    unit = dict(UNITS)
    for p in protocol_names():
        unit[f"shmem.protocol.{p}"] = "count"
    return {name: {"value": values.get(name, 0), "unit": unit[name]}
            for name in per_layer_names()}


def run_traced(wl, clock: RefClock, measure) -> dict:
    """One pass, every unit run untraced and then traced.  A unit whose
    two runs differ, or a wrapped entry point or SimStats field that no
    longer exists, makes the run incorrect."""
    if isinstance(wl, workloads.ServeCold):
        return _serve_traced(wl, clock, measure)
    from repro.simulator.core import GLOBAL_STATS

    lc = LayerClock()
    jobs = JobCounts()
    counts: Counter = Counter()
    #: Per traced unit: (t_mid, self-ns delta, simulator.run inclusive
    #: ns, events processed, requests).
    unit_self: List[tuple] = []
    ratios: List[float] = []
    failures: List[str] = []
    missing: List[str] = _unknown_stats(GLOBAL_STATS.as_dict())
    warm_ok = wl.warm_up()

    def paired(unit, out):
        plain: list = []
        digest_plain = wl.run_unit(unit, clock, plain)
        traced: list = []
        before_self, before_calls = Counter(lc.self_ns), Counter(lc.calls)
        before_bytes, before_jobs = Counter(lc.nbytes), Counter(jobs.c)
        before_incl = lc.incl_ns["simulator.run"]
        inst = Installed(lc, jobs)
        missing.extend(m for m in inst.missing if m not in missing)
        try:
            digest_traced = wl.run_unit(unit, clock, traced)
        finally:
            inst.uninstall()
        engine = GLOBAL_STATS.as_dict()
        same = digest_plain == digest_traced
        if not same:
            failures.append(f"{traced[0].label if traced else unit}: traced output differs")
        for p, t in zip(plain, traced):
            t.ok = t.ok and p.ok and same
            ratios.append((t.t1 - t.t0) / (p.t1 - p.t0))
        out.extend(traced)
        t_mid = (traced[0].t0 + traced[-1].t1) / 2
        unit_self.append((t_mid, lc.self_ns - before_self,
                          lc.incl_ns["simulator.run"] - before_incl, engine.get("processed", 0), len(traced)))
        if not missing:
            counts.update(_stats_counts(engine))
            for metric, key in _CALLS.items():
                counts[metric] += lc.calls[key] - before_calls[key]
            counts["cuda.bytes_copied"] += lc.nbytes["cuda.copy"] - before_bytes["cuda.copy"]
            counts.update(jobs.c - before_jobs)
            counts.update(getattr(wl, "unit_counts", {}))

    records, _ = measure(wl, clock, 1, paired)
    clock.sample(3)
    values: Dict[str, float] = dict(counts)
    n_req = sum(u[4] for u in unit_self)
    norm_self: Counter = Counter()
    incl_us = events = 0.0
    for t_mid, delta, incl, processed, _ in unit_self:
        scale = clock.scale_at(t_mid)
        for key, ns in delta.items():
            norm_self[key] += ns * scale / 1e6
        incl_us += incl * scale / 1e3
        events += processed
    for metric, prefix in _SELF.items():
        values[metric] = sum(v for k, v in norm_self.items() if k.startswith(prefix)) / n_req
    values["simulator.host_us_per_event"] = incl_us / events if events else 0.0
    values["bench.trace_overhead_pct"] = (median(ratios) - 1.0) * 100.0
    _write_spans(wl, lc)
    failed = sum(not r.ok for r in records)
    print(f"{wl.name} traced: {len(records)} requests, {failed} failed, "
          f"tracing overhead {values['bench.trace_overhead_pct']:.1f}%, "
          f"{len(lc.spans)} spans kept, {lc.dropped} dropped")
    for line in failures[:10]:
        print(f"  {line}")
    if missing:
        print(f"  not found, update ENTRIES/_STATS: {', '.join(missing)}")
    print("diagnostics " + json.dumps({"workload": wl.name, **clock.summary()}, sort_keys=True))
    return {"correct": warm_ok and failed == 0 and not failures and not missing,
            "attempted": len(records),
            "failed": failed, "metrics": _result(values)}


def _serve_traced(wl, clock: RefClock, measure) -> dict:
    """Serve layer: per-job timestamps from the service and its /stats.
    Nothing is wrapped (the jobs run in the service's processes), so the
    tracing overhead is zero by construction."""
    records, _ = measure(wl, clock, 1, None)
    clock.sample(3)
    queue, execs, over, client = [], [], [], []
    for r in records:
        if not r.extra:
            continue
        scale = clock.scale_at((r.t0 + r.t1) / 2)
        e2e = r.t1 - r.t0
        queue.append(r.extra["queue_wait_s"] * 1e3 * scale)
        execs.append(r.extra["exec_s"] * 1e3 * scale)
        over.append((r.extra["exec_s"] - r.extra["worker_s"]) * 1e3 * scale)
        client.append((e2e - r.extra["exec_s"]) * 1e3 * scale)
    first = wl.pass_stats[0]
    counters = first["counters"]
    values: Dict[str, float] = {
        "serve.queue_wait_ms_p50": percentile(queue, 50),
        "serve.queue_wait_ms_p99": percentile(queue, 99),
        "serve.exec_ms_p50": percentile(execs, 50),
        "serve.overhead_ms_p50": percentile(over, 50),
        "serve.client_overhead_ms_p50": percentile(client, 50),
        "serve.journal_appends": first["journal_appends"],
        "serve.cold_ratio": counters.get("executed", 0) / max(1, counters.get("submitted", 0)),
        "bench.trace_overhead_pct": 0.0,
    }
    engine: Counter = Counter()
    for r in records:
        for k, v in (r.extra or {}).get("sim_stats", {}).items():
            engine[k] += v
    # Sweep workers' wall per event (the jobs run in the service's pool).
    sweeps = [r for r in records if r.extra and r.extra.get("sim_stats")]
    missing = _unknown_stats(sweeps[0].extra["sim_stats"] if sweeps else {})
    if not missing:
        values.update(_stats_counts(engine))
    events = sum(r.extra["sim_stats"].get("processed", 0) for r in sweeps)
    worker_us = sum(r.extra["worker_s"] * 1e6 * clock.scale_at((r.t0 + r.t1) / 2) for r in sweeps)
    values["simulator.host_us_per_event"] = worker_us / events if events else 0.0
    failed = sum(not r.ok for r in records)
    print(f"{wl.name} traced: {len(records)} requests, {failed} failed")
    if missing:
        print(f"  not in the sweep results, update _STATS: {', '.join(missing)}")
    print("diagnostics " + json.dumps({"workload": wl.name, **clock.summary()}, sort_keys=True))
    return {"correct": failed == 0 and not missing, "attempted": len(records), "failed": failed,
            "metrics": _result(values)}


def _write_spans(wl, lc: LayerClock) -> None:
    """Chrome trace-event JSON of the kept spans (written once, at exit)."""
    if not lc.spans:
        return
    base = lc.spans[0][1]
    events = [
        {"name": key, "cat": key.split(".")[0], "ph": "X", "pid": 1, "tid": depth,
         "ts": (start - base) / 1e3, "dur": (end - start) / 1e3}
        for key, start, end, depth in lc.spans
    ]
    out = workloads.HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{wl.name}-seed{wl.seed}.json"
    path.write_text(json.dumps({"traceEvents": events, "otherData": {"dropped": lc.dropped}}))
    print(f"  spans written to {path.relative_to(workloads.ROOT)}")
