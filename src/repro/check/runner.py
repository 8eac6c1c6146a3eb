"""Execute a generated workload on a real simulated SHMEM job.

``run_workload`` turns a declarative :class:`~repro.check.workload.
Workload` into an SPMD generator program, runs it on a fresh
:class:`~repro.shmem.job.ShmemJob`, and reads the final symmetric-heap
bytes back through the runtime's untimed read-back hook, as read-only
views of the finished heaps (no copy), each with the memory model's
write record clipped to its buffer (every byte outside it is zero).
The resulting :class:`RunObservation` carries everything the oracles
compare: heap bytes, fetched get/atomic values, exact virtual end
times, protocol counts, probe series, per-link byte counters, and the
full :class:`~repro.obs.metrics.MetricsSnapshot`.

A run can be steered into any of the three execution modes under test:
``fastpath=False`` disarms the tier-0 staged-host batch and putmem's
tier-2 commit, ``trace=True`` attaches a :class:`~repro.obs.spans.SpanTracer`
(which disarms them too), and ``Workload.faults`` arms a survivable
seeded fault plan (whose health tracker disarms them as well).  Link
holds run the same machine in every mode.  ``RunObservation.tiers_armed``
records whether the tiers could commit: a run where they could not is
its own event run, which is why a faulted check makes no separate
``fastpath=False`` run.

A faulted run's fault plan is scheduled from the program-phase start
of a probe job, which is run once per job shape (:func:`probe_start`).

Every put and send payload comes from one read-only table per check
(:func:`~repro.check.reference.draw_payloads`), shared by the runs and
the reference.

``corrupt_uid`` is the harness' self-test hook: after the program
body finishes, the PE that executed that op flips one byte of the
op's destination cell — a deliberate divergence the heap oracle must
catch and the shrinker must minimise to that single op.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.check.reference import Heaps, coll_fill, coll_fill_int64, draw_payloads
from repro.check.workload import Workload
from repro.hardware.params import wilkes_params
from repro.shmem.constants import Domain
from repro.shmem.job import ShmemJob
from repro.units import usec

#: Tight retry/health budget for fault runs (the chaos-test idiom):
#: fault windows resolve within a few retries instead of default
#: multi-millisecond timeouts.
FAULT_PARAMS = dict(rc_timeout=usec(5), rc_retry_cnt=3, health_cooldown=usec(200))

_COLLECTIVES = ("bcast", "reduce", "fcollect", "alltoall")


@dataclass
class RunObservation:
    """Everything the oracles need from one finished run."""

    workload: Workload
    mode: str
    #: ``(pe, buffer name) -> final bytes`` of every symmetric buffer:
    #: a read-only uint8 view of the finished job's heap (no copy),
    #: with the heap's write record clipped to the buffer.
    heaps: Dict[Tuple[int, str], np.ndarray] = field(default_factory=Heaps)
    gets: Dict[int, bytes] = field(default_factory=dict)
    atomics: Dict[int, int] = field(default_factory=dict)
    #: ``op uid -> (source, tag)`` envelope of every two-sided receive.
    msgs: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    elapsed: float = 0.0
    start_time: float = 0.0
    #: :attr:`Runtime.tiers_armed <repro.shmem.runtime.Runtime.tiers_armed>`
    #: of the run.  When false, no fast tier could commit, so the run
    #: took the event path for every op.
    tiers_armed: bool = True
    protocol_counts: Dict[str, int] = field(default_factory=dict)
    probe_series: Dict[str, Tuple[float, ...]] = field(default_factory=dict)
    stats: Dict[str, Any] = field(default_factory=dict)
    snapshot: Dict[str, Any] = field(default_factory=dict)
    #: Span tallies (only filled for ``trace=True`` runs):
    #: ``ib`` ``rdma_write`` op spans, and ``rdma_write`` link holds
    #: (``link`` spans with ``hop == 0`` — one per hold).
    span_rdma_writes: int = -1
    rdma_write_holds: int = -1
    open_spans: int = -1
    spans_total: int = -1

    def snapshot_section(self, prefix: str) -> Dict[str, Any]:
        cut = len(prefix) + 1
        return {
            k[cut:]: v for k, v in self.snapshot.items() if k.startswith(prefix + ".")
        }


def _job_for(nodes: int, design: str, pes_per_node: int, faults: bool,
             fault_plan=None) -> ShmemJob:
    from repro.hardware.node import NodeConfig

    params = wilkes_params(**FAULT_PARAMS) if faults else None
    node = NodeConfig(gpus=max(2, pes_per_node))
    return ShmemJob(
        nodes=nodes,
        design=design,
        params=params,
        node_config=node,
        pes_per_node=pes_per_node,
        fault_plan=fault_plan,
    )


def measure_start(w: Workload) -> float:
    """Virtual time at which programs leave init (probe-job idiom), so
    fault windows can be scheduled inside the program phase.  It depends
    only on the job's shape, so each shape is probed once per process
    (:func:`probe_start`)."""
    return probe_start(w.nodes, w.design, w.pes_per_node, w.faults)


@functools.lru_cache(maxsize=None)
def probe_start(nodes: int, design: str, pes_per_node: int, faults: bool) -> float:
    """Run the probe job of one shape (the fields :func:`_job_for`
    reads); memoised.  The probe's engine counters are kept out of
    :data:`~repro.simulator.core.GLOBAL_STATS`, so a check's totals do
    not depend on whether its shape was probed before."""
    from repro.simulator.core import GLOBAL_STATS, SimStats, reset_global_stats

    def empty(ctx):
        yield from ctx.barrier_all()

    tally = SimStats()
    tally.absorb(GLOBAL_STATS)
    start = _job_for(nodes, design, pes_per_node, faults).run(empty).start_time
    reset_global_stats().absorb(tally)
    return start


def _fault_plan(w: Workload, start: float):
    """A survivable, seed-deterministic plan: GDR-path flaps (scoped to
    the ``gdrP2P`` label so host-staged fallbacks stay up) and an HCA
    stall.  Every design must complete through retry + failover — the
    oracles then prove nothing double-applied.

    Workloads with two-sided ops additionally get an unlabelled HCA
    port flap, which RC rides out via retransmit (retries at
    0/5/15/35 µs under ``FAULT_PARAMS``).  It does not reach UD's
    drop-and-resend path: over seeds 10000–10049 of both faulted
    ``--msg`` sweeps, no UD segment is dropped or resent
    (``ud_drops == ud_resends == 0``)."""
    from repro.faults.plan import FaultPlan

    plan = (
        FaultPlan(seed=w.seed)
        .random_gdr_flaps(2, window=usec(400), down_for=usec(40), start=start + usec(5))
        .stall_hca(at=start + usec(60), duration=usec(50))
    )
    if w.has_msg_ops():
        # Repeating so at least one window lands on a msg round; each
        # 30 µs outage stays inside RC's 0/5/15/35 µs retry span.  The
        # up-gap must exceed the longest single transfer or retries can
        # never finish an attempt between windows: a 4 MiB host RC
        # payload is ~600 µs on the wire, and faulted msg payloads are
        # capped (MSG_FAULT_CAP) so even the slowest GDR leg fits.
        # Device-resident legs additionally ride the msg engine's
        # health failover onto host staging when a gdrP2P flap lands
        # mid-transfer.
        plan = plan.flap(at=start + usec(20), down_for=usec(30), node=0,
                         kind="hca-port", every=usec(1500), count=8)
    return plan


# --------------------------------------------------------------- program
def _run_p2p(payloads, ctx, bufs, op, out):
    sym = bufs.get(op.buf)
    if op.kind == "fence":
        yield from ctx.fence()
    elif op.kind in ("put", "put_nbi"):
        alloc = ctx.cuda.malloc if op.local_device else ctx.cuda.malloc_host
        src = alloc(op.nbytes, tag=f"op{op.uid}.src")
        src.write(payloads[op.uid])
        if op.kind == "put_nbi":
            # Non-blocking: returns immediately, completed by the
            # round-closing quiet (the source is never reused).
            ctx.putmem_nbi(sym.addr + op.offset, src, op.nbytes, op.target)
        else:
            yield from ctx.putmem(sym.addr + op.offset, src, op.nbytes, op.target)
    elif op.kind == "get":
        alloc = ctx.cuda.malloc if op.local_device else ctx.cuda.malloc_host
        dst = alloc(op.nbytes, tag=f"op{op.uid}.dst")
        yield from ctx.getmem(dst, sym.addr + op.offset, op.nbytes, op.target)
        out["gets"][op.uid] = dst.read(op.nbytes)
    elif op.kind == "put_u64":
        yield from ctx.put_uint64(sym.addr + op.offset, op.value, op.target)
    elif op.kind == "fadd":
        old = yield from ctx.atomic_fetch_add(sym.addr + op.offset, op.value, op.target)
        out["atomics"][op.uid] = int(old)
    elif op.kind == "swap":
        old = yield from ctx.atomic_swap(sym.addr + op.offset, op.value, op.target)
        out["atomics"][op.uid] = int(old)
    elif op.kind == "cswap":
        old = yield from ctx.atomic_compare_swap(
            sym.addr + op.offset, op.compare, op.value, op.target
        )
        out["atomics"][op.uid] = int(old)
    elif op.kind == "aset":
        yield from ctx.atomic_set(sym.addr + op.offset, op.value, op.target)
    elif op.kind == "afetch":
        old = yield from ctx.atomic_fetch(sym.addr + op.offset, op.target)
        out["atomics"][op.uid] = int(old)
    else:  # pragma: no cover
        raise ValueError(f"unknown p2p op kind {op.kind!r}")


def _run_collective(w: Workload, ctx, bufs, op):
    csrc, cdst = bufs["csrc"], bufs["cdst"]
    if op.kind == "bcast":
        cdst.local.write(coll_fill(w.seed, op.uid, ctx.pe, op.nbytes))
        yield from ctx.barrier_all()  # fills before the root's sends
        yield from ctx.broadcast(cdst, op.nbytes, root=op.root)
    elif op.kind == "reduce":
        count = op.nbytes // 8
        csrc.local.write(coll_fill_int64(w.seed, op.uid, ctx.pe, count).tobytes())
        yield from ctx.barrier_all()
        yield from ctx.reduce(cdst, csrc, count, dtype="int64", op="sum")
    elif op.kind == "fcollect":
        csrc.local.write(coll_fill(w.seed, op.uid, ctx.pe, op.nbytes))
        yield from ctx.barrier_all()
        yield from ctx.fcollect(cdst, csrc, op.nbytes)
    elif op.kind == "alltoall":
        csrc.local.write(coll_fill(w.seed, op.uid, ctx.pe, w.npes * op.nbytes))
        yield from ctx.barrier_all()
        yield from ctx.alltoall(cdst, csrc, op.nbytes)
    else:  # pragma: no cover
        raise ValueError(f"unknown collective {op.kind!r}")


def _run_msg_round(payloads, ctx, bufs, rnd, out):
    """Post this PE's sends and receives for a msg round, then wait for
    all of them — both sides of every pair complete inside the round."""
    waits = []
    recvs = []
    # Deferred receives post after the round's others (stable sort), so
    # a twin pair's recv order crosses its send order — the shape that
    # keeps tag matching honest (see WOp.defer_recv).
    for op in sorted(rnd, key=lambda op: op.defer_recv):
        if op.target == ctx.pe:
            dst = bufs[op.buf].local + op.offset
            ev = ctx.irecv(
                dst,
                op.nbytes,
                src=None if op.any_src else op.pe,
                tag=None if op.any_tag else op.tag,
            )
            waits.append(ev)
            recvs.append((op.uid, ev))
    for op in rnd:
        if op.pe == ctx.pe:
            alloc = ctx.cuda.malloc if op.local_device else ctx.cuda.malloc_host
            src = alloc(op.nbytes, tag=f"op{op.uid}.msg-src")
            src.write(payloads[op.uid])
            waits.append(
                ctx.isend(src, op.nbytes, op.target, tag=op.tag,
                          transport=op.transport or None)
            )
    if waits:
        yield ctx.sim.all_of(waits)
    for uid, ev in recvs:
        out["msgs"][uid] = tuple(ev.value)


def _run_lock_round(w: Workload, ctx, bufs, op):
    if ctx.pe not in op.parts:
        return
    atoms = bufs["atoms"]
    home = op.target
    lock = atoms.addr + op.value * 8
    counter = atoms.addr + op.offset
    tmp = ctx.cuda.malloc_host(8, tag=f"op{op.uid}.ctr")
    yield from ctx.set_lock(lock, home=home)
    yield from ctx.getmem(tmp, counter, 8, home)
    current = int.from_bytes(tmp.read(8), "little")
    yield from ctx.put_uint64(counter, current + 1, home)
    yield from ctx.quiet()  # counter lands before the lock releases
    yield from ctx.clear_lock(lock, home=home)


def _make_program(w: Workload, corrupt_uid: Optional[int], payloads):
    def program(ctx):
        out = {"gets": {}, "atomics": {}, "msgs": {}, "offsets": {}}
        bufs = {}
        for spec in w.buffers:
            sym = yield from ctx.shmalloc(spec.size, domain=Domain(spec.domain))
            bufs[spec.name] = sym
            out["offsets"][spec.name] = sym.addr.offset
        yield from ctx.barrier_all()
        corrupt = None
        for rnd in w.rounds:
            head = rnd[0].kind
            if head in _COLLECTIVES:
                yield from _run_collective(w, ctx, bufs, rnd[0])
            elif head == "lock_inc":
                yield from _run_lock_round(w, ctx, bufs, rnd[0])
            elif head == "msg":
                yield from _run_msg_round(payloads, ctx, bufs, rnd, out)
                yield from ctx.quiet()
            else:
                for op in rnd:
                    if op.pe != ctx.pe:
                        continue
                    yield from _run_p2p(payloads, ctx, bufs, op, out)
                    if op.uid == corrupt_uid:
                        corrupt = op
                yield from ctx.quiet()
            yield from ctx.barrier_all()
        if corrupt is not None and corrupt.buf:
            # Deliberate divergence (harness self-test): flip one byte
            # of the op's destination cell after all rounds settle.
            sym = bufs[corrupt.buf]
            ptr = ctx.runtime.resolve(sym.addr + corrupt.offset, corrupt.target)
            ptr.write(bytes([ptr.read(1)[0] ^ 0x5A]))
        return out

    return program


# ------------------------------------------------------------------ entry
def run_workload(
    w: Workload,
    *,
    fastpath: bool = True,
    trace: bool = False,
    corrupt_uid: Optional[int] = None,
    start: Optional[float] = None,
    payloads: Optional[Dict[int, np.ndarray]] = None,
) -> RunObservation:
    """Run ``w`` once and observe everything the oracles compare.

    ``start`` is the program-phase start the fault plan is scheduled
    from; a faulted ``w`` needs it (see :func:`measure_start`).
    ``payloads`` is the check's
    :func:`~repro.check.reference.draw_payloads` table (drawn here when
    not given)."""
    from repro.obs.metrics import snapshot_job
    from repro.obs.spans import SpanTracer

    if payloads is None:
        payloads = draw_payloads(w)
    plan = _fault_plan(w, start) if w.faults else None
    job = _job_for(w.nodes, w.design, w.pes_per_node, w.faults, fault_plan=plan)
    job.sim.fastpath = fastpath
    tracer = None
    if trace:
        tracer = SpanTracer().attach(job.sim, label=f"check seed {w.seed}")
    res = job.run(_make_program(w, corrupt_uid, payloads))

    mode = "traced" if trace else ("fast" if fastpath else "event")
    obs = RunObservation(workload=w, mode=mode)
    obs.elapsed = res.elapsed
    obs.start_time = res.start_time
    obs.tiers_armed = job.runtime.tiers_armed
    offsets = res.results[0]["offsets"]
    for pe in range(w.npes):
        for spec in w.buffers:
            key, domain, offset = (pe, spec.name), Domain(spec.domain), offsets[spec.name]
            view = job.runtime.heap_read_back(pe, domain, offset, spec.size)
            written = job.runtime.heap_of(pe, domain).heap.ptr(offset).written(spec.size)
            obs.heaps[key] = view
            obs.heaps.written[key] = (view, written)
        obs.gets.update(res.results[pe]["gets"])
        obs.atomics.update(res.results[pe]["atomics"])
        obs.msgs.update(res.results[pe]["msgs"])
    obs.protocol_counts = {p.value: c for p, c in job.runtime.protocol_counts.items()}
    obs.probe_series = {n: tuple(job.probe.series(n)) for n in job.probe.names()}
    obs.stats = job.sim.stats.as_dict()
    obs.snapshot = snapshot_job(job).as_dict()
    if trace:
        writes = tracer.by_name("rdma_write")
        obs.span_rdma_writes = sum(1 for s in writes if s.cat == "ib")
        obs.rdma_write_holds = sum(
            1 for s in writes if s.cat == "link" and s.args["hop"] == 0
        )
        obs.open_spans = len(tracer.open_spans())
        obs.spans_total = len(tracer.spans)
        tracer.detach(job.sim)
    return obs
