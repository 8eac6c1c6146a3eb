"""Shared fixtures and helpers for the runtime-level test suites."""

from __future__ import annotations

import functools

import pytest

from repro.reporting import EXPERIMENTS
from repro.shmem import Domain, ShmemJob
from repro.units import to_usec


def put_latency_program(nbytes, src_domain, dst_domain, target="far", fill=0xA5):
    """SPMD program: PE 0 puts to a target PE and measures put+quiet.

    Returns per-PE tuples ``(latency_us or None, payload_ok or None)``.
    """

    def main(ctx):
        size = max(nbytes, 64)
        sym = yield from ctx.shmalloc(size, domain=dst_domain)
        if src_domain is Domain.GPU:
            src = ctx.cuda.malloc(size)
        else:
            src = ctx.cuda.malloc_host(size)
        src.fill(fill, size)
        tgt = ctx.npes - 1 if target == "far" else 1
        yield from ctx.barrier_all()
        latency = None
        if ctx.my_pe() == 0:
            t0 = ctx.now
            yield from ctx.putmem(sym, src, nbytes, pe=tgt)
            yield from ctx.quiet()
            latency = to_usec(ctx.now - t0)
        yield from ctx.barrier_all()
        ok = None
        if ctx.my_pe() == tgt:
            ok = sym.read(nbytes) == bytes([fill]) * nbytes
        return (latency, ok)

    return main


def get_latency_program(nbytes, local_domain, remote_domain, target="far", fill=0x5A):
    """SPMD program: PE 0 gets from a target PE and measures the call."""

    def main(ctx):
        size = max(nbytes, 64)
        sym = yield from ctx.shmalloc(size, domain=remote_domain)
        sym.fill(fill if ctx.my_pe() != 0 else 0, size)
        if local_domain is Domain.GPU:
            dst = ctx.cuda.malloc(size)
        else:
            dst = ctx.cuda.malloc_host(size)
        tgt = ctx.npes - 1 if target == "far" else 1
        yield from ctx.barrier_all()
        latency = ok = None
        if ctx.my_pe() == 0:
            t0 = ctx.now
            yield from ctx.getmem(dst, sym, nbytes, pe=tgt)
            latency = to_usec(ctx.now - t0)
            ok = dst.read(nbytes) == bytes([fill]) * nbytes
        yield from ctx.barrier_all()
        return (latency, ok)

    return main


def run_put(design, nbytes, src_domain, dst_domain, nodes=2, target="far", **job_kwargs):
    job = ShmemJob(nodes=nodes, design=design, **job_kwargs)
    res = job.run(put_latency_program(nbytes, src_domain, dst_domain, target))
    latency = res.results[0][0]
    ok = res.results[-1 if target == "far" else 1][1]
    return latency, ok, job


def run_get(design, nbytes, local_domain, remote_domain, nodes=2, target="far", **job_kwargs):
    job = ShmemJob(nodes=nodes, design=design, **job_kwargs)
    res = job.run(get_latency_program(nbytes, local_domain, remote_domain, target))
    latency, ok = res.results[0]
    return latency, ok, job


def short_pools(pools):
    """``(name, available, depth)`` of every staging pool missing a slot."""
    return [(p.name, p.available, p.depth) for p in pools if p.available != p.depth]


@functools.lru_cache(maxsize=None)
def pinned_rows(exp_id, quick=False):
    """The rows of a registered target's run, measured once per session.

    The pin test hashes these rows' render and the calibration tests read
    single ledger conditions off them, so no sweep runs twice.  Callers
    must not mutate the result."""
    return EXPERIMENTS[exp_id].measure(quick)


def ledger_condition(exp_id, label):
    """The predicate of ``exp_id``'s full-size claim condition named ``label``."""
    conditions = dict(EXPERIMENTS[exp_id].paper_claim.conditions)
    assert label in conditions, f"{exp_id} has no condition {label!r}: {sorted(conditions)}"
    return conditions[label]
