"""Determinism: identical inputs must produce identical simulations.

The whole benchmark methodology rests on this — one measurement per
point is exact only because the DES is fully deterministic (FIFO
tie-breaking at equal timestamps, no wall-clock or RNG anywhere in the
engine)."""

import pytest

from repro.shmem import Domain, ShmemJob
from repro.obs import SpanTracer
from repro.simulator import Simulator
from repro.units import KiB, MiB


def _busy_job():
    job = ShmemJob(nodes=2, design="enhanced-gdr")
    tracer = SpanTracer().attach(job.sim)

    def main(ctx):
        sym = yield from ctx.shmalloc(1 * MiB, domain=Domain.GPU)
        src = ctx.cuda.malloc(1 * MiB)
        counter = yield from ctx.shmalloc(8, domain=Domain.HOST)
        yield from ctx.barrier_all()
        # a mix of everything: puts, atomics, collectives, compute
        yield from ctx.putmem(sym, src, 64 * KiB, pe=(ctx.pe + 1) % ctx.npes)
        yield from ctx.atomic_fetch_add(counter, 1, pe=0)
        yield from ctx.quiet()
        yield from ctx.compute(1e-5 * (ctx.pe + 1))
        yield from ctx.putmem(sym, src, 1 * MiB, pe=(ctx.pe + 2) % ctx.npes)
        yield from ctx.barrier_all()
        return ctx.now

    res = job.run(main)
    return res, tracer, job.sim.stats.as_dict()


def test_repeated_runs_identical_to_the_femtosecond():
    res1, tracer1, stats1 = _busy_job()
    res2, tracer2, stats2 = _busy_job()
    assert res1.results == res2.results
    assert res1.elapsed == res2.elapsed  # exact float equality, no tolerance
    assert stats1 == stats2
    assert tracer1.spans and not tracer1.truncated
    spans1 = [(s.name, s.cat, s.track, s.start, s.end) for s in tracer1.spans]
    spans2 = [(s.name, s.cat, s.track, s.start, s.end) for s in tracer2.spans]
    assert spans1 == spans2
    instants1 = [(i.name, i.cat, i.track, i.time) for i in tracer1.instants]
    instants2 = [(i.name, i.cat, i.track, i.time) for i in tracer2.instants]
    assert instants1 == instants2


def test_equal_time_events_fire_in_submission_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in range(20):
        sim.process(proc(tag))
    sim.run()
    assert order == list(range(20))


def test_full_duplex_links_really_overlap():
    """An H2D and a D2H on the same GPU use opposite link directions
    (two DMA engines on a K20): together they take max, not sum."""
    from repro.cuda import CudaContext, MemorySpace
    from repro.hardware import Node, NodeConfig, wilkes_params

    def run(both):
        sim = Simulator()
        node = Node(sim, 0, NodeConfig(), wilkes_params())
        ctx = CudaContext(sim, node, 0, owner=0, space=MemorySpace())
        n = 16 * MiB
        h1, h2 = ctx.malloc_host(n), ctx.malloc_host(n)
        d1, d2 = ctx.malloc(n), ctx.malloc(n)
        sim.process(ctx.memcpy(d1, h1, n))  # H2D, fwd direction
        if both:
            sim.process(ctx.memcpy(h2, d2, n))  # D2H, rev direction
        sim.run()
        return sim.now

    t_one = run(False)
    t_both = run(True)
    assert t_both < 1.2 * t_one  # concurrent, not serialized
