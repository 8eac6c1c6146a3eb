"""Stress tests: every PE active at once, shared-resource contention.

The single-driver tests elsewhere verify semantics; these verify the
runtime's pools, service engines, and proxies under genuinely
concurrent load, and that link contention produces sane physics
(two flows on one port each get about half the rate).
"""

import numpy as np
import pytest

from repro.shmem import Domain, ShmemJob
from repro.units import KiB, MiB, to_MBps


def test_all_pairs_simultaneous_puts():
    """Every PE puts a distinct pattern to every other PE at once."""

    def main(ctx):
        npes = ctx.npes
        block = 256
        sym = yield from ctx.shmalloc(block * npes, domain=Domain.GPU)
        src = ctx.cuda.malloc_host(block)
        yield from ctx.barrier_all()
        for peer in range(npes):
            if peer == ctx.pe:
                continue
            src.fill(16 * ctx.pe + peer, block)
            yield from ctx.putmem(sym.addr + ctx.pe * block, src, block, peer)
            yield from ctx.quiet()  # src reused each round
        yield from ctx.barrier_all()
        data = sym.read(block * npes)
        for sender in range(npes):
            if sender == ctx.pe:
                continue
            got = data[sender * block : (sender + 1) * block]
            if got != bytes([16 * sender + ctx.pe]) * block:
                return (sender, got[:4])
        return "ok"

    res = ShmemJob(nodes=3, design="enhanced-gdr").run(main)
    assert all(r == "ok" for r in res.results)


def test_concurrent_large_messages_share_staging():
    """More in-flight large puts than staging slots: flow control must
    serialize without deadlock or corruption."""

    def main(ctx):
        n = 2 * MiB
        sym = yield from ctx.shmalloc(n, domain=Domain.GPU)
        src = ctx.cuda.malloc(n)
        src.fill(ctx.pe + 1, n)
        yield from ctx.barrier_all()
        # Everyone puts to their right neighbour at once (ring).
        right = (ctx.pe + 1) % ctx.npes
        yield from ctx.putmem(sym, src, n, pe=right)
        yield from ctx.quiet()
        yield from ctx.barrier_all()
        left = (ctx.pe - 1) % ctx.npes
        return sym.read(64) == bytes([left + 1]) * 64

    res = ShmemJob(nodes=2, design="enhanced-gdr").run(main)
    assert all(res.results)


def test_concurrent_gets_through_one_proxy():
    """Several PEs pull large buffers from PEs on one node: the single
    proxy serves them all (§III-C: 'a single proxy is enough')."""

    def main(ctx):
        n = 1 * MiB
        sym = yield from ctx.shmalloc(n, domain=Domain.GPU)
        sym.fill(ctx.pe + 1, n)
        yield from ctx.barrier_all()
        ok = None
        if ctx.pe < 2:  # PEs 0,1 on node 0 both read from node 1
            target = 2 + ctx.pe  # PEs 2,3 on node 1
            dst = ctx.cuda.malloc(n)
            yield from ctx.getmem(dst, sym, n, pe=target)
            ok = dst.read(16) == bytes([target + 1]) * 16
        yield from ctx.barrier_all()
        return ok

    job = ShmemJob(nodes=2, design="enhanced-gdr")
    res = job.run(main)
    assert res.results[0] and res.results[1]
    assert job.runtime.proxies[1].engine.items_served == 2


def test_port_contention_halves_per_flow_rate():
    """Two inter-node host-host streams share one egress port: each
    should see roughly half the exclusive bandwidth."""

    def mk(two_flows):
        def main(ctx):
            n = 8 * MiB
            sym = yield from ctx.shmalloc(n, domain=Domain.HOST)
            src = ctx.cuda.malloc_host(n)
            yield from ctx.barrier_all()
            t0 = ctx.now
            senders = (0, 1) if two_flows else (0,)
            if ctx.pe in senders:
                # both senders are on node 0 and share HCA0's port by
                # construction (pes_per_node=2, gpus with same hca)
                yield from ctx.putmem(sym, src, n, pe=ctx.npes - 1 - ctx.pe)
                yield from ctx.quiet()
                return n / (ctx.now - t0)
            yield from ctx.compute(0)
            return None

        return main

    from repro.hardware import NodeConfig

    # force both PEs of node 0 onto the same HCA
    cfg = NodeConfig(gpus=2, hcas=1, gpu_sockets=[0, 0], hca_sockets=[0])
    solo = ShmemJob(nodes=2, node_config=cfg, design="enhanced-gdr").run(mk(False))
    duo = ShmemJob(nodes=2, node_config=cfg, design="enhanced-gdr").run(mk(True))
    bw_solo = solo.results[0]
    bw_each = [r for r in duo.results if r is not None]
    assert len(bw_each) == 2
    # Port arbitration is message-granular (one 8 MB write holds the
    # wire): the first flow runs at full rate, the second waits its
    # turn and sees roughly half the effective bandwidth.
    assert max(bw_each) <= bw_solo * 1.01
    assert min(bw_each) < 0.65 * bw_solo
    # The port is work-conserving: aggregate goodput never exceeds it.
    assert sum(bw_each) < 1.6 * bw_solo


def test_many_small_messages_all_to_all_pattern():
    """A burst of small nbi puts from every PE to every PE."""

    def main(ctx):
        npes = ctx.npes
        sym = yield from ctx.shmalloc(8 * npes * npes, domain=Domain.HOST)
        src = ctx.cuda.malloc_host(8)
        yield from ctx.barrier_all()
        for rep in range(4):
            for peer in range(npes):
                src.write(int(1000 * ctx.pe + rep).to_bytes(8, "little"))
                yield from ctx.putmem(
                    sym.addr + 8 * (ctx.pe * npes + peer), src, 8, peer
                )
                yield from ctx.quiet()
        yield from ctx.barrier_all()
        vals = sym.as_array(np.uint64)
        expected = np.zeros(npes * npes, dtype=np.uint64)
        for sender in range(npes):
            expected[sender * npes + ctx.pe] = 1000 * sender + 3
        # only the slots addressed to me were written
        return bool(np.array_equal(vals[: npes * npes], expected))

    res = ShmemJob(nodes=2, design="enhanced-gdr").run(main)
    assert all(res.results)


def test_mixed_designs_not_shared():
    """Sanity: two jobs (different designs) are fully isolated."""
    def main(ctx):
        sym = yield from ctx.shmalloc(64)
        yield from ctx.barrier_all()
        return sym.offset

    a = ShmemJob(nodes=1, design="enhanced-gdr").run(main)
    b = ShmemJob(nodes=1, design="host-pipeline").run(main)
    assert a.results[0] == b.results[0]  # same deterministic layout


def test_multi_rail_runs_flows_concurrently():
    """Wilkes nodes carry two HCAs; two host-host streams pinned to
    different rails finish together at full rate, while the same two
    streams forced onto one rail serialize (verbs-level check)."""
    from repro.cuda.memory import MemKind, MemorySpace
    from repro.hardware import ClusterConfig, ClusterHardware
    from repro.ib import MemoryRegion, Verbs
    from repro.simulator import Simulator
    from repro.units import MiB

    def run_flows(rails):
        sim = Simulator()
        hw = ClusterHardware(sim, ClusterConfig(nodes=2))
        verbs = Verbs(hw)
        space = MemorySpace()
        n = 8 * MiB
        finish = []
        for flow, hca in enumerate(rails):
            src = space.allocate(MemKind.HOST, n, node_id=0, owner=flow)
            dst = space.allocate(MemKind.HOST, n, node_id=1, owner=10 + flow)
            ep = verbs.endpoint(0, hca, owner=flow)
            mr = MemoryRegion(dst)

            def one(ep=ep, src=src, mr=mr, hca=hca):
                yield from verbs.rdma_write(ep, src.ptr(), mr, 0, n, remote_hca=hca)
                finish.append(sim.now)

            sim.process(one())
        sim.run()
        return max(finish)

    same_rail = run_flows([0, 0])
    two_rails = run_flows([0, 1])
    assert two_rails < 0.65 * same_rail  # rails really parallelize
