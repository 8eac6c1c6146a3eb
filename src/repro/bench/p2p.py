"""PCIe peer-to-peer bandwidth probe (Table III).

Measures the *achieved* P2P read/write rates through the verbs layer —
an HCA streaming a large buffer from/to GPU memory — for both socket
placements, and reports them as MB/s and as a percentage of the FDR
peak, exactly as Table III does.  This validates that the simulated
fabric exhibits the bottlenecks every protocol decision relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.cuda.memory import MemKind, MemorySpace
from repro.hardware import ClusterConfig, ClusterHardware, NodeConfig, wilkes_params
from repro.ib import MemoryRegion, Verbs
from repro.simulator import Simulator
from repro.units import MiB, to_MBps


@dataclass
class P2PResult:
    """One Table III cell."""

    direction: str  # "read" | "write"
    same_socket: bool
    mbps: float
    pct_of_fdr: float


def _measure(read: bool, same_socket: bool, nbytes: int, params) -> float:
    """Stream ``nbytes`` between an HCA and a GPU; return MB/s."""
    sim = Simulator()
    # One GPU on socket 0; the HCA on socket 0 or 1 selects the placement.
    node_cfg = NodeConfig(gpus=1, hcas=1, gpu_sockets=[0], hca_sockets=[0 if same_socket else 1])
    hw = ClusterHardware(sim, ClusterConfig(nodes=2, node=node_cfg, pes_per_node=1), params)
    verbs = Verbs(hw)
    space = MemorySpace()
    dev = space.allocate(MemKind.DEVICE, nbytes, node_id=0, owner=0, device_id=0)
    host = space.allocate(MemKind.HOST, nbytes, node_id=1, owner=1)
    ep = verbs.endpoint(0, 0, owner=0)

    if read:
        # HCA reads the GPU: an RDMA write whose *source* is device memory.
        gen = verbs.rdma_write(ep, dev.ptr(), MemoryRegion(host), 0, nbytes, remote_hca=0)
    else:
        # HCA writes the GPU: an RDMA read landing *into* device memory.
        gen = verbs.rdma_read(ep, dev.ptr(), MemoryRegion(host), 0, nbytes, remote_hca=0)
    proc = sim.process(gen)
    sim.run()
    assert proc.ok
    return to_MBps(nbytes / sim.now)


def p2p_bandwidth_probe(nbytes: int = 64 * MiB, params=None) -> List[P2PResult]:
    """Reproduce Table III: four cells + the FDR reference."""
    params = params or wilkes_params()
    fdr = to_MBps(params.ib_bandwidth)
    results = []
    for read in (True, False):
        for same in (True, False):
            mbps = _measure(read, same, nbytes, params)
            results.append(
                P2PResult(
                    "read" if read else "write",
                    same,
                    mbps,
                    100.0 * mbps / fdr,
                )
            )
    return results
