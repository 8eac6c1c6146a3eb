"""Table II probe: 4-byte put latency at the IB level vs OpenSHMEM level.

The paper's Table II motivates the whole design: raw verbs to GPU
memory (GDR) are fast, but the then-current OpenSHMEM runtime was an
order of magnitude slower for GPU-GPU — the gap the proposed runtime
closes.  We reproduce all four cells:

* IB send/recv, host-host and GPU-GPU (raw verbs, two nodes);
* OpenSHMEM put, host-host and GPU-GPU, under a chosen runtime design
  (the baseline reproduces the table's motivating numbers; the
  enhanced design shows the gap closed).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.cuda.memory import MemKind, MemorySpace
from repro.hardware import ClusterConfig, ClusterHardware, wilkes_params
from repro.ib import MemoryRegion, Verbs
from repro.shmem import Domain
from repro.bench.latency import latency_sweep
from repro.simulator import Simulator
from repro.units import to_usec


@dataclass
class Table2Row:
    level: str  # "IB send/recv" | "OpenSHMEM put (<design>)"
    host_host_usec: float
    gpu_gpu_usec: float


def _verbs_latency(gpu: bool, nbytes: int = 4, params=None) -> float:
    """Raw inter-node verbs write latency (GDR when ``gpu``)."""
    sim = Simulator()
    hw = ClusterHardware(sim, ClusterConfig(nodes=2), params or wilkes_params())
    verbs = Verbs(hw)
    space = MemorySpace()
    if gpu:
        src = space.allocate(MemKind.DEVICE, 64, node_id=0, owner=0, device_id=0)
        dst = space.allocate(MemKind.DEVICE, 64, node_id=1, owner=1, device_id=0)
    else:
        src = space.allocate(MemKind.HOST, 64, node_id=0, owner=0)
        dst = space.allocate(MemKind.HOST, 64, node_id=1, owner=1)
    ep = verbs.endpoint(0, 0, owner=0)
    proc = sim.process(verbs.rdma_write(ep, src.ptr(), MemoryRegion(dst), 0, nbytes))
    sim.run()
    assert proc.ok
    return to_usec(sim.now)


def table2_probe(design: str = "host-pipeline", nbytes: int = 4, params=None) -> List[Table2Row]:
    """Both rows of Table II, with the OpenSHMEM row under ``design``."""
    ib_hh = _verbs_latency(False, nbytes, params)
    ib_dd = _verbs_latency(True, nbytes, params)
    shm_hh = latency_sweep(design, "put", Domain.HOST, Domain.HOST, [nbytes], params=params)
    shm_dd = latency_sweep(design, "put", Domain.GPU, Domain.GPU, [nbytes], params=params)
    return [
        Table2Row("IB send/recv (verbs write)", ib_hh, ib_dd),
        Table2Row(f"OpenSHMEM put ({design})", shm_hh[0].usec, shm_dd[0].usec),
    ]
