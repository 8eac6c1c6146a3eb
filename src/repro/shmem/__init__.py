"""GDR-aware OpenSHMEM for simulated NVIDIA GPU clusters.

The paper's contribution, reproduced: a CUDA-aware OpenSHMEM with
host *and* GPU symmetric heaps (``shmalloc(size, domain)``), truly
one-sided put/get across every H-H/H-D/D-H/D-D configuration, hardware
atomics (including GDR atomics on GPU-resident words), and collectives
— under interchangeable runtime designs (one registry:
:mod:`repro.shmem.designs`):

* ``"naive"``            — host heap only; users stage GPU data manually.
* ``"host-pipeline"``    — the IPDPS'13 CUDA-aware baseline [15].
* ``"enhanced-gdr"``     — the proposed design (§III): GDR loopback,
  Direct GDR, hybrid IPC, Pipeline-GDR-write, and the proxy framework.
* ``"device-initiated"`` — NVSHMEM-style extension beyond the paper:
  GPU threads issue put/get/atomics from inside running kernels with
  device-resident heap translation, no host proxy hop, and one-time
  kernel-launch warm-up instead of per-op host overhead (DESIGN.md §11).

Quickstart::

    from repro.shmem import Domain, ShmemJob

    def main(ctx):
        sym = yield from ctx.shmalloc(1024, domain=Domain.GPU)
        if ctx.my_pe() == 0:
            buf = ctx.cuda.malloc_host(1024)
            buf.write(b"hello" * 8)
            yield from ctx.putmem(sym, buf, 40, pe=1)
        yield from ctx.barrier_all()
        return sym.read(5)

    result = ShmemJob(nodes=2, design="enhanced-gdr").run(main)
"""

from repro.shmem.address import SymAddr, SymPtr
from repro.shmem.capabilities import Capabilities, capability_rows
from repro.shmem.constants import Config, Domain, Locality, Op, Protocol
from repro.shmem.context import ShmemContext
from repro.shmem.designs import DesignSpec, design_names, design_spec
from repro.shmem.heap import HeapAllocator, SymmetricHeap
from repro.shmem.job import JobResult, ShmemJob, run_spmd
from repro.shmem.protocols import Route, UnsupportedConfiguration, make_selector
from repro.shmem.runtime import Runtime, SYNC_RESERVED

__all__ = [
    "Capabilities",
    "Config",
    "DesignSpec",
    "design_names",
    "design_spec",
    "Domain",
    "HeapAllocator",
    "JobResult",
    "Locality",
    "Op",
    "Protocol",
    "Route",
    "Runtime",
    "ShmemContext",
    "ShmemJob",
    "SymAddr",
    "SymPtr",
    "SymmetricHeap",
    "SYNC_RESERVED",
    "UnsupportedConfiguration",
    "capability_rows",
    "make_selector",
    "run_spmd",
]
