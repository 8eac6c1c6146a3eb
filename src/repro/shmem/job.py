"""Job launcher: build a cluster, spawn PEs, run an SPMD program.

``ShmemJob`` wires everything together: the discrete-event simulator,
the hardware model, the verbs provider, one CUDA context and one
:class:`~repro.shmem.context.ShmemContext` per PE, the runtime design,
and (for the proposed design) one proxy per node.

A program is a generator function ``def main(ctx, *args): yield ...``;
:meth:`ShmemJob.run` executes it on every PE after the timed runtime
init and returns a :class:`JobResult` with per-PE return values and
the virtual-time metrics the benchmarks report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.cuda.api import CudaContext
from repro.cuda.memory import MemorySpace
from repro.errors import ConfigurationError, ShmemError, annotate_workload_error
from repro.hardware.cluster import ClusterConfig, ClusterHardware
from repro.hardware.node import NodeConfig
from repro.hardware.params import HardwareParams, wilkes_params
from repro.ib.verbs import Verbs
from repro.shmem.context import ShmemContext
from repro.shmem.runtime import Runtime
from repro.simulator import Probe, Simulator
from repro.units import MiB


@dataclass
class JobResult:
    """Outcome of one SPMD run."""

    results: List[Any]
    #: Virtual time when the last PE finished (seconds).
    elapsed: float
    #: Virtual time when the PEs left init (programs started).
    start_time: float
    job: "ShmemJob" = field(repr=False, default=None)

    @property
    def program_time(self) -> float:
        """Virtual seconds spent in the program bodies (excl. init)."""
        return self.elapsed - self.start_time


class ShmemJob:
    """One simulated OpenSHMEM job."""

    def __init__(
        self,
        nodes: int = 2,
        design: str = "enhanced-gdr",
        params: Optional[HardwareParams] = None,
        node_config: Optional[NodeConfig] = None,
        pes_per_node: int = 0,
        host_heap_size: int = 32 * MiB,
        gpu_heap_size: int = 32 * MiB,
        service_thread: bool = False,
        fault_plan=None,
    ):
        self.params = params if params is not None else wilkes_params()
        self.design = design
        node_config = node_config or NodeConfig()
        if node_config.gpus < 1:
            raise ConfigurationError("ShmemJob requires at least one GPU per node")
        self.config = ClusterConfig(nodes=nodes, node=node_config, pes_per_node=pes_per_node)
        self.config.validate()
        self.sim = Simulator()
        self.hw = ClusterHardware(self.sim, self.config, self.params)
        self.space = MemorySpace()
        self.verbs = Verbs(self.hw)
        self.probe = Probe()
        self.npes = self.config.npes
        self.host_heap_size = host_heap_size
        self.gpu_heap_size = gpu_heap_size
        self._cuda: Dict[int, CudaContext] = {}
        self.contexts: List[ShmemContext] = [ShmemContext(self, pe) for pe in range(self.npes)]
        self.runtime = Runtime(self, design, service_thread=service_thread)
        self._mpi = None
        self._msg = None
        self._ran = False
        #: Live fault injector when a FaultPlan is attached (else None).
        self.faults = None
        if fault_plan is not None:
            fault_plan.attach(self)
        # A process-wide installed SpanTracer (``repro.obs.install``)
        # traces every job built while active — this is how the CLI
        # traces experiments that construct jobs internally.
        from repro.obs import attach_active

        attach_active(self.sim, label=f"{design} x{self.npes}PE")

    @property
    def mpi(self):
        """The two-sided MPI emulation layer (created on first use)."""
        if self._mpi is None:
            from repro.mpi import MpiWorld

            self._mpi = MpiWorld(self)
        return self._mpi

    @property
    def msg(self):
        """The two-sided messaging engine (created on first use).

        Tag/source matching with eager/rendezvous protocols and
        per-route RC/UD transport selection — see :mod:`repro.msg`.
        """
        if self._msg is None:
            from repro.msg import MsgEngine

            self._msg = MsgEngine(self)
        return self._msg

    def cuda_of(self, pe: int) -> CudaContext:
        """The CUDA context of PE ``pe`` (created on first use)."""
        if pe not in self._cuda:
            node_id, _ = self.hw.pe_location(pe)
            self._cuda[pe] = CudaContext(
                self.sim, self.hw.nodes[node_id], self.hw.pe_gpu(pe), owner=pe, space=self.space
            )
        return self._cuda[pe]

    # ------------------------------------------------------------- running
    def run(self, program: Callable, *args, until: Optional[float] = None) -> JobResult:
        """Run ``program(ctx, *args)`` on every PE to completion."""
        if self._ran:
            raise ShmemError(
                "a ShmemJob is single-shot (heap and flag state is consumed); "
                "construct a fresh job per run"
            )
        self._ran = True
        start_marker = {"t": 0.0}

        def wrapper(ctx):
            yield from self.runtime.init_pe(ctx)
            yield from ctx.barrier_all()
            start_marker["t"] = max(start_marker["t"], self.sim.now)
            try:
                result = yield from program(ctx, *args)
                yield from ctx.quiet()
            except Exception as exc:
                # Name the failing PE and op ordinal before the error
                # unwinds through the scheduler — the differential
                # harness' shrinker and plain users both need to know
                # *which* op of *whose* program blew up.
                raise annotate_workload_error(exc, ctx.pe, ctx.op_index)
            return result

        procs = [
            self.sim.process(wrapper(ctx), name=f"pe{ctx.pe}.main") for ctx in self.contexts
        ]
        try:
            self.sim.run(until=until)
        except BaseException:
            # The run died with transfers still in flight; give their
            # payloads their own bytes so none reads through any more.
            self.space.materialise_pending()
            raise
        self.sim.flush_stats()  # fold engine counters into the global tally
        if self.runtime.health is not None:
            self.runtime.health.finalize(self.sim.now)
        stuck = [i for i, p in enumerate(procs) if not p.triggered]
        if stuck:
            raise ShmemError(
                f"job did not complete: PEs {stuck} are blocked "
                "(deadlock — e.g. a wait_until nobody satisfies, or a "
                "baseline pipeline whose target never enters the runtime)"
            )
        return JobResult(
            results=[p.value for p in procs],
            elapsed=self.sim.now,
            start_time=start_marker["t"],
            job=self,
        )


def run_spmd(program: Callable, *args, **job_kwargs) -> JobResult:
    """One-liner: build a job with the given kwargs and run ``program``."""
    return ShmemJob(**job_kwargs).run(program, *args)
