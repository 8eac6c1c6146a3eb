"""Executes a :class:`~repro.faults.plan.FaultPlan` against a live job.

Attaching the injector (``FaultPlan.attach(job)`` /
``ShmemJob(fault_plan=...)``) does two things:

* spawns one simulator process per scheduled fault event (flap or
  HCA stall), all driven by simulated time;
* arms the reliable transport — ``job.verbs.rc`` becomes an
  :class:`~repro.ib.rc.RCTransport` so every wire crossing gains RC
  retry semantics — and a :class:`~repro.faults.health.HealthTracker`
  (``job.runtime.health``) consulted by the runtime's protocol
  selection.  Tier 0 and putmem's tier-2 commit decline while a
  tracker is attached: RC retry and failover live in the per-op
  generators.  Link holds are unchanged — every transfer checks for
  failures at request, grant and hold end whether or not a plan is
  attached.

Nothing in the workload changes: the same program generator runs, the
faults arrive underneath it.
"""

from __future__ import annotations

from typing import Generator, List

from repro.errors import ConfigurationError
from repro.faults.health import HealthTracker
from repro.faults.plan import FaultPlan, HcaStall, LinkFlap
from repro.hardware.links import LinkDirection
from repro.ib.rc import RCTransport


class FaultInjector:
    """Live faults for one :class:`~repro.shmem.ShmemJob`."""

    def __init__(self, job, plan: FaultPlan):
        self.job = job
        self.plan = plan
        self.sim = job.sim
        self.hw = job.hw
        params = job.params
        self.health = HealthTracker(
            self.sim, params.health_fail_threshold, params.health_cooldown
        )
        # Arm the stack.
        job.verbs.rc = RCTransport(self.sim, params, health=self.health)
        job.runtime.health = self.health
        job.faults = self
        #: Chronological log of (time, description) fault activations.
        self.log: List[tuple] = []
        for flap in plan.flaps:
            self.sim.process(self._flap_proc(flap), name="flap:driver")
        for stall in plan.stalls:
            self.sim.process(self._stall_proc(stall), name="flap:hca-stall")

    # ------------------------------------------------------------- resolution
    def _directions(self, flap: LinkFlap) -> List[LinkDirection]:
        node = self.hw.nodes[flap.node]
        if flap.kind == "hca-port":
            link = node.hcas[flap.index].port
        elif flap.kind == "gpu-pcie":
            link = node.pcie.gpu_links[flap.index]
        elif flap.kind == "hca-pcie":
            link = node.pcie.hca_links[flap.index]
        elif flap.kind == "qpi":
            link = node.pcie.qpi
        elif flap.kind == "hostmem":
            link = node.pcie.host_mem
        else:
            raise ConfigurationError(f"unknown flap kind {flap.kind!r}")
        if flap.direction == "fwd":
            return [link.fwd]
        if flap.direction == "rev":
            return [link.rev]
        if flap.direction == "both":
            return [link.fwd, link.rev]
        raise ConfigurationError(f"unknown flap direction {flap.direction!r}")

    # -------------------------------------------------------------- processes
    def _flap_proc(self, flap: LinkFlap) -> Generator:
        sim = self.sim
        yield sim.timeout(flap.at, name="flap:arm")
        directions = self._directions(flap)
        for d in directions:
            d.fail(flap.label)
        sim.stats.flap_windows += 1
        scope = flap.label or "link"
        self.log.append((sim.now, f"down {scope} {directions[0].link.name}"))
        yield sim.timeout(flap.down_for, name="flap:window")
        for d in directions:
            d.repair(flap.label)
        self.log.append((sim.now, f"up   {scope} {directions[0].link.name}"))

    def _stall_proc(self, stall: HcaStall) -> Generator:
        sim = self.sim
        yield sim.timeout(stall.at, name="flap:arm")
        hca = self.hw.nodes[stall.node].hcas[stall.hca]
        hca.stall(sim.now, stall.duration)
        self.log.append((sim.now, f"stall {hca.name} {stall.duration:g}s"))
