"""Deterministic fault plans.

A :class:`FaultPlan` is a declarative, seedable schedule of fault
events — link flaps and HCA stalls — built before the job runs and
attached to any :class:`repro.shmem.ShmemJob` without touching workload
code:

    plan = FaultPlan(seed=7).flap_gdr(at=ms(1), down_for=us(200), node=1)
    job = ShmemJob(npes=2, fault_plan=plan)

Everything is driven by simulated time and a private
``random.Random(seed)``, so two runs with the same plan and workload
produce *identical* timelines, counters, and failure points — faults
are reproducible test inputs, not chaos.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class LinkFlap:
    """One down-window on a link: fails at ``at``, repairs after ``down_for``.

    ``kind`` selects the link family ("hca-port", "gpu-pcie",
    "hca-pcie", "qpi", "hostmem"); ``index`` the instance within the
    node; ``direction`` which half to fail ("fwd", "rev", "both").  A
    ``label`` prefix scopes the failure to matching transfers (e.g.
    ``"gdrP2P"`` downs GDR peer-to-peer traffic on a PCIe link while
    cudaMemcpy traffic on the same wires keeps flowing — a BAR-window
    fault, not a slot failure)."""

    at: float
    down_for: float
    node: int = 0
    kind: str = "hca-port"
    index: int = 0
    direction: str = "both"
    label: Optional[str] = None


@dataclass(frozen=True)
class HcaStall:
    """Queue-drain delay on one HCA starting at ``at``."""

    at: float
    duration: float
    node: int = 0
    hca: int = 0


class FaultPlan:
    """Seedable schedule of injectable faults. All methods chain."""

    def __init__(self, seed: int = 0):
        self.seed = seed
        self._rng = random.Random(seed)
        self.flaps: List[LinkFlap] = []
        self.stalls: List[HcaStall] = []

    # ------------------------------------------------------------- building
    def flap(
        self,
        *,
        at: float,
        down_for: float,
        node: int = 0,
        kind: str = "hca-port",
        index: int = 0,
        direction: str = "both",
        label: Optional[str] = None,
        every: Optional[float] = None,
        count: int = 1,
    ) -> "FaultPlan":
        """Schedule ``count`` down-windows, spaced ``every`` apart."""
        if down_for <= 0:
            raise ConfigurationError("down_for must be positive")
        spacing = every if every is not None else 2 * down_for
        if count > 1 and spacing <= down_for:
            raise ConfigurationError("flap spacing must exceed down_for")
        for i in range(count):
            self.flaps.append(
                LinkFlap(at + i * spacing, down_for, node, kind, index, direction, label)
            )
        return self

    def flap_gdr(
        self,
        *,
        at: float,
        down_for: float,
        node: int = 0,
        gpu: int = 0,
        every: Optional[float] = None,
        count: int = 1,
    ) -> "FaultPlan":
        """Flap the GDR P2P path of one GPU's PCIe link.

        Scoped to the ``gdrP2P`` label prefix: Direct-GDR reads/writes
        through the link fail, while cudaMemcpy D2H/H2D on the same
        link keep working — so a host-staged pipeline remains a viable
        fallback, exactly the failover the runtime should take."""
        return self.flap(
            at=at,
            down_for=down_for,
            node=node,
            kind="gpu-pcie",
            index=gpu,
            direction="both",
            label="gdrP2P",
            every=every,
            count=count,
        )

    def stall_hca(
        self, *, at: float, duration: float, node: int = 0, hca: int = 0
    ) -> "FaultPlan":
        if duration <= 0:
            raise ConfigurationError("stall duration must be positive")
        self.stalls.append(HcaStall(at, duration, node, hca))
        return self

    def random_gdr_flaps(
        self,
        n: int,
        *,
        window: float,
        down_for: float,
        node: int = 0,
        gpu: int = 0,
        start: float = 0.0,
    ) -> "FaultPlan":
        """``n`` seed-deterministic GDR flaps uniform in ``[start, start+window)``."""
        for _ in range(n):
            self.flap_gdr(
                at=start + self._rng.random() * window,
                down_for=down_for,
                node=node,
                gpu=gpu,
            )
        return self

    # ------------------------------------------------------------ attaching
    def attach(self, job):
        """Wire this plan into a :class:`~repro.shmem.ShmemJob`.

        Returns the live :class:`~repro.faults.injector.FaultInjector`.
        Called automatically by ``ShmemJob(fault_plan=...)``."""
        from repro.faults.injector import FaultInjector

        return FaultInjector(job, self)

    def __repr__(self) -> str:  # pragma: no cover
        return (
            f"<FaultPlan seed={self.seed} flaps={len(self.flaps)} "
            f"stalls={len(self.stalls)}>"
        )
