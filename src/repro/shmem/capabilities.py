"""Design capability matrix — a programmatic rendering of Table I.

The paper's Table I compares the three solutions (Naive, Host-based
Pipeline [15], Proposed) on supported configurations, schemes,
performance, true one-sidedness, and productivity.  Each runtime's row
lives in its :class:`~repro.shmem.designs.DesignSpec` (the unified
design registry); the ``table1`` experiment renders the table and
its claim asserts the qualitative points.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from repro.shmem.constants import Config


@dataclass(frozen=True)
class Capabilities:
    """One runtime design's row of Table I."""

    design: str
    intranode_configs: Tuple[Config, ...]
    internode_configs: Tuple[Config, ...]
    schemes: Tuple[str, ...]
    performance: str  # "poor" | "medium" | "good"
    true_one_sided: str  # "poor" | "good"
    productivity: str  # "poor" | "good"
    #: Whether shmalloc(domain=GPU) is available at all.
    gpu_domain: bool = True

    def supports(self, config: Config, internode: bool) -> bool:
        table = self.internode_configs if internode else self.intranode_configs
        return config in table


_ALL = (Config.HH, Config.HD, Config.DH, Config.DD)


def capability_rows() -> List[List[str]]:
    """Render Table I as printable rows (used by the feature bench).

    Ablation and beyond-the-paper variants are excluded — Table I has
    three rows (``DesignSpec.table_row`` in the design registry)."""
    from repro.shmem.designs import table_rows

    rows = []
    for spec in table_rows():
        cap = spec.caps
        rows.append(
            [
                spec.name,
                "/".join(c.value for c in cap.intranode_configs),
                "/".join(c.value for c in cap.internode_configs),
                "+".join(cap.schemes),
                cap.performance,
                cap.true_one_sided,
                cap.productivity,
            ]
        )
    return rows
