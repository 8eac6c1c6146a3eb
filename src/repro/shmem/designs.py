"""The single design registry: every runtime design, fully described.

Historically ``protocols.SELECTORS`` and ``capabilities.TABLE_I`` were
two hand-maintained dicts and ``Runtime.__init__`` indexed both — a
design added to one but not the other raised a bare ``KeyError`` from
whichever table was consulted second.  This module is now the one
source of truth: each :class:`DesignSpec` binds a design name to its
protocol selector, its Table I capabilities row, and the runtime
construction flags (staging pools, proxy daemons, GPU-heap
registration, device- vs host-initiated issue paths).  Every lookup
path — CLI, serve job specs, bench runner, the runtime
itself — resolves through :func:`design_spec`, which raises the
friendly :class:`~repro.errors.ShmemError` for unknown names.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Type

from repro.errors import ShmemError
from repro.shmem.capabilities import _ALL, Capabilities
from repro.shmem.constants import Config
from repro.shmem.protocols import (
    DeviceInitiatedSelector,
    EnhancedGDRSelector,
    EnhancedNoProxySelector,
    HostPipelineSelector,
    NaiveSelector,
    ProtocolSelector,
)


@dataclass(frozen=True)
class DesignSpec:
    """Everything the system needs to know about one runtime design."""

    name: str
    selector: Type[ProtocolSelector]
    caps: Capabilities
    #: Is this one of the paper's Table I rows (vs. an ablation or an
    #: extension beyond the paper)?  Governs ``capability_rows()``.
    table_row: bool
    #: NVSHMEM-style: ops issue from device contexts, heap translation
    #: happens device-side, per-op host overhead amortises away after
    #: the persistent-kernel warm-up.
    device_initiated: bool = False
    #: Does the runtime build host staging pools (pipeline/staged-copy
    #: protocols)?  A device-initiated kernel cannot reach them.
    host_staging: bool = True
    #: Register the GPU symmetric heap with the HCA (GDR, §III-A).
    registers_gpu_heap: bool = False
    #: Spawn the node-level proxy daemons (Fig 5).
    proxies: bool = False


#: Table I, row by row — plus the ablation and device-initiated
#: extensions.  The naive model leaves every GPU copy to the user (so
#: only H-H moves over the network); the baseline adds the GPU domain
#: but handles only same-domain traffic between nodes; the proposed
#: design covers everything; the device-initiated design also covers
#: everything, but issues from inside GPU kernels (DESIGN.md §11).
_REGISTRY: Dict[str, DesignSpec] = {}


def _register(spec: DesignSpec) -> None:
    if spec.name in _REGISTRY:  # pragma: no cover - registration-time guard
        raise ShmemError(f"runtime design {spec.name!r} registered twice")
    if spec.caps.design != spec.name:  # pragma: no cover - registration-time guard
        raise ShmemError(
            f"capabilities row {spec.caps.design!r} does not match design {spec.name!r}"
        )
    _REGISTRY[spec.name] = spec


_register(
    DesignSpec(
        name="naive",
        selector=NaiveSelector,
        table_row=True,
        caps=Capabilities(
            design="naive",
            intranode_configs=(Config.HH,),
            internode_configs=(Config.HH,),
            schemes=("user cudaMemcpy",),
            performance="poor",
            true_one_sided="poor",
            productivity="poor",
            gpu_domain=False,
        ),
    )
)

_register(
    DesignSpec(
        name="host-pipeline",
        selector=HostPipelineSelector,
        table_row=True,
        caps=Capabilities(
            design="host-pipeline",
            intranode_configs=_ALL,
            internode_configs=(Config.HH, Config.DD),
            schemes=("IPC", "pipeline"),
            performance="medium",
            true_one_sided="poor",
            productivity="good",
        ),
    )
)

_register(
    DesignSpec(
        name="enhanced-gdr",
        selector=EnhancedGDRSelector,
        table_row=True,
        registers_gpu_heap=True,
        proxies=True,
        caps=Capabilities(
            design="enhanced-gdr",
            intranode_configs=_ALL,
            internode_configs=_ALL,
            schemes=("IPC", "GDR", "pipeline", "proxy"),
            performance="good",
            true_one_sided="good",
            productivity="good",
        ),
    )
)

# Ablation variant (not a Table I row): the proposed design minus the
# proxy framework, to isolate Fig 5's contribution.
_register(
    DesignSpec(
        name="enhanced-gdr-noproxy",
        selector=EnhancedNoProxySelector,
        table_row=False,
        registers_gpu_heap=True,
        caps=Capabilities(
            design="enhanced-gdr-noproxy",
            intranode_configs=_ALL,
            internode_configs=_ALL,
            schemes=("IPC", "GDR", "pipeline"),
            performance="medium",
            true_one_sided="good",
            productivity="good",
        ),
    )
)

# Beyond the paper (not a Table I row): NVSHMEM-style device-initiated
# communication — GPU threads issue put/get/atomics from inside running
# kernels, the symmetric heap translation is device-resident, and there
# is no host proxy hop at all (DESIGN.md §11).
_register(
    DesignSpec(
        name="device-initiated",
        selector=DeviceInitiatedSelector,
        table_row=False,
        device_initiated=True,
        host_staging=False,
        registers_gpu_heap=True,
        caps=Capabilities(
            design="device-initiated",
            intranode_configs=_ALL,
            internode_configs=_ALL,
            schemes=("device ld/st", "device GDR"),
            performance="good",
            true_one_sided="good",
            productivity="good",
        ),
    )
)


def design_spec(name: str) -> DesignSpec:
    """Resolve a design name, or raise the friendly :class:`ShmemError`."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ShmemError(
            f"unknown runtime design {name!r}; choose from {sorted(_REGISTRY)}"
        ) from None


def design_names() -> Tuple[str, ...]:
    """Every registered design name, in registration (Table I) order."""
    return tuple(_REGISTRY)


def table_rows() -> List[DesignSpec]:
    """The specs that form the paper's Table I (three rows)."""
    return [spec for spec in _REGISTRY.values() if spec.table_row]
