"""OMB-GPU-style micro-benchmarks and experiment drivers.

These are the measurement loops behind every table and figure in the
paper's evaluation (§V) and its ablations; :mod:`repro.reporting.experiments`
maps each artifact to its driver.
"""

from repro.bench.bandwidth import (
    AtomicPoint,
    BandwidthPoint,
    atomics_latency,
    bandwidth_sweep,
    message_rate,
)
from repro.bench.crossover import (
    CrossoverPoint,
    RatePoint,
    crossover_report,
    find_crossover,
    message_rate_sweep,
    msg_latency_sweep,
)
from repro.bench.latency import LatencyPoint, latency_sweep
from repro.bench.overlap import OverlapPoint, overlap_sweep
from repro.bench.p2p import P2PResult, p2p_bandwidth_probe
from repro.bench.verbs_level import Table2Row, table2_probe

__all__ = [
    "AtomicPoint",
    "BandwidthPoint",
    "CrossoverPoint",
    "LatencyPoint",
    "OverlapPoint",
    "P2PResult",
    "RatePoint",
    "Table2Row",
    "atomics_latency",
    "bandwidth_sweep",
    "crossover_report",
    "find_crossover",
    "latency_sweep",
    "message_rate",
    "message_rate_sweep",
    "msg_latency_sweep",
    "overlap_sweep",
    "p2p_bandwidth_probe",
    "table2_probe",
]
