"""Measurement hooks for simulations.

:class:`Probe` is a lightweight named-series collector used by the
benchmark harness to gather e.g. per-message latencies or per-iteration
phase times without coupling the runtime to the reporting layer.
Per-layer timing of a run is recorded by the span tracer in
:mod:`repro.obs`, not here.
"""

from __future__ import annotations

from typing import Dict, List


class Probe:
    """Named sample series.

    The SHMEM runtime pushes samples into probes
    (``probe.sample("put_latency", t)``); the harness reads them back
    with ``series``, which raises :class:`KeyError` for a series that
    was never sampled — a typo'd name must not read as "zero samples".
    """

    def __init__(self) -> None:
        self._series: Dict[str, List[float]] = {}

    def sample(self, series: str, value: float) -> None:
        self._series.setdefault(series, []).append(value)

    def series(self, name: str) -> List[float]:
        """A copy of the samples of ``name``."""
        try:
            return list(self._series[name])
        except KeyError:
            raise KeyError(f"no samples for series {name!r}") from None

    def names(self) -> List[str]:
        return sorted(self._series)
