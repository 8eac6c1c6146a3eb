"""Measurement hooks for simulations.

:class:`Probe` is a lightweight named-series collector used by the
benchmark harness to gather e.g. per-message latencies or per-iteration
phase times without coupling the runtime to the reporting layer.
Per-layer timing of a run is recorded by the span tracer in
:mod:`repro.obs`, not here.
"""

from __future__ import annotations

from typing import Any, Dict, List


class Probe:
    """Named sample series with basic statistics.

    The SHMEM runtimes and applications push samples into probes
    (``probe.sample("put_latency", t)``); the harness reads them back
    as series or summary stats.

    Accessor contract: every statistic (``count``, ``total``, ``mean``,
    ``median``, ``maximum``) and ``series`` raise :class:`KeyError` for
    a series that was never sampled — a typo'd name must not read as
    "zero samples".  Use :meth:`get` for the lenient lookup.
    """

    def __init__(self) -> None:
        self._series: Dict[str, List[float]] = {}
        self.meta: Dict[str, Any] = {}

    def sample(self, series: str, value: float) -> None:
        self._series.setdefault(series, []).append(value)

    def _get(self, name: str) -> List[float]:
        try:
            return self._series[name]
        except KeyError:
            raise KeyError(f"no samples for series {name!r}") from None

    def get(self, name: str, default: Any = None) -> Any:
        """The samples of ``name`` (a copy), or ``default`` when the
        series was never sampled."""
        xs = self._series.get(name)
        return default if xs is None else list(xs)

    def series(self, name: str) -> List[float]:
        return list(self._get(name))

    def names(self) -> List[str]:
        return sorted(self._series)

    def count(self, name: str) -> int:
        return len(self._get(name))

    def mean(self, name: str) -> float:
        xs = self._get(name)
        return sum(xs) / len(xs)

    def total(self, name: str) -> float:
        return sum(self._get(name))

    def median(self, name: str) -> float:
        xs = sorted(self._get(name))
        mid = len(xs) // 2
        if len(xs) % 2:
            return xs[mid]
        return 0.5 * (xs[mid - 1] + xs[mid])

    def maximum(self, name: str) -> float:
        return max(self._get(name))

    def clear(self) -> None:
        self._series.clear()
