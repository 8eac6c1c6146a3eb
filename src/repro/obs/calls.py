"""A deterministic host-work meter: calls into ``repro.*``, per layer.

:class:`CallMeter` counts the Python calls that enter a ``repro``
function while it is active, bucketed by layer (``repro.<layer>``, the
package a function's module sits in).  A generator resume counts as a
call, as cProfile counts it.  The meter hooks in from outside through
:func:`sys.setprofile`, so the production path has no option for it and
runs the same code with or without it.

Unlike wall time, the counts are exact: the same source tree and the
same input give the same counts in any process and under any
``PYTHONHASHSEED``.  The hook slows the metered code several times
over, so a metered run's wall time means nothing.  Module-level memos
(``functools.lru_cache``) and first-use imports fill once per process,
so counts are per process history: meter a target in a fresh process,
or always in the same order.
"""

from __future__ import annotations

import sys
from typing import Dict, Optional


class CallMeter:
    """Counts calls into ``repro.*`` per layer while entered::

        with CallMeter() as meter:
            run_experiment("fig8a")
        meter.counts  # {"repro.shmem": ..., "repro.simulator": ...}
    """

    def __init__(self) -> None:
        #: Calls per layer, e.g. ``{"repro.shmem": 1234}``.
        self.counts: Dict[str, int] = {}
        #: Layer of each code object seen (``None``: not counted, as
        #: outside ``repro``, or the meter's own exit).
        self._layers: Dict[object, Optional[str]] = {CallMeter.__exit__.__code__: None}
        self._saved = None

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def _hook(self):
        counts, layers = self.counts, self._layers

        def hook(frame, event, _arg) -> None:
            if event != "call":
                return
            code = frame.f_code
            try:
                layer = layers[code]
            except KeyError:
                name = frame.f_globals.get("__name__") or ""
                parts = name.split(".", 2)
                layer = layers[code] = (
                    ".".join(parts[:2]) if parts[0] == "repro" else None
                )
            if layer is not None:
                counts[layer] = counts.get(layer, 0) + 1

        return hook

    def __enter__(self) -> "CallMeter":
        self._saved = sys.getprofile()
        sys.setprofile(self._hook())
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(self._saved)

    def report(self, title: str) -> str:
        """The per-layer table ``python -m repro profile`` prints, most
        calls first."""
        total = self.total
        width = max([len(layer) for layer in self.counts] + [len("total")])
        lines = [f"{title}: {total:,} calls into repro.* (deterministic)"]
        for layer, calls in sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0])):
            lines.append(f"  {layer:<{width}}  {calls:>12,}  {100.0 * calls / total:5.1f}%")
        lines.append(f"  {'total':<{width}}  {total:>12,}")
        return "\n".join(lines)


def meter_experiment(exp_id: str, quick: bool) -> CallMeter:
    """Run one registered experiment (measure and render, as ``repro
    run`` does) under a :class:`CallMeter`; returns the meter."""
    from repro.reporting.experiments import EXPERIMENTS

    exp = EXPERIMENTS[exp_id]
    with CallMeter() as meter:
        exp.render(exp.measure(quick))
    return meter
