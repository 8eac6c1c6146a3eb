"""Composite condition event: wait for all of a set of events.

``AllOf`` succeeds (with ``None``) when every child has succeeded; it
fails as soon as any child fails (remaining children are defused so
their failures do not abort the run).
"""

from __future__ import annotations

from typing import List

from repro.simulator.core import Event, SimulationError, Simulator


class AllOf(Event):
    """Succeeds once every child event has succeeded."""

    __slots__ = ("_pending",)

    def __init__(self, sim: Simulator, children: List[Event], name: str = "all_of"):
        super().__init__(sim, name)
        for child in children:
            if child.sim is not sim:
                raise SimulationError("condition mixes events from different simulators")
        self._pending = len(children)
        if not children:
            self.succeed()
            return
        for child in children:
            if child._processed:
                self._on_child(child)
            else:
                child.callbacks.append(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._triggered:
            if child._exc is not None:
                child.defuse()
            return
        if child._exc is not None:
            child.defuse()
            self.fail(child._exc)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed()
