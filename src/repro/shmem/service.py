"""Far-side progress engines and the landings they finish.

Every staged put chunk ends the same way: it is RDMA-written into a
far-side staging slot, and a far-side agent copies it into the final
buffer.  The designs differ only in *when* that agent makes progress:

* The baseline host-pipeline design (Fig 1) needs the *target process*
  to execute the final cudaMemcpy.  Real MVAPICH2-X progresses such
  work only when the target is inside the runtime (or from an optional
  service thread that burns a core — the paper measures without it,
  §V-B).  :class:`ServiceEngine` models that faithfully: queued work
  items run only while the owning PE is *inside an OpenSHMEM call*.
  While the PE computes, items wait — which is exactly the
  overlap-killing behaviour Fig 10 demonstrates for the baseline.
* The proposed per-node proxy (§III-C, Fig 5) is the same engine with
  ``always_on=True``: it progresses regardless of what any PE does.

A :class:`Landing` names one such far side: its registered staging
pool, the engine that runs the final copy, the copy itself and the
signal delay before the work request.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.shmem.staging import StagingPool
from repro.simulator import Event, Simulator, Store


@dataclass
class ServiceItem:
    """One unit of far-side work (e.g. 'copy staging chunk to GPU')."""

    #: Zero-arg callable returning a generator that performs the work.
    run: Callable
    #: Succeeded when the work is finished (sources wait on this in quiet).
    done: Event
    label: str = "service"


class ServiceEngine:
    """Queue of deferred far-side work for one owner (a PE, or a node's
    proxy under its negative owner id).

    With ``always_on=True`` the engine progresses whether or not the
    owner is inside the runtime: the per-node proxy, or the reference
    implementation's *service thread* (§III-C), which burns CPU that
    the job charges back to application compute time."""

    def __init__(self, sim: Simulator, pe: int, poll_overhead: float, always_on: bool = False):
        self.sim = sim
        self.pe = pe
        self.poll_overhead = poll_overhead
        self.always_on = always_on
        self.queue: Store = Store(sim, name=f"pe{pe}.service")
        self._in_runtime = always_on
        self._enable_event: Optional[Event] = None
        self.items_served = 0
        sim.process(self._loop(), name=f"pe{pe}.service-engine")

    # ------------------------------------------------------- runtime gate
    def enter_runtime(self) -> None:
        """The PE entered an OpenSHMEM call: progress may happen."""
        self._in_runtime = True
        if self._enable_event is not None and not self._enable_event.triggered:
            self._enable_event.succeed()
        self._enable_event = None

    def exit_runtime(self) -> None:
        """The PE returned to application code: progress stalls
        (unless a service thread keeps the engine hot)."""
        if not self.always_on:
            self._in_runtime = False

    # ----------------------------------------------------------- enqueue
    def submit(self, item: ServiceItem) -> None:
        self.queue.put(item)

    # -------------------------------------------------------------- loop
    def _loop(self):
        while True:
            item = yield self.queue.get()
            while not self._in_runtime:
                self._enable_event = self.sim.event(f"pe{self.pe}.service-enable")
                yield self._enable_event
            yield self.sim.timeout(self.poll_overhead, name=f"{item.label}:poll")
            try:
                yield from item.run()
            except BaseException as exc:  # surface to whoever waits
                if not item.done.triggered:
                    item.done.fail(exc)
                continue
            self.items_served += 1
            if not item.done.triggered:
                item.done.succeed(self.sim.now)


@dataclass(frozen=True)
class Landing:
    """Where a staged chunk lands and who finishes it
    (:meth:`repro.shmem.runtime.Runtime._land`)."""

    #: The registered staging pool the chunk is RDMA-written into.
    pool: StagingPool
    #: The engine that runs the final copy.
    engine: ServiceEngine
    #: ``copy(dst, src, nbytes)`` generator: staging slot -> final buffer.
    copy: Callable
    #: Delay before the work request is queued (``None``: no signal).
    signal: Optional[float] = None
