"""Shared-capacity primitives: :class:`Resource` and :class:`Store`.

``Resource`` models limited concurrent occupancy held by a process (a
GPU's compute slot, an HCA's atomic unit); link directions keep their
own Event-free slot FIFO (:class:`repro.hardware.links.LinkDirection`).
``Store`` is an unbounded FIFO mailbox used for message hand-off (e.g.
proxy work queues).

Both follow the engine's yield protocol: ``request()`` / ``get()``
return events a process yields on.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Optional

from repro.simulator.core import Event, SimulationError, Simulator, URGENT


class Request(Event):
    """A pending claim on a :class:`Resource` slot."""

    __slots__ = ("resource",)

    def __init__(self, resource: "Resource"):
        super().__init__(resource.sim, name=f"request({resource.name})")
        self.resource = resource


class Resource:
    """FIFO resource with fixed capacity.

    Usage from a process::

        req = resource.request()
        yield req
        try:
            ...  # hold the slot
        finally:
            resource.release(req)
    """

    def __init__(self, sim: Simulator, capacity: int = 1, name: str = "resource"):
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self._users: set = set()
        self._waiters: Deque[Request] = deque()

    @property
    def count(self) -> int:
        """Number of slots currently held."""
        return len(self._users)

    @property
    def queued(self) -> int:
        """Number of requests waiting for a slot."""
        return len(self._waiters)

    def request(self) -> Request:
        req = Request(self)
        if len(self._users) < self.capacity:
            self._users.add(id(req))
            req.succeed(priority=URGENT)
        else:
            self._waiters.append(req)
        return req

    def release(self, req: Request) -> None:
        if id(req) in self._users:
            self._users.remove(id(req))
        elif req in self._waiters:
            # Cancelled before it was granted.
            self._waiters.remove(req)
            return
        else:
            raise SimulationError(f"release of unknown request on {self.name!r}")
        while self._waiters and len(self._users) < self.capacity:
            nxt = self._waiters.popleft()
            self._users.add(id(nxt))
            nxt.succeed(priority=URGENT)

    def acquire(self):
        """Generator helper: ``req = yield from res.acquire()``."""
        req = self.request()
        yield req
        return req

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Resource {self.name} {self.count}/{self.capacity} (+{self.queued} queued)>"


class Store:
    """Unbounded FIFO of items with blocking ``get``.

    ``put`` never blocks and schedules nothing of its own; ``get``
    yields until an item is available.  Items are delivered in
    put-order to getters in get-order.
    """

    def __init__(self, sim: Simulator, name: str = "store"):
        self.sim = sim
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            getter = self._getters.popleft()
            getter.succeed(item, priority=URGENT)
        else:
            self._items.append(item)

    def get(self) -> Event:
        ev = Event(self.sim, name=f"{self.name}:get")
        if self._items:
            ev.succeed(self._items.popleft(), priority=URGENT)
        else:
            self._getters.append(ev)
        return ev

    def get_nowait(self) -> Optional[Any]:
        """Pop an item if one is queued, else None (never blocks)."""
        return self._items.popleft() if self._items else None

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Store {self.name} items={len(self._items)} getters={len(self._getters)}>"
