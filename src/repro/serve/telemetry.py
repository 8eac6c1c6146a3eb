"""Per-job streaming telemetry: an append-only event channel.

Every :class:`~repro.serve.jobs.Job` owns one :class:`EventBuffer`.
Producers (the scheduler and its workers) ``emit`` typed events —
``state`` lifecycle edges, ``metrics`` :class:`MetricsSnapshot`
deltas, ``spans`` trace chunks, ``progress`` markers — and any number
of consumers replay + follow them concurrently via :meth:`stream`
(which backs the ``GET /jobs/<id>/events`` NDJSON endpoint).

Design constraints:

* **Single-threaded writes.**  ``emit`` must be called on the service
  event loop; worker threads hand events over with
  ``loop.call_soon_threadsafe(buf.emit, ...)``.  This keeps the buffer
  lock-free.
* **Late subscribers replay.**  Events carry monotonically increasing
  ``seq`` numbers; a subscriber passes ``after`` and receives
  everything it missed before going live.
* **Bounded memory.**  At most ``maxlen`` events are retained; older
  ones are dropped oldest-first and counted in :attr:`dropped` (the
  same honesty contract as :class:`~repro.obs.spans.SpanTracer`).
  Heavy ``spans`` chunks are additionally capped at ``chunk_maxlen``
  retained payloads per job: beyond the cap the *oldest* chunk keeps
  its envelope (so seq accounting stays contiguous) but its span list
  is stripped, counted in :attr:`truncated_chunks` — a slow consumer
  costs bounded memory, never unbounded heap growth.
* **Clean termination.**  :meth:`close` wakes every follower; a
  closed, drained stream ends instead of blocking forever.
* **Journal cursors.**  Events the scheduler also journaled carry the
  journal sequence number (``jseq``) — globally monotonic and durable
  across service restarts, unlike the per-buffer ``seq`` — which is
  what ``ServeClient.stream_resume`` uses to resume a stream over a
  restarted service without duplicates.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, AsyncIterator, Dict, List, Optional


class EventBuffer:
    """Append-only, replayable, asyncio-followable event log."""

    #: Event types whose payloads count against ``chunk_maxlen``.
    CHUNK_TYPES = ("spans",)

    def __init__(self, maxlen: int = 4096, chunk_maxlen: int = 128):
        self._events: List[Dict[str, Any]] = []
        self._first_seq = 1  # seq of _events[0]
        self._seq = 0
        self._maxlen = maxlen
        self._chunk_maxlen = chunk_maxlen
        self._chunks_retained = 0
        self._strip_cursor = 0  # index below which no strippable chunk lives
        self._closed = False
        self.dropped = 0
        self.truncated_chunks = 0
        self._wakeup: Optional[asyncio.Event] = None

    def __len__(self) -> int:
        return len(self._events)

    @property
    def closed(self) -> bool:
        return self._closed

    def _notify(self) -> None:
        # Followers grab the *current* Event object before sleeping;
        # replacing it on every notify means a set() can never be
        # missed by a later sleeper.
        w = self._wakeup
        if w is not None:
            self._wakeup = None
            w.set()

    def emit(
        self, type_: str, data: Dict[str, Any], jseq: Optional[int] = None
    ) -> None:
        """Append one event.  Must run on the service event loop.

        ``jseq`` is the journal sequence number when the scheduler
        also journaled this event (state edges under a write-ahead
        journal); it rides along in the event envelope as the durable
        stream-resume cursor.
        """
        if self._closed:
            return
        self._seq += 1
        event = {"seq": self._seq, "ts": time.time(), "type": type_, "data": data}
        if jseq is not None:
            event["jseq"] = jseq
        self._events.append(event)
        if type_ in self.CHUNK_TYPES:
            self._chunks_retained += 1
            if self._chunks_retained > self._chunk_maxlen:
                self._strip_oldest_chunk()
        if len(self._events) > self._maxlen:
            head = self._events[0]
            if head["type"] in self.CHUNK_TYPES and not head["data"].get("stripped"):
                self._chunks_retained -= 1
            del self._events[0]
            self._first_seq += 1
            self._strip_cursor = max(0, self._strip_cursor - 1)
            self.dropped += 1
        self._notify()

    def _strip_oldest_chunk(self) -> None:
        """Replace the oldest still-payloaded chunk event's span list
        with a stub, keeping the envelope (and seq contiguity)."""
        idx = self._strip_cursor
        while idx < len(self._events):
            evt = self._events[idx]
            if evt["type"] in self.CHUNK_TYPES and not evt["data"].get("stripped"):
                evt["data"] = {
                    "stripped": True,
                    "new": evt["data"].get("new"),
                    "total": evt["data"].get("total"),
                }
                self._chunks_retained -= 1
                self.truncated_chunks += 1
                self._strip_cursor = idx + 1
                return
            idx += 1
        self._strip_cursor = idx

    def close(self) -> None:
        self._closed = True
        self._notify()

    def since(self, after_seq: int) -> List[Dict[str, Any]]:
        """Every retained event with ``seq > after_seq``."""
        if not self._events:
            return []
        start = max(0, after_seq - self._first_seq + 1)
        return self._events[start:]

    def last(self, type_: str) -> Optional[Dict[str, Any]]:
        """The most recent retained event of one type (or None)."""
        for evt in reversed(self._events):
            if evt["type"] == type_:
                return evt
        return None

    async def stream(self, after_seq: int = 0) -> AsyncIterator[Dict[str, Any]]:
        """Replay events after ``after_seq``, then follow live emissions
        until the buffer is closed and drained."""
        while True:
            if self._wakeup is None:
                self._wakeup = asyncio.Event()
            wakeup = self._wakeup
            batch = self.since(after_seq)
            if batch:
                after_seq = batch[-1]["seq"]
                for evt in batch:
                    yield evt
                continue
            if self._closed:
                return
            await wakeup.wait()

    async def wait_closed(self, timeout: Optional[float] = None) -> bool:
        """Block until :meth:`close` (True) or ``timeout`` (False)."""
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._closed:
            if self._wakeup is None:
                self._wakeup = asyncio.Event()
            wakeup = self._wakeup
            if deadline is None:
                await wakeup.wait()
                continue
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            try:
                await asyncio.wait_for(wakeup.wait(), remaining)
            except asyncio.TimeoutError:
                return False
        return True
