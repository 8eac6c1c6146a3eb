"""IB UD: unreliable datagrams with MTU segmentation, no retry state.

The RC/UD tradeoff the MPICH2-over-InfiniBand lineage measures:
a UD QP carries no connection state, so posting a send is cheaper
(``ud_post_overhead`` vs ``rdma_post_overhead``) and nothing is acked —
but every payload must fit a datagram, so messages are segmented into
``ud_mtu``-sized packets, each paying its own post + HCA overheads,
and a packet lost to a link fault is simply **dropped**: the transport
never retransmits (:class:`repro.ib.rc.RCTransport` is deliberately
not consulted).  Reliability, when wanted, is a loop above the
datagrams: :meth:`UDTransport.send` re-posts the missing segments after
``ud_resend_timeout``, for at most ``ud_resend_limit`` rounds, while
each packet it posts (:meth:`UDTransport.send_packet`) is still fire
and forget.  The msg layer's UD route calls ``send``.

:class:`UDReassembly` is the receive-side half: offset-keyed segment
bookkeeping that tolerates out-of-order and duplicate delivery and
flags overlapping (corrupt) segments.  It is pure bookkeeping with no
simulator dependency, so the Hypothesis suite can hammer it directly
(``tests/test_property_ud.py``).
"""

from __future__ import annotations

import bisect
from typing import Dict, Generator, List, Optional, Tuple

from repro.errors import IBError, LinkDown
from repro.hardware.links import TransferSpec, chunked


class UDReassembly:
    """Receive-side segment tracker for one datagram message.

    Segments are identified by byte offset.  Delivery may be
    out-of-order (each packet routes independently) and duplicated
    (sender resends overlap with late arrivals) — both are legal UD
    behaviour and handled silently.  A segment that *overlaps* an
    already-accepted one with a different extent, or reaches past the
    message, is corrupt and raises :class:`~repro.errors.IBError`.
    """

    def __init__(self, total: int, mtu: int):
        if total < 0:
            raise IBError(f"message size must be non-negative, got {total}")
        if mtu <= 0:
            raise IBError(f"UD MTU must be positive, got {mtu}")
        self.total = total
        self.mtu = mtu
        #: offset -> segment length, for every accepted segment.
        self._segments: Dict[int, int] = {}
        #: accepted offsets, sorted — overlap checks only ever need the
        #: two grid neighbours, so inserts stay O(log n) even for
        #: pathological MTU/message ratios.
        self._offsets: List[int] = []
        #: offset -> payload bytes (only when the caller supplies data).
        self._data: Dict[int, bytes] = {}
        self._received = 0

    def insert(self, offset: int, data: bytes) -> bool:
        """Accept a segment carrying ``data``; returns False on duplicate."""
        return self._accept(offset, len(data), data)

    def insert_span(self, offset: int, size: int) -> bool:
        """Accept a data-less segment (timing-only callers)."""
        return self._accept(offset, size, None)

    def _accept(self, offset: int, size: int, data: Optional[bytes]) -> bool:
        if offset < 0 or size <= 0:
            raise IBError(f"bad UD segment: offset={offset} size={size}")
        if size > self.mtu:
            raise IBError(f"UD segment of {size} B exceeds MTU {self.mtu}")
        if offset + size > self.total:
            raise IBError(
                f"UD segment [{offset}, {offset + size}) past message end {self.total}"
            )
        have = self._segments.get(offset)
        if have is not None:
            if have != size or (data is not None and self._data.get(offset) not in (None, data)):
                raise IBError(
                    f"overlapping UD segment at offset {offset}: "
                    f"{size} B vs accepted {have} B"
                )
            return False  # duplicate delivery — ignore
        i = bisect.bisect_left(self._offsets, offset)
        for off in (self._offsets[i - 1] if i else None,
                    self._offsets[i] if i < len(self._offsets) else None):
            if off is None:
                continue
            sz = self._segments[off]
            if offset < off + sz and off < offset + size:
                raise IBError(
                    f"UD segment [{offset}, {offset + size}) overlaps "
                    f"accepted [{off}, {off + sz})"
                )
        self._offsets.insert(i, offset)
        self._segments[offset] = size
        if data is not None:
            self._data[offset] = data
        self._received += size
        return True

    @property
    def complete(self) -> bool:
        return self._received >= self.total

    def missing(self) -> List[Tuple[int, int]]:
        """Uncovered ``(offset, size)`` spans on the sender's MTU grid."""
        gaps: List[Tuple[int, int]] = []
        offset = 0
        for size in chunked(self.total, self.mtu):
            if offset not in self._segments:
                gaps.append((offset, size))
            offset += size
        return gaps

    def payload(self) -> bytes:
        """The reassembled message; every segment must have carried data."""
        if not self.complete:
            raise IBError(f"reassembly incomplete: missing {self.missing()}")
        if len(self._data) != len(self._segments):
            raise IBError("reassembly tracked spans only; no payload captured")
        return b"".join(self._data[off] for off in sorted(self._data))


class UDTransport:
    """Datagram send engine sharing the RC path's fabric, not its QP state.

    One instance per job (attached lazily by the msg layer).  Each
    packet is an independent WR: post overhead, HCA tx, host-side DMA
    legs, one wire crossing, HCA rx — and **no ack leg**, there is
    nothing to wait for.  A :class:`~repro.errors.LinkDown` during the
    crossing drops the packet (``sim.stats.ud_drops``); the caller
    learns which offsets arrived and may resend.
    """

    def __init__(self, verbs):
        self.verbs = verbs
        self.sim = verbs.sim
        self.hw = verbs.hw
        self.params = verbs.params

    def packet_path(self, ep, dst, nbytes: int) -> TransferSpec:
        """The timed hops of one datagram between two endpoints."""
        p = self.params
        path = ep.node.pcie.hca_host_leg(ep.hca_id, nbytes, to_host=False)
        path.extend(self.hw.fabric.wire(ep.hca, dst.hca, nbytes))
        path.extend(dst.node.pcie.hca_host_leg(dst.hca_id, nbytes, to_host=True))
        path.setup += p.hca_tx_overhead + p.hca_rx_overhead
        path.label = "ud_segment"
        return path

    def send_packet(self, ep, dst, nbytes: int, *, offset: int = 0) -> Generator:
        """Post one datagram; returns True if it landed, False if dropped.

        The send-side completion is *per packet* and local: it fires as
        soon as the WR leaves the send queue, regardless of delivery —
        which is why a drop surfaces as a return value, not an error.
        """
        sim = self.sim
        p = self.params
        tracer = sim.tracer
        span = None
        if tracer is not None:
            span = tracer.begin(
                sim, "ud_segment", "ib", f"ib:pe{ep.owner}",
                nbytes=nbytes, target_pe=dst.owner, offset=offset,
            )
        try:
            yield sim.timeout(p.ud_post_overhead, name="ud:post")
            hca = ep.hca
            wait = hca.stall_remaining(sim.now)
            if wait > 0.0:
                sim.stats.hca_stalls += 1
                yield sim.timeout(wait, name="ud:hca-stall")
            sim.stats.ud_packets += 1
            hca.count_tx()
            path = self.packet_path(ep, dst, nbytes)
            try:
                yield from path.execute(sim)
            except LinkDown:
                # UD has no retry state: the wire ate the packet and
                # the HCA neither knows nor cares.  Tally and move on.
                sim.stats.ud_drops += 1
                return False
            dst.hca.count_rx()
            return True
        finally:
            if tracer is not None:
                tracer.end(sim, span)

    def send(self, ep, dst, nbytes: int) -> Generator:
        """Reliably deliver ``nbytes`` as datagrams: segment on the MTU
        grid, post every segment, then re-post the gaps after each
        ``ud_resend_timeout`` (this loop is UD's only resend timer).

        Yields until every segment has landed; returns the reassembly
        (``.complete`` is True).  Raises :class:`~repro.errors.IBError`
        after ``ud_resend_limit`` resend rounds still leave gaps.
        """
        sim = self.sim
        p = self.params
        assembly = UDReassembly(nbytes, p.ud_mtu)
        pending = list(zip(
            range(0, max(nbytes, 1), p.ud_mtu), chunked(nbytes, p.ud_mtu)
        ))
        if not pending:
            # Zero-byte message: a bare (header-only) datagram still
            # crosses the wire so the receiver observes the send.
            yield from self.send_packet(ep, dst, 0)
            return assembly
        rounds = 0
        while True:
            for offset, size in pending:
                landed = yield from self.send_packet(ep, dst, size, offset=offset)
                if landed:
                    assembly.insert_span(offset, size)
            if assembly.complete:
                return assembly
            rounds += 1
            if rounds > p.ud_resend_limit:
                raise IBError(
                    f"UD message of {nbytes} B undeliverable: "
                    f"{len(assembly.missing())} segments still missing "
                    f"after {p.ud_resend_limit} resend rounds"
                )
            pending = assembly.missing()
            sim.stats.ud_resends += len(pending)
            yield sim.timeout(p.ud_resend_timeout, name="ud:resend-wait")
