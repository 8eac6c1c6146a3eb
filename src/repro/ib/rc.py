"""IB RC reliability: per-QP retransmission with exponential backoff.

Real ConnectX HCAs retransmit a reliable-connection work request when
the remote ack does not arrive within the QP's local-ack timeout, up to
``retry_cnt`` (a 3-bit field, max 7) attempts, then complete the WR
with ``RETRY_EXC_ERR``.  :class:`RCTransport` models that loop at the
:class:`~repro.hardware.links.TransferSpec` granularity: a transfer
that observes a link failure is re-executed after a backed-off timeout,
**re-pricing the wire crossing** — each attempt charges the full
contended path time, so timing stays physical under faults.

:func:`retry` is the one bounded loop that re-runs a failed attempt: RC
retransmission, the runtime's staged-copy retries (the same backoff,
:meth:`RCTransport.backoff`) and the device-initiated design's replay
after the health cooldown (``Runtime._recover``) all run through it.

The transport is only attached (``Verbs.rc``) when a
:class:`repro.faults.FaultPlan` is active; without it every spec runs
through the plain single-attempt path and the simulation is
bit-identical to a build without this module.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Dict, Generator, Optional

from repro.errors import LinkDown, RetryExceeded
from repro.hardware.hca import HCA
from repro.hardware.links import TransferSpec
from repro.hardware.params import HardwareParams
from repro.simulator import Simulator


def retry(
    sim: Simulator, attempt: Callable[[], Generator], budget: int,
    delay: Callable[[int], float], name: str, *, errors=(LinkDown,), count_last=True,
    before=None, failed=None, succeeded=None,
) -> Generator:
    """Run ``attempt()`` until it returns, re-running it after a failure
    in ``errors`` at most ``budget`` times; returns its result.

    The ``k``-th failure waits ``delay(k)`` (a Timeout named ``name``);
    the failure past the budget is re-raised.  ``retries`` counts every
    failure when ``count_last``, else only those that are re-run.
    Hooks: ``before()`` (a generator) runs ahead of each attempt,
    ``failed(exc, k)`` sees each failure before the budget check (and
    may raise instead), ``succeeded()`` sees the success.
    """
    k = 0
    while True:
        if before is not None:
            yield from before()
        try:
            result = yield from attempt()
        except errors as exc:
            k += 1
            if count_last:
                sim.stats.retries += 1
            if failed is not None:
                failed(exc, k)
            if k > budget:
                raise
            if not count_last:
                sim.stats.retries += 1
            yield sim.timeout(delay(k), name=name)
            continue
        if succeeded is not None:
            succeeded()
        return result


class RCTransport:
    """Reliable-connection retry engine shared by all QPs of a job."""

    def __init__(self, sim: Simulator, params: HardwareParams, health):
        self.sim = sim
        self.retry_cnt = params.rc_retry_cnt
        self.timeout = params.rc_timeout
        self.backoff_factor = params.rc_backoff
        #: The job's :class:`repro.faults.health.HealthTracker`, fed with
        #: per-path retry/failure/success observations.
        self.health = health
        #: Per-direction retransmission tally (diagnostics/reporting).
        self.retries_by_path: Dict[str, int] = {}

    def backoff(self, attempt: Callable[[], Generator], **hooks) -> Generator:
        """``attempt()`` under bounded exponential backoff: re-run up to
        ``retry_cnt`` times, the ``k``-th re-run ``rc_timeout *
        rc_backoff ** (k-1)`` after the ``k``-th failure, every failure
        counted.  ``hooks`` go to :func:`retry`."""
        return retry(
            self.sim, attempt, self.retry_cnt,
            lambda k: self.timeout * self.backoff_factor ** (k - 1), "rc:backoff", **hooks,
        )

    def _stall(self, hca: HCA) -> Generator:
        wait = hca.stall_remaining(self.sim.now)
        if wait > 0.0:
            self.sim.stats.hca_stalls += 1
            yield self.sim.timeout(wait, name="rc:hca-stall")

    def execute(self, spec: TransferSpec, hca: Optional[HCA] = None) -> Generator:
        """Run ``spec`` with RC retry semantics.

        ``hca`` is the adapter whose send queue carries the WR; an
        injected stall on it delays (each attempt of) the transfer, the
        queue-drain behaviour stalled firmware exhibits.  A plain
        dispatcher, like ``Verbs._execute``: the transfer runs one
        generator frame below the retry loop.
        """
        sim, health = self.sim, self.health
        is_write = spec.label == "rdma_write"
        # Span ledger.  One ``rdma_write`` call opens one span but fires
        # one link hold *per wire crossing*: each in-flight loss held the
        # wire before failing, a success holds once more, and an
        # acquire-time loss never held it.  The surplus (retransmitted
        # holds) and the deficit (zero-hold aborts) are tallied here —
        # the single place both asymmetries originate — for the
        # span-parity oracle to reconcile.
        lost = 0  # in-flight losses so far

        def failed(exc: LinkDown, attempts: int) -> None:
            nonlocal lost
            if exc.in_flight:
                lost += 1
            direction = exc.direction
            if direction is not None:
                name = direction.name
                self.retries_by_path[name] = self.retries_by_path.get(name, 0) + 1
                health.record_retry(name, sim.now)
            if attempts <= self.retry_cnt:
                return
            if direction is not None:
                health.record_failure(direction.name, sim.now)
            if is_write:
                if lost == 0:
                    sim.stats.rc_aborted_wrs += 1
                elif lost > 1:
                    sim.stats.rc_retx_holds += lost - 1
            raise RetryExceeded(
                f"{spec.label}: {attempts} attempts exhausted retry_cnt={self.retry_cnt} ({exc})",
                attempts=attempts, direction=direction,
            ) from exc

        def succeeded() -> None:
            if is_write and lost:
                sim.stats.rc_retx_holds += lost
            for d in spec.directions():
                health.record_success(d.name, sim.now)

        return self.backoff(
            partial(spec.execute, sim), before=None if hca is None else partial(self._stall, hca),
            failed=failed, succeeded=succeeded,
        )
