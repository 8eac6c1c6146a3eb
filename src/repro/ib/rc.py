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
    before=None, failed=None, succeeded=None, first: Optional[Generator] = None,
) -> Generator:
    """Run ``attempt()`` until it returns, re-running it after a failure
    in ``errors`` at most ``budget`` times; returns its result.

    The ``k``-th failure waits ``delay(k)`` (a Timeout named ``name``);
    the failure past the budget is re-raised.  ``retries`` counts every
    failure when ``count_last``, else only those that are re-run.
    Hooks: ``before()`` runs ahead of each attempt and returns a
    generator to run first, or ``None`` to go straight on;
    ``failed(exc, k)`` sees each failure before the budget check (and
    may raise instead), ``succeeded()`` sees the success.  ``first``,
    when given, is the first attempt already under way (its ``before()``
    done): a callback-driven write hands its failed or stalled attempt
    over to this loop that way.
    """
    k = 0
    while True:
        if first is None and before is not None:
            wait = before()
            if wait is not None:
                yield from wait
        gen, first = first, None
        try:
            result = yield from (attempt() if gen is None else gen)
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

    def _stall(self, hca: HCA) -> Optional[Generator]:
        """The wait for an injected stall on ``hca`` still in force, or
        ``None`` when there is none (the common case builds nothing)."""
        wait = hca.stall_remaining(self.sim.now)
        if wait > 0.0:
            self.sim.stats.hca_stalls += 1
            return self._stalled(wait)
        return None

    def _stalled(self, wait: float) -> Generator:
        yield self.sim.timeout(wait, name="rc:hca-stall")

    def record_success(self, spec: TransferSpec) -> None:
        """Feed a transfer's success on every direction to the health
        tracker.  A first attempt that succeeds needs nothing else: it
        lost no hold, so the span ledger has nothing to tally."""
        now = self.sim.now
        for d in spec.directions():
            self.health.record_success(d.name, now)

    def execute(
        self, spec: TransferSpec, hca: Optional[HCA] = None,
        failure: Optional[BaseException] = None,
    ) -> Generator:
        """Run ``spec`` with RC retry semantics.

        ``hca`` is the adapter whose send queue carries the WR; an
        injected stall on it delays (each attempt of) the transfer, the
        queue-drain behaviour stalled firmware exhibits.  ``failure`` is
        the exception a first attempt already raised outside this loop
        (``Verbs.rdma_write`` runs its first attempt as callbacks); the
        loop then starts at that failure.  A plain dispatcher, like
        ``Verbs._execute``: the transfer runs one generator frame below
        the retry loop.
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
            self.record_success(spec)

        return self.backoff(
            partial(spec.execute, sim), before=None if hca is None else partial(self._stall, hca),
            failed=failed, succeeded=succeeded, first=None if failure is None else _raise(failure),
        )


def _raise(exc: BaseException) -> Generator:
    """An attempt that already failed with ``exc``, as :func:`retry`'s
    ``first``."""
    raise exc
    yield  # pragma: no cover - makes this a generator
