"""Exception hierarchy for the GDR-SHMEM reproduction."""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all library errors."""


class ConfigurationError(ReproError):
    """Invalid cluster / runtime configuration."""


class CudaError(ReproError):
    """Errors from the simulated CUDA layer (bad pointers, OOM, ...)."""


class IBError(ReproError):
    """Errors from the simulated InfiniBand verbs layer."""


class RegistrationError(IBError):
    """Memory-registration failures (unpinned range, exhausted cache)."""


class CompletionError(IBError):
    """A work request completed in error (typed completion status).

    ``status`` carries the IB completion status string, so callers can
    switch on it exactly like ``ibv_wc.status``.
    """

    status = "ERROR"

    def __init__(self, message: str = "", *, status: str = None):
        super().__init__(message)
        if status is not None:
            self.status = status


class RetryExceeded(CompletionError):
    """IB RC retransmission gave up: ``retry_cnt`` attempts exhausted.

    The reliable transport (:mod:`repro.ib.rc`) raises this instead of
    leaking the underlying :class:`LinkDown` mid-generator, with the
    ``RETRY_EXC_ERR`` status a verbs completion would carry.
    """

    status = "RETRY_EXC_ERR"

    def __init__(self, message: str = "", *, attempts: int = 0, direction=None):
        super().__init__(message)
        self.attempts = attempts
        #: The :class:`~repro.hardware.links.LinkDirection` that kept
        #: failing, when known (drives the health tracker).
        self.direction = direction


class ShmemError(ReproError):
    """OpenSHMEM semantic violations (bad PE, non-symmetric address...)."""


class HeapExhausted(ShmemError):
    """Symmetric heap allocation failed."""


def annotate_workload_error(exc: BaseException, pe: int, op_index: int) -> BaseException:
    """Stamp a workload exception with the PE and op ordinal it escaped
    from (idempotent; keeps the original type and attributes).

    ``ShmemJob.run`` calls this on anything a program body raises, so a
    failure in a generated or user workload names *where* it happened —
    ``pe`` and ``op_index`` become attributes and the first string arg
    gains a ``[PE p, op #i]`` suffix."""
    if getattr(exc, "pe", None) is None or not hasattr(exc, "op_index"):
        exc.pe = pe
        exc.op_index = op_index
        note = f"[PE {pe}, op #{op_index}]"
        if exc.args and isinstance(exc.args[0], str):
            exc.args = (f"{exc.args[0]} {note}",) + exc.args[1:]
        else:
            exc.args = exc.args + (note,)
    return exc


class LinkDown(ReproError):
    """Raised into transfers when failure injection downs a link.

    ``direction`` (optional) is the failed
    :class:`~repro.hardware.links.LinkDirection`, so retry/health layers
    can attribute the fault to a path without string parsing.
    """

    def __init__(self, message: str = "", direction=None, in_flight: bool = False):
        super().__init__(message)
        self.direction = direction
        #: True when the failure was observed *after* the wire hold
        #: completed (payload lost mid-transfer) rather than at
        #: request/grant time.  The RC transport uses this to keep its
        #: retransmission ledger exact: an in-flight attempt already
        #: charged a full wire crossing, an acquire-time one charged
        #: none.
        self.in_flight = in_flight
