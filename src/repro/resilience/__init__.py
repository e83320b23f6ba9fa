"""Resilience layer: fault injection, retries/deadlines, degradation.

PR 7 made the serving tier durable; this package makes it *fault
tolerant*.  Production database systems treat continuous partial
failure as a design axis, and the reproduction stack takes the same
posture: every storage/serving failure mode is injectable, bounded by
a deadline or retry policy, and degrades gracefully instead of
crashing.

:mod:`repro.resilience.errors`
    The failure taxonomy — :class:`TransientStorageError`,
    :class:`PermanentStorageError`, :class:`DegradedServiceError`,
    :class:`DeadlineExceededError` — and :func:`classify_error`,
    which maps raw backend exceptions (locked SQLite databases,
    ``EINTR`` I/O) onto retryable vs. fatal.
:mod:`repro.resilience.retry`
    :class:`RetryPolicy` (exponential backoff, *seeded* jitter,
    bounded attempts) and :class:`Deadline` (a monotonic wall-clock
    budget carried through storage call chains).
:mod:`repro.resilience.breaker`
    :class:`CircuitBreaker` — the closed → open → half-open machine
    gating each tenant's degraded-mode recovery probes.
:mod:`repro.resilience.faults`
    :class:`FaultInjectingBackend` + :class:`FaultPlan` — seeded,
    scriptable fault schedules (Nth-write failures, locked-db storms,
    latency) against any real backend, so the chaos tests and
    benchmarks are deterministic.

:class:`~repro.serving.TenantManager` threads all four through the
serving tier: WAL appends retry transient errors, persistent failure
opens the tenant's breaker (queries keep answering, ingest answers
503 + ``Retry-After``), and tenants whose recovery fails at startup
are quarantined instead of refusing to start the server.  See
docs/resilience.md for the taxonomy, the degraded-mode contract and
the fault-plan cookbook.
"""

from .breaker import CircuitBreaker
from .errors import (DeadlineExceededError, DegradedServiceError,
                     PermanentStorageError, TransientStorageError,
                     classify_error, is_transient)
from .faults import FaultInjectingBackend, FaultPlan, FaultSpec
from .retry import Deadline, RetryPolicy

__all__ = [
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceededError",
    "DegradedServiceError",
    "FaultInjectingBackend",
    "FaultPlan",
    "FaultSpec",
    "PermanentStorageError",
    "RetryPolicy",
    "TransientStorageError",
    "classify_error",
    "is_transient",
]
