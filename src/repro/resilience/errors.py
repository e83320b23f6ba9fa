"""Structured failure taxonomy for the serving + storage stack.

Every runtime failure the resilience layer handles falls into one of
three buckets, and the whole retry/degradation machinery keys off
this classification:

*transient*
    The operation may succeed if simply tried again: a locked SQLite
    database (another process holds the write lock for a moment), an
    ``EINTR``/``EAGAIN``-style I/O hiccup, an injected latency spike
    that tripped a deadline.  :class:`~repro.resilience.RetryPolicy`
    retries these with exponential backoff.
*permanent*
    Retrying is pointless: the disk is full, a log entry is corrupt
    in the middle of the sequence, the tenant does not exist.  These
    surface immediately (and trip the circuit breaker).
*degraded*
    Not an I/O failure but a *service posture*: the tenant's breaker
    is open (its write-ahead log has been failing persistently) or
    the tenant was quarantined because recovery failed at startup.
    Queries keep answering from the last finalized estimator; ingest
    answers 503 with ``Retry-After`` until a recovery probe succeeds.

:func:`classify_error` maps arbitrary raised exceptions onto
``"transient"`` / ``"permanent"`` so backends never need to know
about this module — the classification happens at the call site
(:meth:`repro.resilience.RetryPolicy.call`).  docs/resilience.md has
the full taxonomy table and the degraded-mode contract.
"""

from __future__ import annotations

import errno
import sqlite3

from ..storage.base import CorruptEntryError, StorageError

__all__ = [
    "DeadlineExceededError",
    "DegradedServiceError",
    "PermanentStorageError",
    "TransientStorageError",
    "classify_error",
    "is_transient",
]

#: ``errno`` values treated as transient I/O hiccups.
TRANSIENT_ERRNOS = frozenset({errno.EINTR, errno.EAGAIN, errno.EBUSY,
                              errno.ETIMEDOUT})

#: Substrings of SQLite ``OperationalError`` messages that mean "the
#: database is momentarily busy", not "the database is broken".
_SQLITE_TRANSIENT_MARKERS = ("database is locked", "database table is locked",
                             "database is busy")


class TransientStorageError(StorageError):
    """A storage failure that may clear on retry (locked db, EINTR)."""


class PermanentStorageError(StorageError):
    """A storage failure retrying cannot fix (corruption, full disk)."""


class DeadlineExceededError(TimeoutError):
    """The operation's deadline expired before it could complete."""


class DegradedServiceError(RuntimeError):
    """The tenant is serving in degraded mode: queries only.

    Raised when ingest reaches a tenant whose circuit breaker is open
    (persistent write-ahead-log failures) or whose recovery failed at
    startup (quarantine).  ``retry_after`` is the suggested client
    back-off in seconds — the HTTP layer turns it into a 503 response
    with a ``Retry-After`` header.
    """

    def __init__(self, message: str, *, retry_after: float = 1.0,
                 tenant: str | None = None):
        super().__init__(message)
        self.retry_after = max(0.0, float(retry_after))
        self.tenant = tenant


def is_transient(error: BaseException) -> bool:
    """Whether ``error`` is worth retrying."""
    return classify_error(error) == "transient"


def classify_error(error: BaseException) -> str:
    """``"transient"`` or ``"permanent"`` for a raised exception.

    The rules, in order:

    * the typed taxonomy errors classify as themselves;
    * ``sqlite3.OperationalError`` with a locked/busy message is
      transient (any other operational error — malformed schema, disk
      I/O error — is permanent);
    * ``OSError`` with an ``errno`` in :data:`TRANSIENT_ERRNOS` is
      transient;
    * ``TimeoutError`` is transient (the deadline machinery raises
      :class:`DeadlineExceededError`, which is *not* retried — it is
      the retry loop's own stop signal);
    * everything else is permanent.
    """
    if isinstance(error, DeadlineExceededError):
        return "permanent"
    if isinstance(error, TransientStorageError):
        return "transient"
    if isinstance(error, (PermanentStorageError, CorruptEntryError)):
        return "permanent"
    if isinstance(error, sqlite3.OperationalError):
        message = str(error).lower()
        if any(marker in message for marker in _SQLITE_TRANSIENT_MARKERS):
            return "transient"
        return "permanent"
    if isinstance(error, OSError) and error.errno in TRANSIENT_ERRNOS:
        return "transient"
    if isinstance(error, TimeoutError):
        return "transient"
    return "permanent"
