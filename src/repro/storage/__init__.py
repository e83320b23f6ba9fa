"""Durable storage backends for the serving tier.

The serving stack persists three concerns — tenant configurations,
versioned service snapshots, and a write-ahead ingest log — behind one
:class:`StorageBackend` contract with two durable implementations and
one process-local one:

:class:`DirectoryBackend` (``"json"``)
    The original directory-of-JSON snapshot layout, kept as the
    default.  Human-inspectable files, one directory per store,
    durable writes (fsync'd temp file + atomic rename + directory
    fsync).
:class:`SQLiteBackend` (``"sqlite"``)
    One WAL-mode SQLite file with schema-per-concern tables and a
    trigger-materialized listing view; listings and log scans never
    touch snapshot blobs.

:class:`MemoryBackend` (not in :data:`BACKENDS`)
    Process-local tenants with a row-free ingest log and no snapshots:
    what ``repro serve`` runs over without ``--backend``.

:func:`open_backend` builds a durable one from CLI-style arguments.  See
docs/storage.md for the backend matrix, durability guarantees and
recovery semantics.
"""

from .base import (DEFAULT_TENANT, CorruptEntryError, IngestLogEntry,
                   SnapshotRecord, StorageBackend, StorageError,
                   TenantExistsError, TenantRecord, UnknownTenantError,
                   validate_tenant_name)
from .directory import DirectoryBackend, fsync_directory
from .memory import MemoryBackend, NotDurableError
from .sqlite import SQLiteBackend

#: Backend constructors by CLI name.
BACKENDS = {
    "json": DirectoryBackend,
    "sqlite": SQLiteBackend,
}


def open_backend(backend: str, location: str, *,
                 busy_timeout_ms: int | None = None) -> StorageBackend:
    """Build a storage backend by name.

    ``location`` is the store directory for ``"json"`` and the
    database file path for ``"sqlite"``.  ``busy_timeout_ms``
    configures the SQLite lock-wait budget (``repro serve
    --busy-timeout``); setting it for a backend without lock waiting
    is an error rather than a silent no-op.
    """
    try:
        factory = BACKENDS[backend]
    except KeyError:
        raise ValueError(f"unknown storage backend {backend!r}; "
                         f"known: {sorted(BACKENDS)}") from None
    if busy_timeout_ms is not None:
        if backend != "sqlite":
            raise ValueError(
                f"busy_timeout_ms only applies to the sqlite backend, "
                f"not {backend!r}")
        return factory(location, busy_timeout_ms=busy_timeout_ms)
    return factory(location)


__all__ = [
    "BACKENDS",
    "CorruptEntryError",
    "DEFAULT_TENANT",
    "DirectoryBackend",
    "IngestLogEntry",
    "MemoryBackend",
    "NotDurableError",
    "SQLiteBackend",
    "SnapshotRecord",
    "StorageBackend",
    "StorageError",
    "TenantExistsError",
    "TenantRecord",
    "UnknownTenantError",
    "fsync_directory",
    "open_backend",
    "validate_tenant_name",
]
