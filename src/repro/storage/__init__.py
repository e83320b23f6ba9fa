"""Durable storage for the serving tier.

The serving stack persists three concerns — tenant configurations,
versioned service snapshots, and a write-ahead ingest log — behind one
:class:`StorageBackend` contract with one durable implementation and
one process-local one:

:class:`SQLiteBackend`
    One WAL-mode SQLite file with schema-per-concern tables and a
    trigger-materialized listing view; listings and log scans never
    touch snapshot blobs.  ``repro serve --backend sqlite --store DB``
    runs over it.
:class:`MemoryBackend`
    Process-local tenants with a row-free ingest log and no snapshots:
    what ``repro serve`` runs over without ``--backend``.

:func:`import_json_store` converts a store of the retired JSON
directory layout into a SQLite store, reading the directory only.  See
docs/storage.md for the durability guarantees, recovery semantics and
the migration.
"""

from .base import (DEFAULT_TENANT, CorruptEntryError, IngestLogEntry,
                   SnapshotRecord, StorageBackend, StorageError,
                   TenantExistsError, TenantRecord, UnknownTenantError,
                   validate_tenant_name)
from .json_import import import_json_store
from .memory import MemoryBackend, NotDurableError
from .sqlite import SQLiteBackend

__all__ = [
    "CorruptEntryError",
    "DEFAULT_TENANT",
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
    "import_json_store",
    "validate_tenant_name",
]
