"""Storage backend contract for the serving tier.

A :class:`StorageBackend` is the durable home of everything a
long-running :class:`~repro.serving.QueryService` process must not
lose on a crash, organized around three concerns:

*tenants*
    Named (mechanism, epsilon, schema) configurations.  One process
    hosts many tenants; the backend remembers how to rebuild each
    tenant's service after a restart.
*snapshots*
    Versioned service-state documents
    (:meth:`~repro.serving.QueryService.state_dict`) with listing
    metadata — size, creation time, mechanism, report count and the
    ingest-log position the snapshot captured — kept separate from the
    (large) document blobs so listings never read a blob.
*ingest log*
    A per-tenant write-ahead log of raw ingest batches.  Every batch
    is appended *before* it is applied in memory, so a crashed service
    replays the un-snapshotted tail on restart instead of silently
    losing reports (:class:`~repro.serving.TenantManager` owns the
    replay; ``tests/test_crash_recovery.py`` pins it bitwise).  The
    durable backends store each batch in the compact row encoding of
    :func:`encode_rows`, and :func:`decode_rows` reads it back.

The one durable implementation is :class:`~repro.storage.SQLiteBackend`
(a single-file SQLite database in WAL mode); a store of the retired
JSON directory layout is converted once with
:func:`~repro.storage.import_json_store`.
:class:`~repro.storage.MemoryBackend` keeps tenants in process memory
only: it is what ``repro serve`` runs over without ``--backend``.
docs/storage.md has the backend matrix and recovery semantics.
"""

from __future__ import annotations

import abc
import struct
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

#: Tenant names must be URL-safe: they become path segments
#: (``/tenants/<name>``).
TENANT_NAME_CHARS = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_.")

#: The tenant every non-tenant-addressed request routes to.
DEFAULT_TENANT = "default"


class StorageError(RuntimeError):
    """A storage operation the backend cannot perform."""


class CorruptEntryError(StorageError):
    """A stored entry cannot be parsed and is not a discardable tail.

    SQLite appends are transactional, so a stored entry that cannot be
    read is acknowledged data that is gone; that is this error, and it
    is permanent (:func:`repro.resilience.classify_error`).  Importing
    a JSON directory store skips an unreadable *last* entry instead: a
    torn final write there was never acknowledged."""


class UnknownTenantError(StorageError):
    """The named tenant does not exist in this backend."""


class TenantExistsError(StorageError):
    """A tenant with this name already exists."""


def validate_tenant_name(name: str) -> str:
    """``name`` if it is a legal tenant name; raises ValueError otherwise."""
    if not isinstance(name, str) or not name:
        raise ValueError("tenant name must be a non-empty string")
    if len(name) > 64:
        raise ValueError("tenant name must be at most 64 characters")
    if not set(name) <= TENANT_NAME_CHARS:
        raise ValueError(
            f"tenant name {name!r} may only contain letters, digits, "
            "'-', '_' and '.'")
    if name.startswith("."):
        raise ValueError("tenant name may not start with '.'")
    return name


def utc_now() -> str:
    """Current time as the UTC ISO-8601 text all backends store."""
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


@dataclass(frozen=True)
class TenantRecord:
    """One tenant's durable identity: name + service configuration.

    ``config`` holds the :class:`~repro.serving.QueryService`
    construction keywords (``mechanism``, ``epsilon``, ``seed``,
    ``domain_size``, ``total_users``, ``refinalize_every``,
    ``ingest_workers``, ``mechanism_kwargs``) plus the tenant-level
    ``quota`` (max total reports; ``None`` = unlimited) and
    ``keep_last`` snapshot retention.
    """

    name: str
    config: dict = field(default_factory=dict)
    created_at: str = ""


@dataclass(frozen=True)
class SnapshotRecord:
    """Listing metadata of one stored snapshot (never the blob itself)."""

    tenant: str
    version: int
    created_at: str
    size_bytes: int
    mechanism: str | None = None
    epsilon: float | None = None
    reports_ingested: int | None = None
    #: Ingest-log sequence number this snapshot captured: entries with
    #: ``seq <= wal_seq`` are redundant once the snapshot exists.
    wal_seq: int = 0

    def to_document(self) -> dict:
        """The record as a plain JSON object (listings, wire responses)."""
        return {
            "tenant": self.tenant,
            "version": self.version,
            "created_at": self.created_at,
            "size_bytes": self.size_bytes,
            "mechanism": self.mechanism,
            "epsilon": self.epsilon,
            "reports_ingested": self.reports_ingested,
            "wal_seq": self.wal_seq,
        }


@dataclass(frozen=True)
class IngestLogEntry:
    """One write-ahead ingest-log entry: a raw batch awaiting capture.

    ``rows`` is the batch as an ``(n, d)`` int64 array."""

    tenant: str
    seq: int
    rows: np.ndarray
    domain_size: int | None
    created_at: str = ""


#: Header of an encoded batch: format tag, item size in bytes of the
#: little-endian unsigned values that follow, and the column count.
_ROWS_HEADER = struct.Struct("<2sBH")
_ROWS_TAG = b"R1"


def encode_rows(rows) -> bytes:
    """A 2-D batch of non-negative integers as a write-ahead-log blob.

    The blob is a 5-byte header followed by the values in row-major
    order, each in the narrowest little-endian unsigned type that holds
    the batch's largest value: one byte per value when the domain size
    is at most 256.  A non-integer batch is a TypeError; a batch that
    is not 2-D, has more than 65,535 columns or holds a negative value
    is a ValueError.
    """
    array = np.asarray(rows)
    if array.dtype.kind not in "iu":
        raise TypeError(f"ingest-log rows must be integers, got "
                        f"{array.dtype} values")
    if array.ndim != 2 or array.shape[1] > 0xFFFF:
        raise ValueError(f"ingest-log rows must be a 2-D batch of at most "
                         f"65535 columns, got shape {array.shape}")
    if array.size and array.min() < 0:
        raise ValueError("ingest-log rows must be non-negative")
    largest = int(array.max()) if array.size else 0
    itemsize = next(size for size in (1, 2, 4, 8)
                    if largest < 1 << (8 * size))
    header = _ROWS_HEADER.pack(_ROWS_TAG, itemsize, array.shape[1])
    return header + array.astype(f"<u{itemsize}", copy=False).tobytes()


def decode_rows(stored) -> np.ndarray:
    """The int64 ``(n, d)`` batch a stored ingest-log value holds.

    ``stored`` is an :func:`encode_rows` blob, or the nested list of
    integers that entries written before the blob format held.  An
    unreadable value is a ValueError; the caller decides whether that
    is a torn tail or a :class:`CorruptEntryError`.
    """
    if isinstance(stored, list):
        array = np.asarray(stored)
        if array.ndim != 2 or (array.size and array.dtype.kind not in "iu"):
            raise ValueError("ingest-log entry is not a 2-D integer batch")
        return array.astype(np.int64)
    if not isinstance(stored, bytes):
        raise ValueError(f"ingest-log entry holds {type(stored).__name__}, "
                         "not a row list or blob")
    if len(stored) < _ROWS_HEADER.size:
        raise ValueError(f"ingest-log blob of {len(stored)} bytes is "
                         "shorter than its header")
    tag, itemsize, columns = _ROWS_HEADER.unpack_from(stored)
    if tag != _ROWS_TAG or itemsize not in (1, 2, 4, 8) or columns < 1:
        raise ValueError(f"ingest-log blob has an unknown header "
                         f"{stored[:_ROWS_HEADER.size]!r}")
    body = memoryview(stored)[_ROWS_HEADER.size:]
    if len(body) % (itemsize * columns):
        raise ValueError(f"ingest-log blob body of {len(body)} bytes is "
                         f"not a whole number of {columns}-column rows")
    values = np.frombuffer(body, dtype=f"<u{itemsize}")
    return values.reshape(-1, columns).astype(np.int64)


def snapshot_meta_from_document(document: dict) -> dict:
    """The listing metadata a service snapshot document carries."""
    return {
        "mechanism": document.get("mechanism"),
        "epsilon": document.get("epsilon"),
        "reports_ingested": document.get("reports_ingested"),
    }


class StorageBackend(abc.ABC):
    """Durable tenants + snapshots + write-ahead ingest log.

    All methods are thread-safe; the HTTP worker pool calls straight
    into the backend.  Implementations raise
    :class:`UnknownTenantError` for operations on absent tenants and
    :class:`TenantExistsError` for duplicate creation.
    """

    #: Short backend name reported by ``/healthz`` and the CLI.
    name: str = "abstract"

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def create_tenant(self, name: str, config: dict) -> TenantRecord:
        """Persist a new tenant; raises :class:`TenantExistsError`."""

    @abc.abstractmethod
    def get_tenant(self, name: str) -> TenantRecord:
        """The named tenant's record; raises :class:`UnknownTenantError`."""

    @abc.abstractmethod
    def list_tenants(self) -> list[TenantRecord]:
        """All tenant records, sorted by name."""

    @abc.abstractmethod
    def delete_tenant(self, name: str) -> None:
        """Drop a tenant and all its snapshots and log entries."""

    def has_tenant(self, name: str) -> bool:
        """Whether the named tenant exists."""
        try:
            self.get_tenant(name)
        except UnknownTenantError:
            return False
        return True

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def save_snapshot(self, tenant: str, document: dict, *,
                      wal_seq: int = 0) -> SnapshotRecord:
        """Store ``document`` as the tenant's next snapshot version."""

    @abc.abstractmethod
    def load_snapshot(self, tenant: str,
                      version: int | None = None) -> tuple[dict,
                                                           SnapshotRecord]:
        """One stored document + its record (latest version by default).

        Raises :class:`FileNotFoundError` when the tenant has no
        snapshots (or no such version); the message names the version.
        """

    @abc.abstractmethod
    def list_snapshots(self, tenant: str | None = None) -> list[SnapshotRecord]:
        """Listing records (``tenant=None`` lists every tenant's).

        Served from metadata (the listing table), not by reading
        snapshot blobs.
        """

    @abc.abstractmethod
    def prune_snapshots(self, tenant: str, keep_last: int) -> int:
        """Keep only the newest ``keep_last`` versions; returns #removed."""

    def latest_snapshot_version(self, tenant: str) -> int | None:
        """Newest stored version for the tenant, or None."""
        records = self.list_snapshots(tenant)
        return records[-1].version if records else None

    # ------------------------------------------------------------------
    # Write-ahead ingest log
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def append_ingest(self, tenant: str, rows: np.ndarray,
                      domain_size: int | None = None) -> int:
        """Durably append one ``(n, d)`` integer batch; returns its
        sequence number (per-tenant, strictly increasing)."""

    @abc.abstractmethod
    def pending_ingest(self, tenant: str,
                       after_seq: int = 0) -> list[IngestLogEntry]:
        """Log entries with ``seq > after_seq``, in sequence order."""

    @abc.abstractmethod
    def prune_ingest(self, tenant: str, upto_seq: int) -> int:
        """Drop entries with ``seq <= upto_seq`` (captured by a
        snapshot); returns the number removed."""

    @abc.abstractmethod
    def discard_ingest(self, tenant: str, seq: int) -> None:
        """Remove exactly one entry (rollback of a failed apply)."""

    @abc.abstractmethod
    def ingest_log_depth(self, tenant: str | None = None) -> int:
        """Number of pending entries (all tenants when ``tenant=None``)."""

    @abc.abstractmethod
    def last_ingest_seq(self, tenant: str) -> int:
        """Highest sequence number ever handed out for the tenant (0 if
        none).  Monotonic across prunes, so a recovered service keeps
        appending after the replayed tail."""

    # ------------------------------------------------------------------
    # Lifecycle / description
    # ------------------------------------------------------------------
    def describe(self) -> dict:
        """Health summary: backend name, location, tenant count, log depth."""
        return {
            "backend": self.name,
            "location": self.location(),
            "tenants": len(self.list_tenants()),
            "pending_ingest_log": self.ingest_log_depth(),
        }

    @abc.abstractmethod
    def location(self) -> str:
        """Human-readable storage location (the database path)."""

    def close(self) -> None:
        """Release backend resources (connections, handles)."""

    def __enter__(self) -> "StorageBackend":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}({self.location()!r})"
