"""SQLite (WAL mode) storage backend.

One single-file database holds every tenant's snapshots and
write-ahead ingest log, with schema-per-concern tables modeled on the
Paper-Scanner schema (SNIPPETS.md snippet 3): metadata rows are small
and queried for listings; the large snapshot documents live in a
separate blob table keyed by the metadata row, so ``repro snapshot
list`` and ``GET /snapshot`` never read (or stat) a blob.

Pragmas applied at connection time:

==================  ========  =============================================
Pragma              Value     Purpose
==================  ========  =============================================
``journal_mode``    WAL       readers never block the single writer
``foreign_keys``    ON        tenant deletion cascades to snapshots/log
``synchronous``     NORMAL    fsync at WAL checkpoints — safe with WAL,
                              far cheaper than FULL per-commit fsyncs
``busy_timeout``    30000 ms  concurrent openers wait instead of failing
==================  ========  =============================================

Tables (all timestamps UTC ISO-8601 ``TEXT``)::

    tenants (1) ──< snapshots (1) ── (1) snapshot_blobs
        │              └── (1) snapshot_listing   (materialized)
        └────< ingest_log

``snapshot_listing`` is a *materialized* listing table kept in sync by
``AFTER INSERT``/``AFTER DELETE`` triggers on ``snapshots`` — the
listing query is a bare single-table scan with the tenant name already
denormalized in.  ``wal_floor`` keeps ingest-log sequence numbers
monotonic per tenant across prunes (a recovered service must never
reuse a sequence number a snapshot already claims to have captured).
``ingest_log.rows`` holds each batch as an
:func:`~repro.storage.base.encode_rows` blob: SQLite keeps a BLOB in
its TEXT-affinity column as a BLOB, so no schema change was needed,
and the JSON text of entries written before the blob format still
replays.

The connection is process-wide (``check_same_thread=False``) with one
lock serializing statements, so the HTTP worker pool's calls interleave
safely.  Every write is one ``BEGIN IMMEDIATE`` transaction: it takes
the database's write lock before its first read, so a version or
sequence number it computes with ``MAX(...)`` cannot be claimed by a
writer in another process before it is inserted.
"""

from __future__ import annotations

import json
import sqlite3
import threading
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .base import (CorruptEntryError, IngestLogEntry, SnapshotRecord,
                   StorageBackend, TenantExistsError, TenantRecord,
                   UnknownTenantError, decode_rows, encode_rows,
                   snapshot_meta_from_document, utc_now,
                   validate_tenant_name)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS tenants (
    tenant_id   INTEGER PRIMARY KEY,
    name        TEXT NOT NULL UNIQUE,
    config      TEXT NOT NULL,
    created_at  TEXT NOT NULL
);

CREATE TABLE IF NOT EXISTS snapshots (
    snapshot_id      INTEGER PRIMARY KEY,
    tenant_id        INTEGER NOT NULL
                     REFERENCES tenants(tenant_id) ON DELETE CASCADE,
    version          INTEGER NOT NULL,
    created_at       TEXT NOT NULL,
    size_bytes       INTEGER NOT NULL,
    mechanism        TEXT,
    epsilon          REAL,
    reports_ingested INTEGER,
    wal_seq          INTEGER NOT NULL DEFAULT 0,
    UNIQUE (tenant_id, version)
);

CREATE TABLE IF NOT EXISTS snapshot_blobs (
    snapshot_id  INTEGER PRIMARY KEY
                 REFERENCES snapshots(snapshot_id) ON DELETE CASCADE,
    document     BLOB NOT NULL
);

CREATE TABLE IF NOT EXISTS ingest_log (
    entry_id     INTEGER PRIMARY KEY AUTOINCREMENT,
    tenant_id    INTEGER NOT NULL
                 REFERENCES tenants(tenant_id) ON DELETE CASCADE,
    seq          INTEGER NOT NULL,
    rows         TEXT NOT NULL,
    domain_size  INTEGER,
    created_at   TEXT NOT NULL,
    UNIQUE (tenant_id, seq)
);

CREATE TABLE IF NOT EXISTS wal_floor (
    tenant_id  INTEGER PRIMARY KEY
               REFERENCES tenants(tenant_id) ON DELETE CASCADE,
    last_seq   INTEGER NOT NULL DEFAULT 0
);

CREATE TABLE IF NOT EXISTS snapshot_listing (
    snapshot_id      INTEGER PRIMARY KEY,
    tenant           TEXT NOT NULL,
    version          INTEGER NOT NULL,
    created_at       TEXT NOT NULL,
    size_bytes       INTEGER NOT NULL,
    mechanism        TEXT,
    epsilon          REAL,
    reports_ingested INTEGER,
    wal_seq          INTEGER NOT NULL DEFAULT 0
);

CREATE INDEX IF NOT EXISTS idx_ingest_log_tenant_seq
    ON ingest_log(tenant_id, seq);
CREATE INDEX IF NOT EXISTS idx_snapshot_listing_tenant
    ON snapshot_listing(tenant, version);

CREATE TRIGGER IF NOT EXISTS trg_snapshot_listing_insert
AFTER INSERT ON snapshots
BEGIN
    INSERT INTO snapshot_listing (snapshot_id, tenant, version, created_at,
                                  size_bytes, mechanism, epsilon,
                                  reports_ingested, wal_seq)
    SELECT NEW.snapshot_id, tenants.name, NEW.version, NEW.created_at,
           NEW.size_bytes, NEW.mechanism, NEW.epsilon,
           NEW.reports_ingested, NEW.wal_seq
    FROM tenants WHERE tenants.tenant_id = NEW.tenant_id;
END;

CREATE TRIGGER IF NOT EXISTS trg_snapshot_listing_delete
AFTER DELETE ON snapshots
BEGIN
    DELETE FROM snapshot_listing WHERE snapshot_id = OLD.snapshot_id;
END;
"""


class SQLiteBackend(StorageBackend):
    """All storage concerns in one WAL-mode SQLite database file."""

    name = "sqlite"

    #: Default lock-wait budget; override per store with
    #: ``busy_timeout_ms`` / ``repro serve --busy-timeout``
    #: (docs/storage.md discusses the interaction with the serving
    #: tier's retry policy).
    DEFAULT_BUSY_TIMEOUT_MS = 30_000

    def __init__(self, path: str | Path,
                 busy_timeout_ms: int = DEFAULT_BUSY_TIMEOUT_MS):
        if busy_timeout_ms < 0:
            raise ValueError("busy_timeout_ms must be >= 0")
        self.busy_timeout_ms = int(busy_timeout_ms)
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._connection = sqlite3.connect(str(self.path),
                                           check_same_thread=False)
        self._connection.row_factory = sqlite3.Row
        with self._lock:
            connection = self._connection
            connection.execute("PRAGMA journal_mode=WAL")
            connection.execute("PRAGMA foreign_keys=ON")
            connection.execute("PRAGMA synchronous=NORMAL")
            connection.execute(f"PRAGMA busy_timeout={self.busy_timeout_ms}")
            connection.executescript(_SCHEMA)
            connection.commit()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @contextmanager
    def _write(self):
        """One write transaction holding the database's write lock.

        ``BEGIN IMMEDIATE`` takes the lock before the transaction's
        first statement (waiting up to the busy timeout), so what it
        reads cannot change under it; an error rolls everything back.
        """
        with self._lock:
            self._connection.execute("BEGIN IMMEDIATE")
            try:
                yield self._connection
            except BaseException:
                self._connection.rollback()
                raise
            self._connection.commit()

    def _tenant_id(self, name: str) -> int:
        row = self._connection.execute(
            "SELECT tenant_id FROM tenants WHERE name = ?", (name,)).fetchone()
        if row is None:
            raise UnknownTenantError(f"unknown tenant {name!r}")
        return int(row["tenant_id"])

    @staticmethod
    def _snapshot_record(row: sqlite3.Row, tenant: str) -> SnapshotRecord:
        return SnapshotRecord(
            tenant=tenant, version=int(row["version"]),
            created_at=row["created_at"],
            size_bytes=int(row["size_bytes"]),
            mechanism=row["mechanism"],
            epsilon=row["epsilon"],
            reports_ingested=row["reports_ingested"],
            wal_seq=int(row["wal_seq"]))

    # ------------------------------------------------------------------
    # Tenants
    # ------------------------------------------------------------------
    def create_tenant(self, name: str, config: dict) -> TenantRecord:
        validate_tenant_name(name)
        created = utc_now()
        with self._write() as connection:
            self._insert_tenant(connection, name, config, created)
        return TenantRecord(name=name, config=dict(config),
                            created_at=created)

    @staticmethod
    def _insert_tenant(connection, name: str, config: dict, created: str,
                       last_seq: int = 0) -> int:
        """Insert a tenant row and its floor; returns its ``tenant_id``."""
        try:
            cursor = connection.execute(
                "INSERT INTO tenants (name, config, created_at) "
                "VALUES (?, ?, ?)", (name, json.dumps(config), created))
        except sqlite3.IntegrityError:
            raise TenantExistsError(
                f"tenant {name!r} already exists") from None
        connection.execute(
            "INSERT INTO wal_floor (tenant_id, last_seq) VALUES (?, ?)",
            (cursor.lastrowid, last_seq))
        return cursor.lastrowid

    def get_tenant(self, name: str) -> TenantRecord:
        with self._lock:
            row = self._connection.execute(
                "SELECT name, config, created_at FROM tenants "
                "WHERE name = ?", (name,)).fetchone()
        if row is None:
            raise UnknownTenantError(f"unknown tenant {name!r}")
        return TenantRecord(name=row["name"],
                            config=json.loads(row["config"]),
                            created_at=row["created_at"])

    def list_tenants(self) -> list[TenantRecord]:
        with self._lock:
            rows = self._connection.execute(
                "SELECT name, config, created_at FROM tenants "
                "ORDER BY name").fetchall()
        return [TenantRecord(name=row["name"],
                             config=json.loads(row["config"]),
                             created_at=row["created_at"])
                for row in rows]

    def delete_tenant(self, name: str) -> None:
        with self._write() as connection:
            tenant_id = self._tenant_id(name)
            # ON DELETE CASCADE clears snapshots (whose delete trigger
            # clears the listing), blobs, log entries and the floor.
            connection.execute(
                "DELETE FROM tenants WHERE tenant_id = ?", (tenant_id,))

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def save_snapshot(self, tenant: str, document: dict, *,
                      wal_seq: int = 0) -> SnapshotRecord:
        blob = json.dumps(document).encode("utf-8")
        meta = snapshot_meta_from_document(document)
        created = utc_now()
        with self._write() as connection:
            tenant_id = self._tenant_id(tenant)
            row = connection.execute(
                "SELECT COALESCE(MAX(version), 0) AS v FROM snapshots "
                "WHERE tenant_id = ?", (tenant_id,)).fetchone()
            record = SnapshotRecord(
                tenant=tenant, version=int(row["v"]) + 1, created_at=created,
                size_bytes=len(blob), wal_seq=int(wal_seq), **meta)
            self._insert_snapshot(connection, tenant_id, record, blob)
        return record

    @staticmethod
    def _insert_snapshot(connection, tenant_id: int, record: SnapshotRecord,
                         blob: bytes) -> None:
        cursor = connection.execute(
            "INSERT INTO snapshots (tenant_id, version, created_at, "
            "size_bytes, mechanism, epsilon, reports_ingested, wal_seq) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?)",
            (tenant_id, record.version, record.created_at, record.size_bytes,
             record.mechanism, record.epsilon, record.reports_ingested,
             record.wal_seq))
        connection.execute(
            "INSERT INTO snapshot_blobs (snapshot_id, document) "
            "VALUES (?, ?)", (cursor.lastrowid, blob))

    def load_snapshot(self, tenant: str,
                      version: int | None = None) -> tuple[dict,
                                                           SnapshotRecord]:
        with self._lock:
            tenant_id = self._tenant_id(tenant)
            if version is None:
                row = self._connection.execute(
                    "SELECT MAX(version) AS v FROM snapshots "
                    "WHERE tenant_id = ?", (tenant_id,)).fetchone()
                if row["v"] is None:
                    raise FileNotFoundError(
                        f"tenant {tenant!r} has no snapshots in {self.path}")
                version = int(row["v"])
            row = self._connection.execute(
                "SELECT snapshots.*, snapshot_blobs.document "
                "FROM snapshots JOIN snapshot_blobs USING (snapshot_id) "
                "WHERE tenant_id = ? AND version = ?",
                (tenant_id, version)).fetchone()
        if row is None:
            raise FileNotFoundError(
                f"no snapshot version {version} for tenant {tenant!r} "
                f"in {self.path}")
        document = json.loads(row["document"])
        return document, self._snapshot_record(row, tenant)

    def list_snapshots(self, tenant: str | None = None) -> list[SnapshotRecord]:
        with self._lock:
            if tenant is None:
                rows = self._connection.execute(
                    "SELECT * FROM snapshot_listing "
                    "ORDER BY tenant, version").fetchall()
                return [self._snapshot_record(row, row["tenant"])
                        for row in rows]
            self._tenant_id(tenant)  # raise on unknown tenants
            rows = self._connection.execute(
                "SELECT * FROM snapshot_listing WHERE tenant = ? "
                "ORDER BY version", (tenant,)).fetchall()
        return [self._snapshot_record(row, tenant) for row in rows]

    def prune_snapshots(self, tenant: str, keep_last: int) -> int:
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        with self._write() as connection:
            tenant_id = self._tenant_id(tenant)
            cursor = connection.execute(
                "DELETE FROM snapshots WHERE tenant_id = ? AND version <= ("
                "  SELECT COALESCE(MAX(version), 0) - ? FROM snapshots "
                "  WHERE tenant_id = ?)",
                (tenant_id, keep_last, tenant_id))
        return cursor.rowcount

    # ------------------------------------------------------------------
    # Write-ahead ingest log
    # ------------------------------------------------------------------
    def append_ingest(self, tenant: str, rows: np.ndarray,
                      domain_size: int | None = None) -> int:
        blob = encode_rows(rows)
        created = utc_now()
        with self._write() as connection:
            tenant_id = self._tenant_id(tenant)
            seq = self.last_ingest_seq(tenant) + 1
            self._insert_entry(connection, tenant_id, seq, blob, domain_size,
                               created)
            connection.execute(
                "UPDATE wal_floor SET last_seq = ? "
                "WHERE tenant_id = ? AND last_seq < ?",
                (seq, tenant_id, seq))
        return seq

    @staticmethod
    def _insert_entry(connection, tenant_id: int, seq: int, blob: bytes,
                      domain_size: int | None, created: str) -> None:
        # A BLOB keeps its storage class in the TEXT-affinity column.
        connection.execute(
            "INSERT INTO ingest_log (tenant_id, seq, rows, domain_size, "
            "created_at) VALUES (?, ?, ?, ?, ?)",
            (tenant_id, seq, blob, domain_size, created))

    def pending_ingest(self, tenant: str,
                       after_seq: int = 0) -> list[IngestLogEntry]:
        with self._lock:
            tenant_id = self._tenant_id(tenant)
            rows = self._connection.execute(
                "SELECT seq, rows, domain_size, created_at FROM ingest_log "
                "WHERE tenant_id = ? AND seq > ? ORDER BY seq",
                (tenant_id, after_seq)).fetchall()
        return [IngestLogEntry(tenant=tenant, seq=int(row["seq"]),
                               rows=self._entry_rows(tenant, row),
                               domain_size=row["domain_size"],
                               created_at=row["created_at"])
                for row in rows]

    @staticmethod
    def _entry_rows(tenant: str, row: sqlite3.Row) -> np.ndarray:
        """One stored batch: a blob, or JSON text from before the blob
        format.  Appends are transactional, so no entry can be a torn
        write: an unreadable one, wherever it sits, is acknowledged
        data that is gone."""
        stored = row["rows"]
        try:
            return decode_rows(json.loads(stored) if isinstance(stored, str)
                               else stored)
        except ValueError as error:
            raise CorruptEntryError(
                f"ingest-log entry seq={row['seq']} for tenant {tenant!r} "
                f"is corrupt ({error}); acknowledged reports would be "
                "lost — refusing to recover") from error

    def prune_ingest(self, tenant: str, upto_seq: int) -> int:
        with self._write() as connection:
            tenant_id = self._tenant_id(tenant)
            cursor = connection.execute(
                "DELETE FROM ingest_log WHERE tenant_id = ? AND seq <= ?",
                (tenant_id, upto_seq))
        return cursor.rowcount

    def discard_ingest(self, tenant: str, seq: int) -> None:
        with self._write() as connection:
            tenant_id = self._tenant_id(tenant)
            connection.execute(
                "DELETE FROM ingest_log WHERE tenant_id = ? AND seq = ?",
                (tenant_id, seq))

    def ingest_log_depth(self, tenant: str | None = None) -> int:
        with self._lock:
            if tenant is None:
                row = self._connection.execute(
                    "SELECT COUNT(*) AS n FROM ingest_log").fetchone()
            else:
                tenant_id = self._tenant_id(tenant)
                row = self._connection.execute(
                    "SELECT COUNT(*) AS n FROM ingest_log "
                    "WHERE tenant_id = ?", (tenant_id,)).fetchone()
        return int(row["n"])

    def last_ingest_seq(self, tenant: str) -> int:
        with self._lock:
            tenant_id = self._tenant_id(tenant)
            floor = self._connection.execute(
                "SELECT last_seq FROM wal_floor WHERE tenant_id = ?",
                (tenant_id,)).fetchone()
            newest = self._connection.execute(
                "SELECT COALESCE(MAX(seq), 0) AS s FROM ingest_log "
                "WHERE tenant_id = ?", (tenant_id,)).fetchone()
        return max(int(floor["last_seq"]) if floor is not None else 0,
                   int(newest["s"]))

    # ------------------------------------------------------------------
    # Import
    # ------------------------------------------------------------------
    def import_tenants(self, tenants) -> None:
        """Write whole tenants with the numbers they were stored under.

        Each item of ``tenants`` has a ``record`` (:class:`TenantRecord`),
        ``snapshots`` (:class:`SnapshotRecord`, document bytes) pairs,
        ``entries`` (:class:`IngestLogEntry` list) and the log's
        ``floor``.  Versions, ``wal_seq``, sequence numbers and creation
        times are written as given, not renumbered: recovery replays
        the entries after a snapshot's ``wal_seq``.  Everything is one
        transaction, so a name already in the store
        (:class:`TenantExistsError`) or any other failure writes nothing.
        """
        with self._write() as connection:
            for tenant in tenants:
                record = tenant.record
                validate_tenant_name(record.name)
                last_seq = max([tenant.floor]
                               + [entry.seq for entry in tenant.entries])
                tenant_id = self._insert_tenant(
                    connection, record.name, record.config,
                    record.created_at, last_seq)
                for snapshot, blob in tenant.snapshots:
                    self._insert_snapshot(connection, tenant_id, snapshot,
                                          blob)
                for entry in tenant.entries:
                    self._insert_entry(connection, tenant_id, entry.seq,
                                       encode_rows(entry.rows),
                                       entry.domain_size, entry.created_at)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def pragma(self, name: str):
        """One pragma's current value (introspection for tests/docs)."""
        with self._lock:
            return self._connection.execute(f"PRAGMA {name}").fetchone()[0]

    def location(self) -> str:
        return str(self.path)

    def close(self) -> None:
        with self._lock:
            self._connection.close()
