"""Directory-of-JSON storage backend.

The one owner of the on-disk JSON layout: versioned
``snapshot-NNNNNN.json`` service documents, a tenant registry and a
write-ahead ingest log, behind the
:class:`~repro.storage.StorageBackend` contract.

Layout::

    root/
      snapshot-000001.json          # the *default* tenant's snapshots
      snapshot-000001.meta.json     # sidecar listing metadata
      tenants.json                  # tenant registry
      wal/
        default/entry-00000001.json # write-ahead ingest-log entries
      tenants/
        <name>/snapshot-000001.json # other tenants' snapshots
        <name>/...

The default tenant's snapshots live at the *root*, so a directory
holding only ``snapshot-*.json`` files (no ``tenants.json``, as
``repro snapshot create`` and earlier single-service releases write
it) opens as a backend whose default tenant already has history —
``repro serve --backend json --store DIR`` restores it.  Sidecar
``.meta.json`` records carry the listing metadata (size, creation
time, mechanism, ingest-log position); snapshots written before the
sidecars existed fall back to ``stat`` and report ``wal_seq 0``.

A write-ahead entry is a JSON document whose ``"rows"`` field is the
base64 text of the batch's :func:`~repro.storage.base.encode_rows`
blob; a ``"rows"`` list (entries written before the blob format)
still replays.

Every durable write is a private temp file, fsync'd, then moved into
place atomically (rename, or an exclusive hard link for a snapshot
version slot — this needs a filesystem with hard links), then an fsync
of the containing directory.  A failed write never leaves its temp
file behind.
"""

from __future__ import annotations

import base64
import json
import logging
import os
import tempfile
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .base import (DEFAULT_TENANT, CorruptEntryError, IngestLogEntry,
                   SnapshotRecord, StorageBackend, TenantExistsError,
                   TenantRecord, UnknownTenantError, decode_rows,
                   encode_rows, snapshot_meta_from_document, utc_now,
                   validate_tenant_name)

logger = logging.getLogger("repro.storage")

#: Registry file name at the backend root.
TENANTS_FILE = "tenants.json"
TENANTS_FORMAT = "repro.tenants"
TENANTS_VERSION = 1

_SNAPSHOT_TEMPLATE = "snapshot-{version:06d}.json"
_SNAPSHOT_GLOB = "snapshot-*.json"

_WAL_TEMPLATE = "entry-{seq:08d}.json"
_WAL_GLOB = "entry-*.json"


def fsync_directory(directory: str | Path) -> None:
    """fsync a directory so a just-renamed/linked entry survives power loss.

    A rename or link is only durable once the *directory* holding the
    new name is flushed; fsyncing the file alone leaves the name
    itself in the page cache.  Platforms whose directories cannot be
    opened for reading (or that lack ``O_DIRECTORY``) degrade to a
    no-op rather than failing the write.
    """
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        descriptor = os.open(directory, flags)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(descriptor)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(descriptor)


def _numbered(directory: Path, pattern: str, prefix: str) -> list[int]:
    """The numbers of ``prefix``-named files matching ``pattern``, ascending.

    Names whose number part is not all digits (the ``.meta.json``
    sidecars match the snapshot glob) are not counted.
    """
    if not directory.is_dir():
        return []
    numbers = []
    for path in directory.glob(pattern):
        stem = path.stem.removeprefix(prefix)
        if stem.isdigit():
            numbers.append(int(stem))
    return sorted(numbers)


def _write_temp(directory: Path, document: dict) -> str:
    """``document`` in a fresh fsync'd temp file inside ``directory``.

    The caller moves the file into place and unlinks the temp name.
    """
    directory.mkdir(parents=True, exist_ok=True)
    descriptor, temp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(descriptor, "w") as handle:
            handle.write(json.dumps(document))
            handle.flush()
            os.fsync(handle.fileno())
    except BaseException:
        os.unlink(temp)
        raise
    return temp


def _atomic_write_json(path: Path, document: dict) -> None:
    """Write ``document`` at ``path`` durably (temp + fsync + rename)."""
    temp = _write_temp(path.parent, document)
    try:
        os.replace(temp, path)
    except BaseException:
        os.unlink(temp)
        raise
    fsync_directory(path.parent)


def _entry_rows(stored) -> np.ndarray:
    """One entry's ``"rows"`` field: the base64 text of a row blob, or
    the JSON list entries written before the blob format hold."""
    if isinstance(stored, str):
        stored = base64.b64decode(stored, validate=True)
    return decode_rows(stored)


class DirectoryBackend(StorageBackend):
    """Tenanted snapshots + write-ahead log over a plain directory.

    Parameters
    ----------
    root:
        The store directory (created lazily).  Root-level snapshot
        files without a registry are adopted as the default tenant's
        history.
    """

    name = "json"

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self._tenants_path = self.root / TENANTS_FILE

    # ------------------------------------------------------------------
    # Tenant registry
    # ------------------------------------------------------------------
    def _read_registry(self) -> dict:
        if not self._tenants_path.exists():
            return {}
        document = json.loads(self._tenants_path.read_text())
        if document.get("format") != TENANTS_FORMAT:
            raise ValueError(f"{self._tenants_path} is not a tenant "
                             "registry file")
        return document.get("tenants", {})

    def _write_registry(self, tenants: dict) -> None:
        _atomic_write_json(self._tenants_path, {
            "format": TENANTS_FORMAT,
            "version": TENANTS_VERSION,
            "tenants": tenants,
        })

    def create_tenant(self, name: str, config: dict) -> TenantRecord:
        validate_tenant_name(name)
        tenants = self._read_registry()
        if name in tenants:
            raise TenantExistsError(f"tenant {name!r} already exists")
        entry = {"config": dict(config), "created_at": utc_now()}
        tenants[name] = entry
        self._write_registry(tenants)
        return TenantRecord(name=name, config=dict(config),
                            created_at=entry["created_at"])

    def get_tenant(self, name: str) -> TenantRecord:
        entry = self._read_registry().get(name)
        if entry is None:
            raise UnknownTenantError(f"unknown tenant {name!r}")
        return TenantRecord(name=name, config=dict(entry.get("config", {})),
                            created_at=entry.get("created_at", ""))

    def list_tenants(self) -> list[TenantRecord]:
        return [TenantRecord(name=name,
                             config=dict(entry.get("config", {})),
                             created_at=entry.get("created_at", ""))
                for name, entry in sorted(self._read_registry().items())]

    def delete_tenant(self, name: str) -> None:
        tenants = self._read_registry()
        if name not in tenants:
            raise UnknownTenantError(f"unknown tenant {name!r}")
        del tenants[name]
        self._write_registry(tenants)
        self._remove_snapshots(name, self._versions(name))
        wal = self._wal_dir(name)
        if wal.is_dir():
            for path in wal.glob(_WAL_GLOB):
                path.unlink(missing_ok=True)
        if name != DEFAULT_TENANT:
            directory = self._snapshot_dir(name)
            if directory.is_dir() and not any(directory.iterdir()):
                directory.rmdir()

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def _snapshot_dir(self, tenant: str) -> Path:
        if tenant == DEFAULT_TENANT:
            return self.root
        return self.root / "tenants" / tenant

    def snapshot_path(self, tenant: str, version: int) -> Path:
        """Where one snapshot version of the tenant is (or would be)."""
        return self._snapshot_dir(tenant) / _SNAPSHOT_TEMPLATE.format(
            version=version)

    def _meta_path(self, tenant: str, version: int) -> Path:
        return self.snapshot_path(tenant, version).with_suffix(".meta.json")

    def _versions(self, tenant: str) -> list[int]:
        return _numbered(self._snapshot_dir(tenant), _SNAPSHOT_GLOB,
                         "snapshot-")

    def _remove_snapshots(self, tenant: str, versions: list[int]) -> None:
        for version in versions:
            self.snapshot_path(tenant, version).unlink(missing_ok=True)
            self._meta_path(tenant, version).unlink(missing_ok=True)

    def _require_tenant(self, tenant: str) -> None:
        # The default tenant is implicit for adopted legacy stores:
        # snapshot access works even before a registry entry exists.
        if tenant == DEFAULT_TENANT:
            return
        if tenant not in self._read_registry():
            raise UnknownTenantError(f"unknown tenant {tenant!r}")

    def save_snapshot(self, tenant: str, document: dict, *,
                      wal_seq: int = 0) -> SnapshotRecord:
        """Write ``document`` as the tenant's next version.

        Safe under concurrent writers (the threaded ``/snapshot``
        endpoint, or a parallel ``repro snapshot create`` on the same
        store): the version slot is claimed with an exclusive hard
        link, so losing a claim race moves this snapshot to the next
        number and never overwrites another one.  The document bytes
        are fsync'd before the claim and the directory after it, so a
        save that returned cannot leave a missing or truncated file.
        """
        self._require_tenant(tenant)
        directory = self._snapshot_dir(tenant)
        temp = _write_temp(directory, document)
        try:
            while True:
                versions = self._versions(tenant)
                version = (versions[-1] if versions else 0) + 1
                path = self.snapshot_path(tenant, version)
                try:
                    os.link(temp, path)
                    break
                except FileExistsError:
                    continue
        finally:
            os.unlink(temp)
        fsync_directory(directory)
        meta = {
            "tenant": tenant,
            "version": version,
            "created_at": utc_now(),
            "size_bytes": path.stat().st_size,
            "wal_seq": int(wal_seq),
            **snapshot_meta_from_document(document),
        }
        _atomic_write_json(self._meta_path(tenant, version), meta)
        return SnapshotRecord(**meta)

    def _record_of(self, tenant: str, version: int) -> SnapshotRecord:
        meta_path = self._meta_path(tenant, version)
        if meta_path.exists():
            meta = json.loads(meta_path.read_text())
            meta.setdefault("tenant", tenant)
            return SnapshotRecord(**meta)
        # Pre-sidecar snapshot: stat fallback, unknown log position.
        stat = self.snapshot_path(tenant, version).stat()
        created = datetime.fromtimestamp(
            stat.st_mtime, timezone.utc).isoformat(timespec="seconds")
        return SnapshotRecord(tenant=tenant, version=version,
                              created_at=created, size_bytes=stat.st_size)

    def load_snapshot(self, tenant: str,
                      version: int | None = None) -> tuple[dict,
                                                           SnapshotRecord]:
        self._require_tenant(tenant)
        directory = self._snapshot_dir(tenant)
        if version is None:
            versions = self._versions(tenant)
            if not versions:
                raise FileNotFoundError(
                    f"snapshot store {directory} for tenant {tenant!r} "
                    "is empty")
            version = versions[-1]
        path = self.snapshot_path(tenant, version)
        if not path.exists():
            raise FileNotFoundError(f"no snapshot version {version} for "
                                    f"tenant {tenant!r} in {directory}")
        document = json.loads(path.read_text())
        return document, self._record_of(tenant, version)

    def list_snapshots(self, tenant: str | None = None) -> list[SnapshotRecord]:
        if tenant is None:
            names = {DEFAULT_TENANT, *self._read_registry()}
            records = []
            for name in sorted(names):
                records.extend(self.list_snapshots(name))
            return records
        self._require_tenant(tenant)
        return [self._record_of(tenant, version)
                for version in self._versions(tenant)]

    def prune_snapshots(self, tenant: str, keep_last: int) -> int:
        if keep_last < 1:
            raise ValueError("keep_last must be >= 1")
        self._require_tenant(tenant)
        stale = self._versions(tenant)[:-keep_last]
        self._remove_snapshots(tenant, stale)
        return len(stale)

    # ------------------------------------------------------------------
    # Write-ahead ingest log
    # ------------------------------------------------------------------
    def _wal_dir(self, tenant: str) -> Path:
        return self.root / "wal" / tenant

    def _wal_seqs(self, tenant: str) -> list[int]:
        return _numbered(self._wal_dir(tenant), _WAL_GLOB, "entry-")

    def append_ingest(self, tenant: str, rows: np.ndarray,
                      domain_size: int | None = None) -> int:
        self._require_tenant(tenant)
        directory = self._wal_dir(tenant)
        directory.mkdir(parents=True, exist_ok=True)
        seq = self.last_ingest_seq(tenant) + 1
        blob = base64.b64encode(encode_rows(rows)).decode("ascii")
        entry = {"seq": seq, "rows": blob, "domain_size": domain_size,
                 "created_at": utc_now()}
        _atomic_write_json(directory / _WAL_TEMPLATE.format(seq=seq), entry)
        self._write_wal_floor(tenant, seq)
        return seq

    # The floor file makes last_ingest_seq monotonic across prunes:
    # without it, pruning every entry would restart sequence numbers
    # and a later snapshot could mistake new entries for captured ones.
    def _floor_path(self, tenant: str) -> Path:
        return self._wal_dir(tenant) / "floor.json"

    def _read_wal_floor(self, tenant: str) -> int:
        path = self._floor_path(tenant)
        if not path.exists():
            return 0
        return int(json.loads(path.read_text()).get("last_seq", 0))

    def _write_wal_floor(self, tenant: str, seq: int) -> None:
        current = self._read_wal_floor(tenant)
        if seq > current:
            _atomic_write_json(self._floor_path(tenant), {"last_seq": seq})

    def pending_ingest(self, tenant: str,
                       after_seq: int = 0) -> list[IngestLogEntry]:
        self._require_tenant(tenant)
        directory = self._wal_dir(tenant)
        entries = []
        seqs = self._wal_seqs(tenant)
        for seq in seqs:
            if seq <= after_seq:
                continue
            path = directory / _WAL_TEMPLATE.format(seq=seq)
            try:
                raw = json.loads(path.read_text())
                rows = _entry_rows(raw["rows"])
            except (ValueError, OSError, KeyError, TypeError) as error:
                # A corrupt *tail* entry is a torn final write: the
                # append never returned, the batch was never
                # acknowledged, so quarantine the file and move on.  A
                # corrupt entry mid-sequence would silently drop
                # acknowledged reports — that is permanent data loss
                # and must stop recovery.
                if seq == seqs[-1]:
                    torn = path.with_name(path.name + ".torn")
                    path.replace(torn)
                    logger.warning(
                        "quarantined torn ingest-log tail %s for tenant "
                        "%r (%s)", torn.name, tenant, error)
                    continue
                raise CorruptEntryError(
                    f"ingest-log entry seq={seq} for tenant {tenant!r} is "
                    f"corrupt but not the tail ({error}); acknowledged "
                    "reports would be lost — refusing to recover"
                ) from error
            entries.append(IngestLogEntry(
                tenant=tenant, seq=seq, rows=rows,
                domain_size=raw.get("domain_size"),
                created_at=raw.get("created_at", "")))
        return entries

    def prune_ingest(self, tenant: str, upto_seq: int) -> int:
        self._require_tenant(tenant)
        directory = self._wal_dir(tenant)
        removed = 0
        for seq in self._wal_seqs(tenant):
            if seq <= upto_seq:
                (directory / _WAL_TEMPLATE.format(seq=seq)).unlink(
                    missing_ok=True)
                removed += 1
        return removed

    def discard_ingest(self, tenant: str, seq: int) -> None:
        self._require_tenant(tenant)
        path = self._wal_dir(tenant) / _WAL_TEMPLATE.format(seq=seq)
        path.unlink(missing_ok=True)

    def ingest_log_depth(self, tenant: str | None = None) -> int:
        if tenant is not None:
            return len(self._wal_seqs(tenant))
        wal_root = self.root / "wal"
        if not wal_root.is_dir():
            return 0
        return sum(len(self._wal_seqs(child.name))
                   for child in wal_root.iterdir() if child.is_dir())

    def last_ingest_seq(self, tenant: str) -> int:
        seqs = self._wal_seqs(tenant)
        return max(seqs[-1] if seqs else 0, self._read_wal_floor(tenant))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def location(self) -> str:
        return str(self.root)
