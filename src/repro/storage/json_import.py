"""Read-only import of a JSON directory store into a SQLite store.

Before SQLite was the only durable backend, a store could also be a
directory of JSON files::

    root/
      tenants.json                  # tenant registry
      snapshot-000001.json          # the default tenant's snapshots
      snapshot-000001.meta.json     # sidecar listing metadata
      tenants/<name>/snapshot-*.json
      wal/<name>/entry-00000001.json
      wal/<name>/floor.json         # highest sequence ever handed out

:func:`import_json_store` (``repro tenants import --dir DIR --store
DB``) copies such a store into a SQLite database and never writes to
the directory.  It keeps every number recovery depends on: tenant
names, configs and creation times; snapshot versions, listing metadata
and each snapshot's ``wal_seq``; log sequence numbers, domain sizes and
the floor.  A snapshot without a sidecar (written before sidecars
existed) takes its creation time from the file and ``wal_seq`` 0.  A
log entry holds its rows as the base64 text of an
:func:`~repro.storage.base.encode_rows` blob, or as a JSON list in
entries written before the blob format.

An unreadable last log entry is a torn write that was never
acknowledged: it is skipped with a warning.  An unreadable entry
before it is :class:`~repro.storage.CorruptEntryError`.  Root-level
snapshots with no registry entry (a store written by a single-service
release) become the ``default`` tenant, configured from the newest
snapshot.  The import is one transaction: an error, or a tenant name
the database already holds, writes nothing.
"""

from __future__ import annotations

import base64
import json
import logging
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .base import (DEFAULT_TENANT, CorruptEntryError, IngestLogEntry,
                   SnapshotRecord, TenantRecord, decode_rows,
                   snapshot_meta_from_document, utc_now)
from .sqlite import SQLiteBackend

logger = logging.getLogger("repro.storage")

REGISTRY_FILE = "tenants.json"
REGISTRY_FORMAT = "repro.tenants"

#: Top-level snapshot keys that configure an unregistered default tenant.
_DEFAULT_CONFIG_KEYS = ("mechanism", "epsilon", "domain_size", "total_users",
                        "refinalize_every")


@dataclass
class ImportedTenant:
    """One tenant as a JSON store holds it."""

    record: TenantRecord
    #: ``(listing record, document bytes)`` per version, ascending.
    snapshots: list[tuple[SnapshotRecord, bytes]]
    entries: list[IngestLogEntry]
    #: Highest sequence number a prune or discard removed.
    floor: int


def _numbered(directory: Path, prefix: str) -> list[tuple[int, Path]]:
    """``(number, path)`` of the ``<prefix><digits>.json`` files, ascending.

    Sidecars (``snapshot-000001.meta.json``), temp files and
    quarantined ``.torn`` entries do not match.
    """
    if not directory.is_dir():
        return []
    found = []
    for path in directory.glob(f"{prefix}*.json"):
        number = path.name[len(prefix):-len(".json")]
        if number.isdigit():
            found.append((int(number), path))
    return sorted(found)


def _read_snapshots(tenant: str,
                    directory: Path) -> list[tuple[SnapshotRecord, bytes]]:
    snapshots = []
    for version, path in _numbered(directory, "snapshot-"):
        blob = path.read_bytes()
        meta_path = path.with_suffix(".meta.json")
        if meta_path.exists():
            meta = json.loads(meta_path.read_text())
            record = SnapshotRecord(**{**meta, "tenant": tenant,
                                       "version": version})
        else:
            modified = datetime.fromtimestamp(path.stat().st_mtime,
                                              timezone.utc)
            record = SnapshotRecord(
                tenant=tenant, version=version,
                created_at=modified.isoformat(timespec="seconds"),
                size_bytes=len(blob),
                **snapshot_meta_from_document(json.loads(blob)))
        snapshots.append((record, blob))
    return snapshots


def _entry_rows(stored) -> np.ndarray:
    """An entry's ``"rows"``: base64 blob text, or a JSON row list."""
    if isinstance(stored, str):
        stored = base64.b64decode(stored, validate=True)
    return decode_rows(stored)


def _read_log(tenant: str, directory: Path) -> tuple[list[IngestLogEntry],
                                                     int]:
    """The tenant's log entries and floor."""
    numbered = _numbered(directory, "entry-")
    entries = []
    for seq, path in numbered:
        try:
            raw = json.loads(path.read_text())
            rows = _entry_rows(raw["rows"])
        except (ValueError, KeyError, TypeError) as error:
            if seq == numbered[-1][0]:
                logger.warning("skipped torn ingest-log tail %s of tenant "
                               "%r (never acknowledged): %s",
                               path, tenant, error)
                continue
            raise CorruptEntryError(
                f"ingest-log entry seq={seq} for tenant {tenant!r} is "
                f"corrupt but not the tail ({error}); acknowledged reports "
                "would be lost — refusing to import") from error
        entries.append(IngestLogEntry(
            tenant=tenant, seq=seq, rows=rows,
            domain_size=raw.get("domain_size"),
            created_at=raw.get("created_at", "")))
    floor_path = directory / "floor.json"
    floor = (int(json.loads(floor_path.read_text()).get("last_seq", 0))
             if floor_path.exists() else 0)
    return entries, floor


def _read_tenant(root: Path, record: TenantRecord,
                 snapshots: list | None = None) -> ImportedTenant:
    if snapshots is None:
        directory = (root if record.name == DEFAULT_TENANT
                     else root / "tenants" / record.name)
        snapshots = _read_snapshots(record.name, directory)
    entries, floor = _read_log(record.name, root / "wal" / record.name)
    return ImportedTenant(record, snapshots, entries, floor)


def _read_store(root: str | Path) -> list[ImportedTenant]:
    """Every tenant of the JSON store at ``root``, by name; reads only."""
    root = Path(root)
    registry_path = root / REGISTRY_FILE
    registry = {}
    if registry_path.exists():
        document = json.loads(registry_path.read_text())
        if document.get("format") != REGISTRY_FORMAT:
            raise ValueError(f"{registry_path} is not a tenant registry file")
        registry = document.get("tenants", {})
    tenants = [_read_tenant(root, TenantRecord(
                   name, dict(entry.get("config", {})),
                   entry.get("created_at", "")))
               for name, entry in sorted(registry.items())]
    if DEFAULT_TENANT not in registry:
        snapshots = _read_snapshots(DEFAULT_TENANT, root)
        if snapshots:
            newest = json.loads(snapshots[-1][1])
            config = {key: newest[key] for key in _DEFAULT_CONFIG_KEYS
                      if newest.get(key) is not None}
            tenants.append(_read_tenant(
                root, TenantRecord(DEFAULT_TENANT, config, utc_now()),
                snapshots))
        elif not registry_path.exists():
            raise ValueError(f"{root} is not a JSON store: it holds neither "
                             f"{REGISTRY_FILE} nor snapshot files")
    return sorted(tenants, key=lambda tenant: tenant.record.name)


def import_json_store(source: str | Path,
                      target: SQLiteBackend) -> list[str]:
    """Copy the JSON store at ``source`` into ``target``; returns the
    imported tenant names.  Writes nothing if any step fails."""
    tenants = _read_store(source)
    target.import_tenants(tenants)
    return [tenant.record.name for tenant in tenants]
