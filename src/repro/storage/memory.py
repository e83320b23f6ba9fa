"""Process-local storage backend: tenants in a dict, nothing durable.

``repro serve`` without ``--backend`` runs its
:class:`~repro.serving.TenantManager` over a :class:`MemoryBackend`.
Nothing ever reads back a log that dies with its process, so the
ingest log keeps no rows: ``append_ingest`` only advances a per-tenant
sequence counter, and memory stays bounded however long the server
ingests.  Snapshots cannot be saved (:class:`NotDurableError`).  The
offline ``repro tenants`` and ``repro snapshot`` commands never offer
it: they work on a SQLite store.
"""

from __future__ import annotations

import threading

from .base import (StorageBackend, StorageError, TenantExistsError,
                   TenantRecord, UnknownTenantError, utc_now,
                   validate_tenant_name)


class NotDurableError(StorageError):
    """An operation that needs durable storage, asked of a memory store."""


class MemoryBackend(StorageBackend):
    """Tenant records in memory; a row-free ingest log; no snapshots."""

    name = "memory"

    def __init__(self):
        self._lock = threading.Lock()
        self._tenants: dict[str, TenantRecord] = {}
        self._last_seq: dict[str, int] = {}

    def create_tenant(self, name: str, config: dict) -> TenantRecord:
        validate_tenant_name(name)
        with self._lock:
            if name in self._tenants:
                raise TenantExistsError(f"tenant {name!r} already exists")
            record = TenantRecord(name, dict(config), utc_now())
            self._tenants[name], self._last_seq[name] = record, 0
        return record

    def get_tenant(self, name: str) -> TenantRecord:
        record = self._tenants.get(name)
        if record is None:
            raise UnknownTenantError(f"unknown tenant {name!r}")
        return record

    def list_tenants(self) -> list[TenantRecord]:
        with self._lock:
            return [self._tenants[name] for name in sorted(self._tenants)]

    def delete_tenant(self, name: str) -> None:
        with self._lock:
            self.get_tenant(name)
            del self._tenants[name], self._last_seq[name]

    def save_snapshot(self, tenant: str, document: dict, *, wal_seq=0):
        raise NotDurableError("the memory backend cannot store snapshots")

    def load_snapshot(self, tenant: str, version: int | None = None):
        self.get_tenant(tenant)
        raise FileNotFoundError(f"no snapshots for tenant {tenant!r}")

    def list_snapshots(self, tenant: str | None = None) -> list:
        if tenant is not None:
            self.get_tenant(tenant)
        return []

    def prune_snapshots(self, tenant: str, keep_last: int) -> int:
        self.get_tenant(tenant)
        return 0

    def append_ingest(self, tenant: str, rows, domain_size=None) -> int:
        with self._lock:
            self.get_tenant(tenant)
            self._last_seq[tenant] += 1
            return self._last_seq[tenant]

    def pending_ingest(self, tenant: str, after_seq: int = 0) -> list:
        self.get_tenant(tenant)
        return []

    def prune_ingest(self, tenant: str, upto_seq: int) -> int:
        self.get_tenant(tenant)
        return 0

    def discard_ingest(self, tenant: str, seq: int) -> None:
        self.get_tenant(tenant)

    def ingest_log_depth(self, tenant: str | None = None) -> int:
        return 0

    def last_ingest_seq(self, tenant: str) -> int:
        return self._last_seq.get(tenant, 0)

    def location(self) -> str:
        return ":memory:"
