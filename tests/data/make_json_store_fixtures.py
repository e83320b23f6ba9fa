"""Write the JSON directory store under ``tests/data/json_store_blob/``.

SQLite is the only durable backend; a store of the JSON directory
layout is imported once (``repro.storage.import_json_store``).  The
directory backend that wrote that layout no longer exists, so this
script must run against a checkout of commit ddb44eb, the last one
that had it::

    git archive ddb44eb | tar -x -C /tmp/directory-era
    PYTHONPATH=/tmp/directory-era/src python tests/data/make_json_store_fixtures.py

It writes, for ``tests/test_json_import.py``:

* ``json-store/`` — a store whose log entries hold base64 row blobs:
  an HDG and a TDG tenant with two snapshots each (sidecars, captured
  entries pruned), a log tail, and a ``floor.json`` raised above the
  newest entry by a discarded append; the HDG tenant's log ends in a
  torn entry.  Its root holds two snapshots of an unregistered
  ``default`` tenant, the first without its sidecar (as snapshots
  written before sidecars existed), followed by one log entry;
* ``expected.json`` — what that code read back: each tenant's config,
  snapshot records, log entries and last sequence number, and the
  answers after recovering the store (the default tenant through the
  adoption of root-level snapshots), first from the snapshot's epoch,
  then after a re-finalize that covers the replayed tail.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.serving import QueryService, TenantManager
from repro.storage import DEFAULT_TENANT, DirectoryBackend

HERE = Path(__file__).resolve().parent / "json_store_blob"
DOMAIN = 8
D = 3
SEED = 11
TENANTS = {"hdg": "HDG", "tdg": "TDG"}
#: The config an import derives for the unregistered default tenant.
DEFAULT_CONFIG = {"mechanism": "TDG", "epsilon": 0.5, "domain_size": DOMAIN,
                  "total_users": 300, "refinalize_every": 50}
WORKLOAD = [
    [[[0, 0, 3], [1, 2, 6]]],
    [[[0, 1, 5]], [[2, 0, 4]], [[0, 0, 7], [1, 0, 7], [2, 3, 3]]],
]


def _batches() -> list[list]:
    rng = np.random.default_rng(2026)
    return [rng.integers(0, DOMAIN, size=(30, D)).tolist() for _ in range(6)]


def _config(mechanism: str) -> dict:
    return {"mechanism": mechanism, "epsilon": 1.0, "seed": SEED,
            "domain_size": DOMAIN, "total_users": 300}


def _answers(service) -> list:
    return service.query_wire_batch(WORKLOAD)["workloads"]


def _write_tenants(backend: DirectoryBackend, batches: list[list]) -> None:
    manager = TenantManager(backend)
    for tenant, mechanism in TENANTS.items():
        manager.create_tenant(tenant, _config(mechanism))
        for rows in batches[:2]:
            manager.ingest(tenant, rows)
        manager.refinalize(tenant)
        manager.save_snapshot(tenant)          # v1, wal_seq 2
        for rows in batches[2:4]:
            manager.ingest(tenant, rows)
        manager.save_snapshot(tenant)          # v2, wal_seq 4
        manager.ingest(tenant, batches[4])     # seq 5: the tail
        # An append whose apply failed: discarding it raises the floor
        # to 6, above the newest entry.
        seq = backend.append_ingest(tenant, batches[5], DOMAIN)
        backend.discard_ingest(tenant, seq)
    # A torn final write: the append never returned.
    torn = backend.root / "wal" / "hdg" / "entry-00000007.json"
    torn.write_text('{"seq": 7, "rows": "UjEBAgA')


def _write_root_default(backend: DirectoryBackend,
                        batches: list[list]) -> None:
    """Root-level default-tenant snapshots with no registry entry."""
    service = QueryService(DEFAULT_CONFIG["mechanism"],
                           DEFAULT_CONFIG["epsilon"], seed=SEED,
                           domain_size=DOMAIN,
                           total_users=DEFAULT_CONFIG["total_users"],
                           refinalize_every=DEFAULT_CONFIG["refinalize_every"])
    service.ingest(batches[0])
    service.refinalize()
    backend.save_snapshot(DEFAULT_TENANT, service.state_dict())
    (backend.root / "snapshot-000001.meta.json").unlink()
    seq = backend.append_ingest(DEFAULT_TENANT, batches[1], DOMAIN)
    service.ingest(batches[1])
    backend.save_snapshot(DEFAULT_TENANT, service.state_dict(), wal_seq=seq)
    backend.append_ingest(DEFAULT_TENANT, batches[2], DOMAIN)


def _read_back(store: Path) -> dict:
    """Records, entries and recovered answers, from a throwaway copy
    (reading a torn tail quarantines it)."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / "store"
        shutil.copytree(store, copy)
        backend = DirectoryBackend(copy)
        tenants = {}
        for tenant in [*TENANTS, DEFAULT_TENANT]:
            snapshots = [record.to_document()
                         for record in backend.list_snapshots(tenant)]
            for snapshot in snapshots:
                if not (copy if tenant == DEFAULT_TENANT else
                        copy / "tenants" / tenant).joinpath(
                        f"snapshot-{snapshot['version']:06d}.meta.json"
                ).exists():
                    snapshot["created_at"] = None  # the file's mtime
            entries = [{"seq": entry.seq, "rows": entry.rows.tolist(),
                        "domain_size": entry.domain_size,
                        "created_at": entry.created_at}
                       for entry in backend.pending_ingest(tenant)]
            tenants[tenant] = {"snapshots": snapshots, "entries": entries,
                               "last_seq": backend.last_ingest_seq(tenant)}
        for record in backend.list_tenants():
            tenants[record.name].update(config=record.config,
                                        created_at=record.created_at)
        tenants[DEFAULT_TENANT].update(config=DEFAULT_CONFIG)
        manager = TenantManager(backend, default_config=DEFAULT_CONFIG)
        for tenant in tenants:
            service = manager.service(tenant)
            first = _answers(service)
            manager.refinalize(tenant)
            tenants[tenant]["answers"] = {"snapshot": first,
                                          "refinalized": _answers(service)}
            tenants[tenant]["reports_ingested"] = service.reports_ingested
        backend.close()
    return tenants


def main() -> None:
    if HERE.exists():
        shutil.rmtree(HERE)
    HERE.mkdir(parents=True)
    batches = _batches()
    backend = DirectoryBackend(HERE / "json-store")
    _write_tenants(backend, batches)
    _write_root_default(backend, batches)
    expected = {"workload": WORKLOAD,
                "tenants": _read_back(HERE / "json-store")}
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1))
    print(f"wrote {sorted(path.name for path in HERE.iterdir())}")


if __name__ == "__main__":
    main()
