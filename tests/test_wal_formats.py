"""Write-ahead-log entries written as JSON rows still replay.

Entries used to hold each batch as JSON rows: JSON text in SQLite's
``ingest_log.rows``, a JSON list in a directory store's entry file.
They now hold a compact row blob (``repro.storage.base.encode_rows``).
``tests/data/wal_json_rows/`` holds one store of each kind that the
JSON-row code wrote (``tests/data/make_wal_fixtures.py``), each with an
HDG and a TDG tenant whose snapshot is followed by a JSON-row tail, and
the answers that code gave after recovering them.  The SQLite store is
read from a copy; the JSON directory store is imported into a new
SQLite store (``repro.storage.import_json_store``), which keeps its
sequence numbers and stores each entry as a row blob.  Reading them
today:

* each store recovers to the same answers, compared with ``==``;
* a log that holds JSON-row entries followed by blob entries replays
  in sequence order, to the answers of a service that ingested every
  batch without interruption.
"""

from __future__ import annotations

import json
import shutil
import sqlite3
from pathlib import Path

import numpy as np
import pytest

from repro.serving import QueryService, TenantManager
from repro.storage import SQLiteBackend, import_json_store

DATA = Path(__file__).resolve().parent / "data" / "wal_json_rows"
EXPECTED = json.loads((DATA / "expected.json").read_text())


def _open_copy(kind: str, tmp_path):
    """A writable store holding the fixture (recovery and ingest
    write): a copy of the SQLite store, or the JSON store imported."""
    if kind == "json":
        backend = SQLiteBackend(tmp_path / "store.db")
        import_json_store(DATA / "json-store", backend)
        return backend
    shutil.copy(DATA / "store.db", tmp_path / "store.db")
    return SQLiteBackend(tmp_path / "store.db")


def _answers(service) -> list:
    return service.query_wire_batch(EXPECTED["workload"])["workloads"]


def _fixture_rows(tenant: str) -> list:
    """The JSON fixture's ``rows`` values of one tenant's log."""
    wal = DATA / "json-store" / "wal" / tenant
    return [json.loads(path.read_text())["rows"]
            for path in sorted(wal.glob("entry-*.json"))]


def _stored_rows(tmp_path, tenant: str) -> list:
    """Each log entry's stored ``rows`` value, in sequence order."""
    connection = sqlite3.connect(tmp_path / "store.db")
    try:
        return [row[0] for row in connection.execute(
            "SELECT rows FROM ingest_log JOIN tenants USING (tenant_id) "
            "WHERE name = ? ORDER BY seq", (tenant,))]
    finally:
        connection.close()


@pytest.mark.parametrize("kind", ["json", "sqlite"])
def test_json_row_stores_recover_to_the_same_answers(kind, tmp_path):
    stored = _fixture_rows if kind == "json" else (
        lambda tenant: _stored_rows(tmp_path, tenant))
    backend = _open_copy(kind, tmp_path)
    try:
        assert all(isinstance(rows, (list, str))
                   for tenant in EXPECTED["tenants"]
                   for rows in stored(tenant))
        manager = TenantManager(backend)
        assert manager.quarantined_tenants() == {}
        for tenant in EXPECTED["tenants"]:
            expected = EXPECTED["answers"][kind][tenant]
            service = manager.service(tenant)
            assert service.reports_ingested == 120
            assert _answers(service) == expected["snapshot"]
            manager.refinalize(tenant)
            assert _answers(service) == expected["refinalized"]
    finally:
        backend.close()


@pytest.mark.parametrize("kind", ["json", "sqlite"])
def test_mixed_json_and_blob_log_replays_in_order(kind, tmp_path):
    """JSON-row entry 3, then blob entries 4 and 5; the process dies
    without a snapshot and the restart replays all three in order."""
    extra = [np.random.default_rng(seed).integers(
        0, 8, size=(30, 3)) for seed in (5, 6)]
    backend = _open_copy(kind, tmp_path)
    manager = TenantManager(backend)
    for tenant in EXPECTED["tenants"]:
        for rows in extra:
            manager.ingest(tenant, rows.tolist())
    backend.close()

    backend = SQLiteBackend(tmp_path / "store.db")
    try:
        for tenant in EXPECTED["tenants"]:
            stored = _stored_rows(tmp_path, tenant)
            # The import stores the JSON store's entry as a row blob.
            assert [type(rows) for rows in stored] == (
                [bytes] * 3 if kind == "json" else [str, bytes, bytes])
            entries = backend.pending_ingest(tenant)
            assert [entry.seq for entry in entries] == [3, 4, 5]
            assert [entry.rows.tolist() for entry in entries] == [
                EXPECTED["batches"][2], *(rows.tolist() for rows in extra)]
            assert all(entry.rows.dtype == np.int64 for entry in entries)

        recovered = TenantManager(backend)
        for tenant, mechanism in EXPECTED["tenants"].items():
            config = EXPECTED["configs"][tenant]
            reference = QueryService(
                mechanism, config["epsilon"], seed=config["seed"],
                domain_size=config["domain_size"],
                total_users=config["total_users"])
            for rows in EXPECTED["batches"] + [rows.tolist()
                                               for rows in extra]:
                reference.ingest(rows)
            reference.refinalize()
            recovered.refinalize(tenant)
            service = recovered.service(tenant)
            assert service.reports_ingested == 180
            assert _answers(service) == _answers(reference)
    finally:
        backend.close()
