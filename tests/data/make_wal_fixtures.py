"""Write the JSON-row write-ahead-log stores under ``tests/data/wal_json_rows/``.

Write-ahead-log entries used to hold each batch as JSON text (SQLite)
or a JSON list (directory store); they now hold a compact row blob.
This script must run against a checkout of commit aa6fa93, the last
one that wrote JSON rows::

    git archive aa6fa93 | tar -x -C /tmp/json-rows-era
    PYTHONPATH=/tmp/json-rows-era/src python tests/data/make_wal_fixtures.py

It writes, for ``tests/test_wal_formats.py``:

* ``json-store/`` and ``store.db`` — one JSON directory store and one
  SQLite store, each hosting an HDG and a TDG stream tenant.  Every
  tenant ingested two batches, re-finalized, took a snapshot, then
  ingested a third batch that only the write-ahead log holds, as JSON
  rows;
* ``expected.json`` — the batches, the workload and the answers that
  code gave after recovering each store: the snapshot's epoch first,
  then again after a re-finalize that covers the replayed tail.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.serving import TenantManager
from repro.storage import DirectoryBackend, SQLiteBackend

HERE = Path(__file__).resolve().parent / "wal_json_rows"
DOMAIN = 8
D = 3
SEED = 11
TENANTS = {"hdg": "HDG", "tdg": "TDG"}
WORKLOAD = [
    [[[0, 0, 3], [1, 2, 6]]],
    [[[0, 1, 5]], [[2, 0, 4]], [[0, 0, 7], [1, 0, 7], [2, 3, 3]]],
]


def _batches() -> list[list]:
    rng = np.random.default_rng(2025)
    return [rng.integers(0, DOMAIN, size=(40, D)).tolist() for _ in range(3)]


def _config(mechanism: str) -> dict:
    return {"mechanism": mechanism, "epsilon": 1.0, "seed": SEED,
            "domain_size": DOMAIN, "total_users": 200}


def _answers(service) -> list:
    return service.query_wire_batch(WORKLOAD)["workloads"]


def _write_store(backend, batches: list[list]) -> None:
    manager = TenantManager(backend)
    for tenant, mechanism in TENANTS.items():
        manager.create_tenant(tenant, _config(mechanism))
        manager.ingest(tenant, batches[0])
        manager.ingest(tenant, batches[1])
        manager.refinalize(tenant)
        manager.save_snapshot(tenant)
        manager.ingest(tenant, batches[2])  # the write-ahead-log tail
    backend.close()


def _recovered_answers(path: Path, opener) -> dict:
    """Answers of a recovery, run on a throwaway copy of the store."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / path.name
        if path.is_dir():
            shutil.copytree(path, copy)
        else:
            shutil.copy(path, copy)
        backend = opener(copy)
        manager = TenantManager(backend)
        answers = {}
        for tenant in TENANTS:
            first = _answers(manager.service(tenant))
            manager.refinalize(tenant)
            answers[tenant] = {"snapshot": first,
                               "refinalized": _answers(
                                   manager.service(tenant))}
        backend.close()
    return answers


def main() -> None:
    if HERE.exists():
        shutil.rmtree(HERE)
    HERE.mkdir(parents=True)
    batches = _batches()
    _write_store(DirectoryBackend(HERE / "json-store"), batches)
    _write_store(SQLiteBackend(HERE / "store.db"), batches)
    expected = {
        "batches": batches,
        "workload": WORKLOAD,
        "tenants": TENANTS,
        "configs": {tenant: _config(mechanism)
                    for tenant, mechanism in TENANTS.items()},
        "answers": {
            "json": _recovered_answers(HERE / "json-store",
                                       DirectoryBackend),
            "sqlite": _recovered_answers(HERE / "store.db", SQLiteBackend),
        },
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1))
    print(f"wrote {sorted(path.name for path in HERE.iterdir())}")


if __name__ == "__main__":
    main()
