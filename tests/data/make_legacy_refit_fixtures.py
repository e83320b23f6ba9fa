"""Write the legacy refit-ingest stores under ``tests/data/legacy_refit/``.

Refit ingest buffered every raw row and refitted from scratch on each
re-finalize.  It no longer exists, so this script must run against a
checkout of commit f8cefef, the last one that wrote refit state::

    git archive f8cefef | tar -x -C /tmp/refit-era
    PYTHONPATH=/tmp/refit-era/src python tests/data/make_legacy_refit_fixtures.py

It writes, for ``tests/test_legacy_refit_stores.py``:

* ``json-store/`` and ``store.db`` — one JSON directory store and one
  SQLite store, each hosting three refit tenants (``msw``, ``uni``,
  ``lhio``).  Every tenant ingested two batches, re-finalized, took a
  snapshot, then ingested a third batch that only the write-ahead log
  holds (the tail recovery replays);
* ``flat_distributed_msw.json`` — an MSW service document in the older
  flat form, where the buffered rows sit in one
  ``distributed.pending_rows`` list;
* ``expected.json`` — the batches, the workload and what the refit
  code answered: each tenant's first answers after recovery, and the
  flat document's answers after restore.
"""

from __future__ import annotations

import json
import shutil
import tempfile
from pathlib import Path

import numpy as np

from repro.serving import QueryService, TenantManager
from repro.storage import DirectoryBackend, SQLiteBackend

HERE = Path(__file__).resolve().parent / "legacy_refit"
DOMAIN = 8
D = 3
TENANTS = {"msw": "MSW", "uni": "Uni", "lhio": "LHIO"}
WORKLOAD = [
    [[[0, 0, 3], [1, 2, 6]]],
    [[[0, 1, 5]], [[2, 0, 4]], [[0, 0, 7], [1, 0, 7], [2, 3, 3]]],
]


def _batches() -> list[list]:
    rng = np.random.default_rng(2024)
    return [rng.integers(0, DOMAIN, size=(40, D)).tolist() for _ in range(3)]


def _config(mechanism: str) -> dict:
    return {"mechanism": mechanism, "epsilon": 1.0, "seed": 11,
            "domain_size": DOMAIN, "ingest_mode": "refit"}


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
    """First answers of a refit-era recovery, run on a throwaway copy."""
    with tempfile.TemporaryDirectory() as scratch:
        copy = Path(scratch) / path.name
        if path.is_dir():
            shutil.copytree(path, copy)
        else:
            shutil.copy(path, copy)
        backend = opener(copy)
        manager = TenantManager(backend)
        answers = {tenant: _answers(manager.service(tenant))
                   for tenant in TENANTS if tenant != "lhio"}
        backend.close()
    return answers


def _flat_document(batches: list[list]) -> tuple[dict, list]:
    """An MSW refit service document in the flat ``distributed`` form."""
    service = QueryService("MSW", 1.0, seed=11, domain_size=DOMAIN,
                           ingest_mode="refit")
    service.ingest(batches[0])
    service.refinalize()
    service.ingest(batches[1])
    state = json.loads(json.dumps(service.state_dict()))
    refit = state.pop("refit")
    rows = [row for batch in refit["pending_rows"] for row in batch]
    state["distributed"] = {
        "ingest_workers": 2, "seed": refit["seed"],
        "kwargs": refit["kwargs"], "planning_users": None,
        "schema": refit["pending_schema"], "key_base": len(rows),
        "pending_rows": rows,
    }
    restored = QueryService.from_state_dict(state)
    return state, _answers(restored)


def main() -> None:
    if HERE.exists():
        shutil.rmtree(HERE)
    HERE.mkdir(parents=True)
    batches = _batches()
    _write_store(DirectoryBackend(HERE / "json-store"), batches)
    _write_store(SQLiteBackend(HERE / "store.db"), batches)
    flat, flat_answers = _flat_document(batches)
    (HERE / "flat_distributed_msw.json").write_text(json.dumps(flat))
    expected = {
        "batches": batches,
        "workload": WORKLOAD,
        "tenants": TENANTS,
        "seed": 11,
        "domain_size": DOMAIN,
        "first_answers": {
            "json": _recovered_answers(HERE / "json-store",
                                       DirectoryBackend),
            "sqlite": _recovered_answers(HERE / "store.db", SQLiteBackend),
        },
        "flat_answers": flat_answers,
    }
    (HERE / "expected.json").write_text(json.dumps(expected, indent=1))
    print(f"wrote {sorted(path.name for path in HERE.iterdir())}")


if __name__ == "__main__":
    main()
