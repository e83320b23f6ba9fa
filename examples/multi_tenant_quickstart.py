"""Multi-tenant quickstart: two tenants, one durable server.

This example drives the multi-tenant serving stack (``repro.serving``
+ ``repro.storage``) end to end over a SQLite backend:

1. open a :class:`~repro.storage.SQLiteBackend` and a
   :class:`~repro.serving.TenantManager` with a default-tenant config,
2. create a second tenant over HTTP (``POST /tenants``) with its own
   mechanism and privacy budget,
3. interleave ingest and query traffic across both tenants — every
   ingest batch is WAL-appended before it is applied, and receipts
   carry the durable ``wal_seq``,
4. round-trip the admin surface (``GET /tenants``,
   ``GET /tenants/<name>``, ``/healthz`` storage section),
5. snapshot both tenants, stop the server, and recover everything
   from the SQLite file alone into a fresh manager — the recovered
   answers must be bitwise identical to the live ones.

Run with:  python examples/multi_tenant_quickstart.py

It doubles as the CI multi-tenant serving smoke: any drift between
live and recovered answers, or a broken admin round trip, raises.
"""

from __future__ import annotations

import json
import tempfile
import threading
import urllib.request
from pathlib import Path

import numpy as np

from repro import WorkloadGenerator, make_dataset
from repro.serving import TenantManager, build_server, query_to_wire
from repro.storage import SQLiteBackend


def http_json(port: int, path: str, payload: dict | None = None,
              method: str | None = None) -> dict:
    """One JSON request against the in-process server."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}",
                                     data=data, method=method)
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def main() -> None:
    with tempfile.TemporaryDirectory() as scratch:
        db = Path(scratch) / "tenants.db"
        run(db)


def run(db: Path) -> None:
    # ------------------------------------------------------------------
    # 1. A durable multi-tenant server over SQLite.
    # ------------------------------------------------------------------
    backend = SQLiteBackend(db)
    manager = TenantManager(backend, default_config={
        "mechanism": "HDG", "epsilon": 1.0, "seed": 0, "domain_size": 16})
    server = build_server(tenant_manager=manager, port=0)
    port = server.server_address[1]
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print(f"multi-tenant service up on http://127.0.0.1:{port}")

    # ------------------------------------------------------------------
    # 2. A second tenant, created over the admin surface.
    # ------------------------------------------------------------------
    created = http_json(port, "/tenants", {
        "name": "acme",
        "config": {"mechanism": "TDG", "epsilon": 2.0, "seed": 7,
                   "domain_size": 16}})
    print(f"created tenant: {created}")

    # ------------------------------------------------------------------
    # 3. Interleaved ingest and query traffic across both tenants.
    # ------------------------------------------------------------------
    rng = np.random.default_rng(0)
    dataset = make_dataset("normal", n_users=4_000, n_attributes=2,
                           domain_size=16, rng=rng)
    generator = WorkloadGenerator(2, 16, rng=np.random.default_rng(1))
    wire = [query_to_wire(query)
            for query in generator.random_workload(8, 2, 0.5)]

    for index in range(4):
        rows = dataset.values[index * 1_000:(index + 1) * 1_000].tolist()
        tenant = "default" if index % 2 == 0 else "acme"
        receipt = http_json(port, "/ingest",
                            {"tenant": tenant, "rows": rows})
        print(f"ingested batch {index} into {tenant!r}: "
              f"wal_seq={receipt['wal_seq']} "
              f"total={receipt['total_reports']}")

    live = {}
    for tenant in ("default", "acme"):
        http_json(port, "/refinalize", {"tenant": tenant})
        live[tenant] = http_json(port, "/query", {
            "tenant": tenant, "queries": wire})["answers"]
        print(f"{tenant!r} answered {len(live[tenant])} queries; "
              f"first: {round(live[tenant][0], 4)}")

    # ------------------------------------------------------------------
    # 4. Admin round trip: listing, inspection, health.
    # ------------------------------------------------------------------
    listing = http_json(port, "/tenants")
    names = sorted(row["name"] for row in listing["tenants"])
    assert names == ["acme", "default"], names
    detail = http_json(port, "/tenants/acme")
    assert detail["config"]["mechanism"] == "TDG", detail
    health = http_json(port, "/healthz")
    storage = health["storage"]
    print(f"healthz storage: backend={storage['backend']} "
          f"tenants={storage['tenants']} "
          f"pending_ingest_log={storage['pending_ingest_log']}")
    assert storage["backend"] == "sqlite" and storage["tenants"] == 2

    # ------------------------------------------------------------------
    # 5. Snapshot, stop, recover from the SQLite file alone.
    # ------------------------------------------------------------------
    for tenant in ("default", "acme"):
        info = http_json(port, "/snapshot", {"tenant": tenant},
                         method="POST")
        print(f"snapshotted {tenant!r}: version {info['version']} "
              f"at wal_seq {info['wal_seq']}")
    server.shutdown()
    server.server_close()
    backend.close()

    recovered = TenantManager(SQLiteBackend(db))
    for tenant in ("default", "acme"):
        answers = recovered.service(tenant).query_wire(wire)["answers"]
        if answers != live[tenant]:
            raise AssertionError(
                f"recovered answers for {tenant!r} drifted from live")
    print("recovered answers are bitwise identical for both tenants")
    print("done")


if __name__ == "__main__":
    main()
