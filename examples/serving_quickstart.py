"""Serving quickstart: ingest → snapshot → restore → query.

This example drives the online serving subsystem (``repro.serving``)
end to end in-process, the way ``repro serve --backend json --store
DIR`` runs it:

1. host a streaming HDG service as the ``default`` tenant of a
   :class:`~repro.serving.TenantManager` over a JSON
   :class:`~repro.storage.DirectoryBackend`, and ingest privatized
   report batches (each one enters the write-ahead log first),
2. re-finalize so the service answers from the accumulated reports,
3. answer a workload over the JSON-over-HTTP API (the same
   ``/healthz``, ``/ingest``, ``/query``, ``/snapshot`` surface that
   ``repro serve`` exposes),
4. write a versioned snapshot over ``POST /snapshot``, recover the
   store in a *second* manager (what a restart does), and verify the
   recovered answers are bitwise identical — the contract the
   snapshot layer is property-tested on.

Run with:  python examples/serving_quickstart.py

It doubles as a CI smoke: any drift between the live and restored
answers raises.
"""

from __future__ import annotations

import json
import tempfile
import threading
import urllib.request

import numpy as np

from repro import WorkloadGenerator, make_dataset
from repro.serving import TenantManager, build_server, query_to_wire
from repro.storage import DirectoryBackend


def http_json(port: int, path: str, payload: dict | None = None) -> dict:
    """One JSON request against the in-process server."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}",
                                     data=data)
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read())


def main() -> None:
    # ------------------------------------------------------------------
    # 1. A streaming default tenant and three batches of arriving reports.
    # ------------------------------------------------------------------
    rng = np.random.default_rng(0)
    dataset = make_dataset("normal", n_users=6_000, n_attributes=3,
                           domain_size=16, rng=rng)
    store = tempfile.TemporaryDirectory()
    manager = TenantManager(DirectoryBackend(store.name), default_config={
        "mechanism": "HDG", "epsilon": 1.0, "seed": 0, "domain_size": 16,
        "total_users": dataset.n_users, "refinalize_every": 4_000})
    server = build_server(port=0, tenant_manager=manager)
    port = server.server_address[1]
    threading.Thread(target=server.serve_forever, daemon=True).start()
    print(f"service up on http://127.0.0.1:{port}")
    print(f"healthz: {http_json(port, '/healthz')}")

    for index in range(3):
        rows = dataset.values[index * 2_000:(index + 1) * 2_000]
        receipt = http_json(port, "/ingest", {"rows": rows.tolist()})
        print(f"ingested batch {index}: {receipt}")

    # Batch 1 tripped the refinalize-every-4000 policy; make the last
    # 2000 reports visible too.
    status = http_json(port, "/refinalize", {})
    print(f"re-finalized: {status['finalize_count']} finalizes over "
          f"{status['reports_ingested']} reports")

    # ------------------------------------------------------------------
    # 2. Answer a mixed workload over HTTP.
    # ------------------------------------------------------------------
    generator = WorkloadGenerator(3, 16, rng=np.random.default_rng(1))
    workload = (generator.random_workload(10, 2, 0.5)
                + generator.random_workload(5, 3, 0.5))
    wire = [query_to_wire(query) for query in workload]
    live_answers = http_json(port, "/query", {"queries": wire})["answers"]
    print(f"answered {len(live_answers)} queries; first three: "
          f"{[round(answer, 4) for answer in live_answers[:3]]}")

    # ------------------------------------------------------------------
    # 3. Snapshot, recover the store in a second manager, re-query.
    # ------------------------------------------------------------------
    written = http_json(port, "/snapshot", {})
    print(f"wrote snapshot version {written['version']} "
          f"({written['size_bytes']} bytes)")
    server.shutdown()
    server.server_close()

    restored = TenantManager(DirectoryBackend(store.name)).service()
    restored_answers = restored.query(workload)
    print(f"restored service: {restored.status()}")
    if not np.array_equal(np.asarray(live_answers), restored_answers):
        raise AssertionError(
            "restored answers drifted from the live service's")
    print("restored answers are bitwise identical to the live ones")
    store.cleanup()
    print("done")


if __name__ == "__main__":
    main()
