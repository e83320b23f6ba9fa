"""Ingest and query throughput of the online serving subsystem.

PR 4 added a long-lived query service (``repro.serving``): privatized
reports stream in through the shard ``partial_fit`` path, a re-finalize
swaps in a fresh estimator, and workloads are answered over a stdlib
JSON-over-HTTP API.  This benchmark measures that serving loop
end-to-end against a live in-process worker-pool server:

* **ingest** — reports/sec through ``POST /ingest`` (JSON rows in,
  accumulator update, receipt out);
* **re-finalize** — seconds for one ``POST /refinalize`` (Phase 2 on
  the accumulated counts);
* **query (HTTP)** — queries/sec through per-request ``POST /query``
  calls on a mixed-λ workload (one fresh connection per request, the
  pre-batching wire pattern);
* **query (batched HTTP)** — queries/sec posting ``{"workloads":
  [...]}`` batches over one keep-alive connection: the whole batch is
  answered under a single service lock acquisition against compiled
  plans, so this is the serving front end's hot path;
* **query (in-process)** — the same workload straight through
  ``QueryService.query``, isolating the HTTP + JSON overhead;
* **query (in-process, single)** — one ``service.query([q])`` call per
  query through the epoch single-query fast path.  Reported twice:
  *uncached* (answer cache cleared first, plans warm — the honest
  repeated-single-call floor) and *cached* (the same calls repeated,
  hitting the ``(epoch_id, workload)`` answer LRU).

With ``--clients N [N ...]`` the run adds a **read scaling** sweep:
N keep-alive connections post the batched workload concurrently
against the worker pool, exercising the lock-free epoch read path;
the ``read_scaling`` trajectory section records aggregate queries/sec
per client count and the 8-vs-1 speedup.  ``--min-single-qps Q``
fails the run (exit 1) when the cached single-call rate drops below
Q — CI's regression gate on the fast path.

The server is always a :class:`~repro.serving.TenantManager`; without
``--backend`` it runs over a process-local
:class:`~repro.storage.MemoryBackend`, as ``repro serve`` does.  With
``--backend sqlite`` it runs over a SQLite store instead: ingest then
flows through the write-ahead ingest log (durability on the hot path),
and the run additionally reports the **storage** costs — snapshot
save/restore latency and write-ahead ingest-log throughput.

With ``--fault-rate P`` the run adds a **resilience** section: ingest
throughput under injected locked-database faults (retried by the
resilience layer), query throughput while a tripped circuit breaker
holds the tenant in degraded mode, and the no-fault overhead of the
retry/fault-injection wrappers — gated by ``--max-overhead-fraction``
(default 5%; CI passes a lax 0.5 against shared-runner noise, the same
precedent as ``bench_mixed_workload.py``).

Run directly::

    PYTHONPATH=src python benchmarks/bench_serving_throughput.py
    PYTHONPATH=src python benchmarks/bench_serving_throughput.py --smoke
    PYTHONPATH=src python benchmarks/bench_serving_throughput.py \\
        --smoke --backend sqlite
    PYTHONPATH=src python benchmarks/bench_serving_throughput.py \\
        --smoke --fault-rate 0.1

``--smoke`` shrinks the load so CI exercises the whole path in a few
seconds.  Every run appends a record to the ``BENCH_fit.json``
trajectory artifact at the repository root.
"""

from __future__ import annotations

import argparse
import http.client
import json
import sys
import tempfile
import threading
import time
import urllib.request
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _scale import append_trajectory, report  # noqa: E402

from repro.datasets import make_dataset  # noqa: E402
from repro.queries import WorkloadGenerator  # noqa: E402
from repro.resilience import (DegradedServiceError,  # noqa: E402
                              FaultInjectingBackend, FaultPlan, FaultSpec,
                              RetryPolicy)
from repro.serving import (QueryService, TenantManager,  # noqa: E402
                           build_server, query_to_wire)
from repro.storage import MemoryBackend, SQLiteBackend  # noqa: E402


def _post(port: int, path: str, payload: dict) -> dict:
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=60) as response:
        return json.loads(response.read())


def measure_read_scaling(port: int, wire_workload: list,
                         client_counts: tuple[int, ...],
                         query_rounds: int) -> tuple[list[str], dict]:
    """Aggregate batched-query throughput vs concurrent client count.

    Each client posts the whole workload as one ``{"workloads": [...]}``
    batch per round over its own keep-alive connection; all clients
    start together behind a barrier after one warm-up round.  With the
    epoch read path queries never take the service lock, so throughput
    should grow with clients until the worker pool or the GIL-released
    NumPy kernels saturate the cores.
    """
    body = json.dumps({"workloads": [wire_workload]}).encode("utf-8")
    headers = {"Content-Type": "application/json"}

    def client_loop(barrier: threading.Barrier, elapsed: list,
                    index: int) -> None:
        connection = http.client.HTTPConnection("127.0.0.1", port,
                                                timeout=120)
        try:
            connection.request("POST", "/query", body=body, headers=headers)
            warmup = json.loads(connection.getresponse().read())
            assert warmup["count"] == len(wire_workload)
            barrier.wait()
            start = time.perf_counter()
            for _ in range(query_rounds):
                connection.request("POST", "/query", body=body,
                                   headers=headers)
                connection.getresponse().read()
            elapsed[index] = time.perf_counter() - start
        finally:
            connection.close()

    lines = [f"  read scaling      : {query_rounds} rounds x "
             f"{len(wire_workload)} queries per client"]
    rates: dict[str, float] = {}
    for clients in client_counts:
        barrier = threading.Barrier(clients)
        elapsed: list = [None] * clients
        threads = [threading.Thread(target=client_loop,
                                    args=(barrier, elapsed, index))
                   for index in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window = max(elapsed)
        rate = clients * query_rounds * len(wire_workload) / window
        rates[str(clients)] = round(rate, 1)
        base = rates[str(client_counts[0])]
        lines.append(f"    {clients:>3} clients     : {rate:10.1f} "
                     f"queries/sec  {rate / base:5.2f}x")
    section = {
        "client_counts": list(client_counts),
        "queries_per_sec": rates,
        "speedup_at_8_clients": (round(rates["8"] / rates["1"], 2)
                                 if "8" in rates and "1" in rates else None),
    }
    return lines, section


def measure_storage(document: dict, rows: np.ndarray, batch_size: int,
                    domain_size: int, rounds: int) -> tuple[list[str], dict]:
    """Save/restore/WAL-append the same state through a SQLite store.

    ``document`` is a fitted service's ``state_dict()`` so the blob is
    realistically sized; ``rows`` feed the write-ahead ingest log in
    ``batch_size`` slices.  Returns report lines and, under
    ``"sqlite"``, snapshot save/restore latency and WAL append
    throughput.
    """
    n_batches = max(1, len(rows) // batch_size)
    with tempfile.TemporaryDirectory() as tmp:
        with SQLiteBackend(Path(tmp) / "store.db") as backend:
            backend.create_tenant("default", {})
            start = time.perf_counter()
            for _ in range(rounds):
                record = backend.save_snapshot("default", document)
            save_seconds = (time.perf_counter() - start) / rounds

            start = time.perf_counter()
            for _ in range(rounds):
                loaded, _meta = backend.load_snapshot("default")
                restored = QueryService.from_state_dict(loaded)
            restore_seconds = (time.perf_counter() - start) / rounds
            assert restored.reports_ingested == document["reports_ingested"]

            # Arrays, as the server's ingest path appends them.
            batches = [rows[index * batch_size:(index + 1) * batch_size]
                       for index in range(n_batches)]
            start = time.perf_counter()
            for chunk in batches:
                backend.append_ingest("default", chunk, domain_size)
            wal_seconds = time.perf_counter() - start
            wal_rate = n_batches * batch_size / wal_seconds

    results = {"sqlite": {
        "snapshot_save_ms": round(save_seconds * 1e3, 2),
        "snapshot_restore_ms": round(restore_seconds * 1e3, 2),
        "snapshot_bytes": record.size_bytes,
        "wal_append_reports_per_sec": round(wal_rate, 1),
    }}
    lines = [f"  storage [sqlite]  : save {save_seconds * 1e3:7.2f} ms  "
             f"restore {restore_seconds * 1e3:7.2f} ms  "
             f"({record.size_bytes} bytes)  "
             f"wal append {wal_rate:10.1f} reports/sec"]
    return lines, results


def measure_resilience(rows: np.ndarray, batch_size: int, domain_size: int,
                       wire_workload: list, fault_rate: float,
                       query_rounds: int, epsilon: float, seed: int,
                       total_users: int) -> tuple[list[str], dict]:
    """The ``--fault-rate`` section: resilience overhead + degraded mode.

    Three in-process measurements over SQLite stores (no HTTP, so
    the numbers isolate the resilience machinery itself):

    * **no-fault overhead** — write-ahead ingest throughput through a
      pass-through :class:`FaultInjectingBackend` under the default
      :class:`RetryPolicy`, against a raw backend with retries off.
      This is the price every healthy request pays, and the gated
      number (``--max-overhead-fraction``).
    * **faulted ingest** — the same ingest with locked-database faults
      injected at ``fault_rate``, retried transparently.
    * **degraded queries** — query throughput after a permanent-fault
      storm trips the tenant's breaker: answers keep flowing from the
      last finalized estimator while ingest answers 503.
    """
    config = {"mechanism": "HDG", "epsilon": epsilon, "seed": seed,
              "domain_size": domain_size, "total_users": total_users}
    n_batches = max(1, len(rows) // batch_size)
    batches = [rows[index * batch_size:(index + 1) * batch_size]
               for index in range(n_batches)]

    def ingest_rate(manager, repeats: int = 2) -> float:
        best = 0.0
        for _ in range(repeats):
            start = time.perf_counter()
            for chunk in batches:
                manager.ingest("default", chunk)
            elapsed = time.perf_counter() - start
            best = max(best, n_batches * batch_size / elapsed)
        return best

    with tempfile.TemporaryDirectory() as tmp:
        with SQLiteBackend(Path(tmp) / "baseline.db") as raw:
            baseline = ingest_rate(TenantManager(
                raw, default_config=config,
                retry_policy=RetryPolicy.no_retry()))

        with SQLiteBackend(Path(tmp) / "guarded.db") as inner:
            guarded = ingest_rate(TenantManager(
                FaultInjectingBackend(inner), default_config=config))
        overhead = max(0.0, 1.0 - guarded / baseline)

        with SQLiteBackend(Path(tmp) / "faulted.db") as inner:
            plan = FaultPlan([FaultSpec(op="append_ingest", error="locked",
                                        rate=fault_rate, times=0)],
                             seed=seed)
            manager = TenantManager(
                FaultInjectingBackend(inner, plan), default_config=config,
                retry_policy=RetryPolicy(attempts=5, base_delay=1e-4,
                                         max_delay=1e-3, seed=seed))
            faulted = ingest_rate(manager, repeats=1)
            retries = manager.retry_policy.retries_performed
            faults_fired = plan.total_fired
            manager.refinalize("default")

            # Trip the breaker with a permanent-fault storm, then
            # measure query throughput in degraded mode.
            plan.specs.append(FaultSpec(op="append_ingest",
                                        error="permanent", rate=1.0,
                                        times=0))
            while not manager.degraded_tenants():
                try:
                    manager.ingest("default", batches[0])
                except DegradedServiceError:
                    continue
            service = manager.service("default")
            start = time.perf_counter()
            for _ in range(query_rounds):
                answered = service.query_wire(wire_workload)
            degraded_seconds = time.perf_counter() - start
            assert answered["count"] == len(wire_workload)
            degraded_rate = (query_rounds * len(wire_workload)
                             / degraded_seconds)

    lines = [
        f"  resilience        : no-fault overhead {overhead * 100:5.2f}%  "
        f"(guarded {guarded:10.1f} vs raw {baseline:10.1f} reports/sec)",
        f"  faulted ingest    : {faulted:10.1f} reports/sec at "
        f"fault rate {fault_rate} ({faults_fired} faults, "
        f"{retries} retries)",
        f"  degraded queries  : {degraded_rate:10.1f} queries/sec "
        "(breaker open, answers from last finalized estimator)",
    ]
    section = {
        "fault_rate": fault_rate,
        "no_fault_overhead_fraction": round(overhead, 4),
        "baseline_ingest_reports_per_sec": round(baseline, 1),
        "guarded_ingest_reports_per_sec": round(guarded, 1),
        "faulted_ingest_reports_per_sec": round(faulted, 1),
        "faults_fired": faults_fired,
        "retries_performed": retries,
        "degraded_queries_per_sec": round(degraded_rate, 1),
    }
    return lines, section


def run(n_batches: int, batch_size: int, n_attributes: int, domain_size: int,
        n_queries: int, query_rounds: int, epsilon: float, seed: int,
        smoke: bool, backend: str | None = None,
        fault_rate: float | None = None,
        client_counts: tuple[int, ...] = ()) -> tuple[str, dict]:
    rng = np.random.default_rng(seed)
    total_users = n_batches * batch_size
    dataset = make_dataset("normal", total_users, n_attributes, domain_size,
                           rng=rng)
    generator = WorkloadGenerator(n_attributes, domain_size,
                                  rng=np.random.default_rng(seed + 1))
    workload = (generator.random_workload(n_queries // 2, 2, 0.5)
                + generator.random_workload(n_queries - n_queries // 2, 3, 0.5))
    wire_workload = [query_to_wire(query) for query in workload]

    stack = []
    if backend is None:
        # The server ``repro serve`` runs without --backend: the same
        # TenantManager over a process-local store whose ingest log
        # keeps no rows.
        storage = MemoryBackend()
    else:
        # A SQLite store: every ingest batch is WAL-appended before it
        # is applied, so the measured ingest rate includes the
        # durability cost.
        tmp = tempfile.TemporaryDirectory()
        stack.append(tmp.cleanup)
        storage = SQLiteBackend(Path(tmp.name) / "store.db")
        stack.append(storage.close)
    manager = TenantManager(storage, default_config={
        "mechanism": "HDG", "epsilon": epsilon, "seed": seed,
        "domain_size": domain_size, "total_users": total_users})
    service = manager.service("default")
    server = build_server(manager, port=0)
    port = server.server_address[1]
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        # Ingest: one POST per batch of privatized reports.
        start = time.perf_counter()
        for index in range(n_batches):
            rows = dataset.values[index * batch_size:(index + 1) * batch_size]
            receipt = _post(port, "/ingest", {"rows": rows.tolist()})
        ingest_seconds = time.perf_counter() - start
        assert receipt["total_reports"] == total_users

        start = time.perf_counter()
        _post(port, "/refinalize", {})
        refinalize_seconds = time.perf_counter() - start

        # Queries over HTTP, then the same workload in-process.
        start = time.perf_counter()
        for _ in range(query_rounds):
            answered = _post(port, "/query", {"queries": wire_workload})
        http_seconds = time.perf_counter() - start
        assert answered["count"] == len(workload)
        assert all(np.isfinite(answered["answers"]))

        # Batched HTTP: every round ships the whole workload batch as
        # one {"workloads": [...]} POST over a single keep-alive
        # connection.  One warm-up round compiles the plans.
        batch = {"workloads": [wire_workload]}
        body = json.dumps(batch).encode("utf-8")
        headers = {"Content-Type": "application/json"}
        connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
        try:
            connection.request("POST", "/query", body=body, headers=headers)
            warmup = json.loads(connection.getresponse().read())
            assert warmup["count"] == len(workload)
            start = time.perf_counter()
            for _ in range(query_rounds):
                connection.request("POST", "/query", body=body,
                                   headers=headers)
                batched = json.loads(connection.getresponse().read())
            batched_seconds = time.perf_counter() - start
            assert batched["count"] == len(workload)
        finally:
            connection.close()

        start = time.perf_counter()
        for _ in range(query_rounds):
            in_process = service.query(workload)
        direct_seconds = time.perf_counter() - start
        assert np.isfinite(in_process).all()

        # Single-call path: one service.query([q]) per query through
        # the epoch fast path.  One untimed pass warms the per-epoch
        # single-query plans; the uncached pass then measures the
        # plan-warm/answer-cold floor, and the cached rounds measure
        # repeated identical calls against the answer LRU.
        for query in workload:
            service.query([query])
        service.clear_answer_cache()
        start = time.perf_counter()
        for query in workload:
            single = service.query([query])
        single_uncached_seconds = time.perf_counter() - start
        assert np.isfinite(single).all()
        start = time.perf_counter()
        for _ in range(query_rounds):
            for query in workload:
                single = service.query([query])
        single_seconds = time.perf_counter() - start
        assert np.isfinite(single).all()

        if client_counts:
            scaling_lines, scaling_section = measure_read_scaling(
                port, wire_workload, client_counts, query_rounds)
        if backend is not None:
            document = service.state_dict()
            storage_lines, storage_results = measure_storage(
                document, dataset.values, batch_size, domain_size,
                rounds=3 if smoke else 10)
        if fault_rate is not None:
            resilience_lines, resilience_section = measure_resilience(
                dataset.values, batch_size, domain_size, wire_workload,
                fault_rate, query_rounds, epsilon, seed, total_users)
    finally:
        server.shutdown()
        server.server_close()
        for cleanup in reversed(stack):
            cleanup()

    ingest_rate = total_users / ingest_seconds
    http_rate = query_rounds * len(workload) / http_seconds
    batched_rate = query_rounds * len(workload) / batched_seconds
    direct_rate = query_rounds * len(workload) / direct_seconds
    single_rate = query_rounds * len(workload) / single_seconds
    single_uncached_rate = len(workload) / single_uncached_seconds
    front_end = f"backend={backend or MemoryBackend.name}"
    lines = [
        f"serving throughput: HDG eps={epsilon} d={n_attributes} "
        f"c={domain_size} {front_end} ({'smoke' if smoke else 'full'})",
        f"  ingest            : {total_users:>8} reports in "
        f"{ingest_seconds:6.2f}s  -> {ingest_rate:10.1f} reports/sec",
        f"  re-finalize       : {refinalize_seconds:6.3f}s",
        f"  query over HTTP   : {query_rounds * len(workload):>8} queries in "
        f"{http_seconds:6.2f}s  -> {http_rate:10.1f} queries/sec",
        f"  query batched HTTP: {query_rounds * len(workload):>8} queries in "
        f"{batched_seconds:6.2f}s  -> {batched_rate:10.1f} queries/sec",
        f"  query in-process  : {query_rounds * len(workload):>8} queries in "
        f"{direct_seconds:6.2f}s  -> {direct_rate:10.1f} queries/sec",
        f"  query single-call : {query_rounds * len(workload):>8} queries in "
        f"{single_seconds:6.2f}s  -> {single_rate:10.1f} queries/sec "
        "(cached)",
        f"  query single-call : {len(workload):>8} queries in "
        f"{single_uncached_seconds:6.2f}s  -> "
        f"{single_uncached_rate:10.1f} queries/sec (uncached)",
    ]
    entry = {
        "mode": "smoke" if smoke else "full",
        "n_reports": total_users,
        "n_queries": query_rounds * len(workload),
        "ingest_reports_per_sec": round(ingest_rate, 1),
        "refinalize_seconds": round(refinalize_seconds, 4),
        "http_queries_per_sec": round(http_rate, 1),
        "batched_http_queries_per_sec": round(batched_rate, 1),
        "in_process_queries_per_sec": round(direct_rate, 1),
        "in_process_single_query_per_sec": round(single_rate, 1),
        "in_process_single_query_uncached_per_sec":
            round(single_uncached_rate, 1),
    }
    if client_counts:
        lines.extend(scaling_lines)
        entry["read_scaling"] = scaling_section
    if backend is not None:
        lines.extend(storage_lines)
        entry["backend"] = backend
        entry["storage"] = storage_results
    if fault_rate is not None:
        lines.extend(resilience_lines)
        entry["resilience"] = resilience_section
    return "\n".join(lines), entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: small batches, few queries")
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--backend", choices=["sqlite"], default=None,
                        help="serve multi-tenant over a SQLite store and "
                             "add the storage measurements")
    parser.add_argument("--fault-rate", type=float, default=None,
                        metavar="P",
                        help="add the resilience section: measure ingest "
                             "under injected locked-database faults at "
                             "this rate, degraded-mode query throughput, "
                             "and the no-fault resilience overhead")
    parser.add_argument("--clients", type=int, nargs="+", default=None,
                        metavar="N",
                        help="add the read-scaling sweep: this many "
                             "concurrent keep-alive clients posting the "
                             "batched workload (e.g. --clients 1 2 4 8)")
    parser.add_argument("--min-single-qps", type=float, default=None,
                        metavar="Q",
                        help="fail (exit 1) when the cached in-process "
                             "single-call rate is below Q queries/sec "
                             "(CI's fast-path regression gate)")
    parser.add_argument("--max-overhead-fraction", type=float, default=0.05,
                        metavar="F",
                        help="with --fault-rate: fail (exit 1) when the "
                             "no-fault resilience overhead exceeds this "
                             "fraction of raw ingest throughput (CI uses "
                             "a lax 0.5 to tolerate shared-runner noise)")
    args = parser.parse_args(argv)
    if args.fault_rate is not None and not 0.0 <= args.fault_rate < 1.0:
        parser.error("--fault-rate must be in [0, 1)")

    if args.smoke:
        settings = dict(n_batches=4, batch_size=500, n_attributes=3,
                        domain_size=16, n_queries=40, query_rounds=3)
    else:
        settings = dict(n_batches=20, batch_size=5_000, n_attributes=4,
                        domain_size=32, n_queries=200, query_rounds=10)
    text, entry = run(epsilon=args.epsilon, seed=args.seed, smoke=args.smoke,
                      backend=args.backend, fault_rate=args.fault_rate,
                      client_counts=tuple(args.clients or ()),
                      **settings)
    report("serving_throughput", text)
    append_trajectory("serving_throughput", entry)
    failed = False
    if args.fault_rate is not None:
        overhead = entry["resilience"]["no_fault_overhead_fraction"]
        if overhead > args.max_overhead_fraction:
            print(f"FAIL: no-fault resilience overhead {overhead:.4f} "
                  f"exceeds --max-overhead-fraction "
                  f"{args.max_overhead_fraction}", file=sys.stderr)
            failed = True
    if args.min_single_qps is not None:
        single = entry["in_process_single_query_per_sec"]
        if single < args.min_single_qps:
            print(f"FAIL: cached single-call rate {single:.1f} q/s "
                  f"< --min-single-qps {args.min_single_qps}",
                  file=sys.stderr)
            failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
