"""Distributed-determinism harness: the ingest tier, pinned bitwise.

For every served mechanism (TDG, HDG, ITDG, IHDG, CALM, MSW, Uni),
N-worker ingest followed by a merge must produce **bitwise identical**
finalized estimates and query answers to the equivalent single-process
execution: each worker ``partial_fit``\\ s into its own accumulators
under ``shard_seed(seed, i)``; the reference is the same shard plan
executed in one process and folded through ``merge``/``finalize``.
HIO and LHIO do all their work in ``fit`` and the tier refuses them.
Snapshots that the retired refit ingest wrote in the flat
``distributed.pending_rows`` form restore into a stream service that
replays the rows through ``partial_fit``.

Each case is additionally pinned across a snapshot/restore round-trip
(through the JSON wire form of ``QueryService.state_dict``) taken
mid-stream: the restored service ingests the remaining batches and
must land on the same answers as an uninterrupted distributed run —
and therefore the same answers as the single-process reference.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.datasets import Dataset
from repro.ingest import ConsistentHashRouter, IngestTier
from repro.mechanisms import MECHANISMS, shard_seed
from repro.serving import QueryService, restore_mechanism
from store_helpers import STORE_KINDS, open_store

DOMAIN = 8
D = 3
SEED = 13
N_WORKERS = 2
EPSILON = 1.0

#: One wire workload: a 2-dim and two 1-dim range queries — scalar
#: answers compare with ``==`` (bitwise for floats).
WORKLOAD = [
    [[0, 0, 3], [1, 2, 6]],
    [[0, 1, 5]],
    [[2, 0, 4]],
]

STREAM_MECHANISMS = ("TDG", "HDG", "ITDG", "IHDG", "CALM", "MSW", "Uni")


def _batches(n_batches: int = 3, n: int = 150) -> list[np.ndarray]:
    rng = np.random.default_rng(99)
    return [rng.integers(0, DOMAIN, size=(n, D)) for _ in range(n_batches)]


def _service(mechanism: str, workers: int | None) -> QueryService:
    return QueryService(mechanism, EPSILON, seed=SEED, domain_size=DOMAIN,
                        ingest_workers=workers)


def _answers(service: QueryService) -> list[float]:
    return service.query_wire([{"predicates": q} for q in WORKLOAD])["answers"]


def _reference_shard_plan(mechanism: str, batches: list[np.ndarray],
                          planning_users: int):
    """Single-process execution of the tier's exact shard plan."""
    router = ConsistentHashRouter(N_WORKERS, seed=SEED)
    factory = MECHANISMS[mechanism]
    workers = []
    for index in range(N_WORKERS):
        worker = factory(EPSILON, seed=shard_seed(SEED, index))
        worker.prepare_aggregation(D, DOMAIN, total_users=planning_users)
        workers.append(worker)
    next_key = 0
    for rows in batches:
        keys = np.arange(next_key, next_key + rows.shape[0])
        for index, positions in sorted(router.split(keys).items()):
            workers[index].partial_fit(Dataset(rows[positions], DOMAIN))
        next_key += rows.shape[0]
    merged = factory(EPSILON)
    merged.load_shard_state(workers[0].shard_state())
    for worker in workers[1:]:
        shard = factory(EPSILON)
        shard.load_shard_state(worker.shard_state())
        merged.merge(shard)
    merged.finalize()
    return merged


@pytest.mark.parametrize("mechanism", STREAM_MECHANISMS)
def test_stream_tier_matches_single_process_shard_plan(mechanism):
    batches = _batches()
    planning = batches[0].shape[0]  # what the service resolves lazily
    tier = IngestTier(mechanism, EPSILON, n_workers=N_WORKERS,
                      n_attributes=D, domain_size=DOMAIN, seed=SEED,
                      planning_users=planning)
    try:
        for rows in batches:
            tier.submit(rows)
        estimator = tier.merge()
    finally:
        tier.close()
    reference = _reference_shard_plan(mechanism, batches, planning)
    # Finalized internal estimates, bitwise.  (rng_state is excluded:
    # the two finalizing clones are unseeded, and no Phase-2 or
    # answering path of a stream mechanism draws from it.)
    ours, expected = estimator.save_state(), reference.save_state()
    ours.pop("rng_state"), expected.pop("rng_state")
    assert ours == expected
    assert _answers(QueryService(estimator)) \
        == _answers(QueryService(reference))


def _distributed_refit_document(mechanism: str,
                                rows: np.ndarray) -> dict:
    """What the former multi-process refit mode wrote after fitting
    ``rows``: the estimator plus a ``distributed`` block holding the
    flat, key-ordered rows and the schema."""
    fitted = MECHANISMS[mechanism](EPSILON, seed=SEED).fit(
        Dataset(rows, DOMAIN))
    return json.loads(json.dumps({
        "format": "repro.service-snapshot", "version": 1,
        "mechanism": mechanism, "epsilon": EPSILON, "ingest_mode": "refit",
        "domain_size": DOMAIN, "reports_ingested": len(rows),
        "reports_since_finalize": 0, "finalize_count": 1, "epoch_id": 1,
        "collector_config": None, "estimator": fitted.save_state(),
        "distributed": {"ingest_workers": N_WORKERS, "seed": SEED,
                        "kwargs": {}, "planning_users": None,
                        "schema": [D, DOMAIN], "key_base": len(rows),
                        "pending_rows": rows.tolist()},
    }))


@pytest.mark.parametrize("mechanism", ("HIO", "LHIO", "MSW", "Uni"))
def test_distributed_refit_snapshot_restores_into_stream_service(mechanism):
    """The flat form restores in process: the stored estimator is the
    published epoch, and the rows replay through ``partial_fit`` as one
    batch.  HIO and LHIO cannot stream, and say so."""
    batches = _batches()
    flat = np.concatenate(batches[:2])
    document = _distributed_refit_document(mechanism, flat)
    if mechanism in ("HIO", "LHIO"):
        with pytest.raises(ValueError, match=mechanism):
            QueryService.from_state_dict(document)
        return
    restored = QueryService.from_state_dict(document)
    assert restored.ingest_workers is None
    stored = restore_mechanism(document["estimator"])
    assert _answers(restored) == _answers(QueryService(stored))
    uninterrupted = _service(mechanism, None)
    uninterrupted.ingest(flat)
    for rows in batches[2:]:
        uninterrupted.ingest(rows)
        restored.ingest(rows)
    uninterrupted.refinalize()
    restored.refinalize()
    assert restored.reports_ingested == uninterrupted.reports_ingested
    assert _answers(restored) == _answers(uninterrupted)


def test_empty_distributed_refit_snapshot_restores():
    """Before its first batch the former refit tier wrote no schema and
    no rows: the document restores as an empty stream tier."""
    state = json.loads(json.dumps(_service("MSW", None).state_dict()))
    state["distributed"] = {"ingest_workers": N_WORKERS, "seed": SEED,
                            "kwargs": {}, "planning_users": None}
    state["ingest_mode"] = "refit"
    restored = QueryService.from_state_dict(state)
    reference = _service("MSW", N_WORKERS)
    try:
        for rows in _batches():
            restored.ingest(rows)
            reference.ingest(rows)
        restored.refinalize()
        reference.refinalize()
        assert _answers(restored) == _answers(reference)
    finally:
        restored.close()
        reference.close()


def test_tier_rejects_mechanisms_without_sharded_aggregation():
    with pytest.raises(ValueError, match="sharded aggregation"):
        IngestTier("LHIO", EPSILON, n_workers=N_WORKERS, n_attributes=D,
                   domain_size=DOMAIN, seed=SEED)


@pytest.mark.parametrize("mechanism", STREAM_MECHANISMS)
def test_snapshot_restore_round_trip_is_bitwise(mechanism):
    """Snapshot mid-stream, restore from the JSON wire form, continue:
    same answers as an uninterrupted distributed run."""
    batches = _batches()

    uninterrupted = _service(mechanism, N_WORKERS)
    interrupted = _service(mechanism, N_WORKERS)
    try:
        for rows in batches[:2]:
            uninterrupted.ingest(rows)
            interrupted.ingest(rows)
        state = json.loads(json.dumps(interrupted.state_dict()))
        interrupted.close()
        restored = QueryService.from_state_dict(state)
        try:
            for rows in batches[2:]:
                uninterrupted.ingest(rows)
                restored.ingest(rows)
            uninterrupted.refinalize()
            restored.refinalize()
            assert restored.reports_ingested \
                == uninterrupted.reports_ingested
            assert _answers(restored) == _answers(uninterrupted)
        finally:
            restored.close()
    finally:
        uninterrupted.close()


def test_stream_service_matches_standalone_tier():
    """The service's lazy tier (planning users from the first batch)
    answers exactly like the tier driven by hand."""
    batches = _batches()
    service = _service("TDG", N_WORKERS)
    try:
        for rows in batches:
            service.ingest(rows)
        service.refinalize()
        answers = _answers(service)
        status = service.status()
        assert status["ingest_workers"] == N_WORKERS
        tier_metrics = status["ingest_tier"]
        assert tier_metrics["reports_total"] == sum(len(b) for b in batches)
        assert tier_metrics["merge"]["merge_lag_reports"] == 0
        assert all(worker["batches_pending"] == 0
                   for worker in tier_metrics["workers"])
    finally:
        service.close()
    reference = _reference_shard_plan("TDG", batches, batches[0].shape[0])
    assert answers == _answers(QueryService(reference))


def test_merge_lag_tracks_unmerged_reports():
    batches = _batches()
    service = _service("HDG", N_WORKERS)
    try:
        service.ingest(batches[0])
        service.refinalize()
        service.ingest(batches[1])
        merge = service.status()["ingest_tier"]["merge"]
        assert merge["merges"] == 1
        assert merge["merge_lag_reports"] == batches[1].shape[0]
    finally:
        service.close()


def _tier(planning_users: int = 150) -> IngestTier:
    return IngestTier("TDG", EPSILON, n_workers=N_WORKERS, n_attributes=D,
                      domain_size=DOMAIN, seed=SEED,
                      planning_users=planning_users)


def test_out_of_range_rows_are_rejected_before_routing():
    """A batch with values outside [0, c) is refused whole; the workers
    stay alive and later batches ingest as if it never came."""
    batches = _batches()
    bad = batches[0].copy()
    bad[5, 1] = 99
    with _tier() as tier:
        with pytest.raises(ValueError, match=r"\[0, domain_size\)"):
            tier.submit(bad)
        with pytest.raises(ValueError, match=r"\[0, domain_size\)"):
            tier.submit(-bad)
        assert tier.reports_routed == 0 and tier.next_key == 0
        assert all(worker["batches_routed"] == 0
                   for worker in tier.metrics()["workers"])
        for rows in batches:
            tier.submit(rows)
        tier.flush(timeout=30)
        estimator = tier.merge()
        assert tier.reports_merged == sum(len(rows) for rows in batches)
    reference = _reference_shard_plan("TDG", batches, 150)
    assert _answers(QueryService(estimator)) \
        == _answers(QueryService(reference))


def test_merge_cut_falls_between_whole_batches():
    """Merges racing submits always see a prefix of the submitted
    batches, never part of one: a torn cut would land strictly between
    two prefix sums of the (distinct) batch sizes."""
    import sys
    import threading

    rng = np.random.default_rng(17)
    sizes = [20 + index for index in range(400)]
    batches = [rng.integers(0, DOMAIN, size=(size, D)) for size in sizes]
    prefix_sums = set(np.cumsum(sizes).tolist())
    merged: list[int] = []
    interval = sys.getswitchinterval()
    with _tier() as tier:
        tier.submit(batches[0])
        done = threading.Event()

        def submitter():
            try:
                for rows in batches[1:]:
                    tier.submit(rows)
            finally:
                done.set()

        # Switch threads often so merges land inside submits.
        sys.setswitchinterval(1e-5)
        thread = threading.Thread(target=submitter)
        try:
            thread.start()
            while not done.is_set():
                tier.merge()
                merged.append(tier.reports_merged)
            thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        tier.merge()
        merged.append(tier.reports_merged)
    assert len(merged) >= 2
    assert merged[-1] == sum(sizes)
    assert set(merged) <= prefix_sums, sorted(set(merged) - prefix_sums)


def test_concurrent_refinalize_and_snapshot_restore_bitwise():
    """Snapshots captured while re-finalizes run all restore, and each
    restored service then answers like the uninterrupted run."""
    import threading

    batches = _batches(n_batches=4)
    uninterrupted = _service("HDG", N_WORKERS)
    live = _service("HDG", N_WORKERS)
    documents: list[dict] = []
    errors: list[BaseException] = []
    try:
        for rows in batches:
            uninterrupted.ingest(rows)
        uninterrupted.refinalize()
        expected = _answers(uninterrupted)
        for rows in batches[:2]:
            live.ingest(rows)

        def repeat(action):
            try:
                for _ in range(4):
                    action()
            except BaseException as error:  # surfaced below
                errors.append(error)

        threads = [
            threading.Thread(target=repeat, args=(live.refinalize,)),
            threading.Thread(target=repeat, args=(
                lambda: documents.append(
                    json.loads(json.dumps(live.state_dict()))),)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert not errors, errors
        assert len(documents) == 4
        for document in documents:
            restored = QueryService.from_state_dict(document)
            try:
                for rows in batches[2:]:
                    restored.ingest(rows)
                restored.refinalize()
                assert _answers(restored) == expected
            finally:
                restored.close()
    finally:
        live.close()
        uninterrupted.close()


def test_healthz_ingest_tier_keys():
    """The /healthz ingest_tier document keeps its key set."""
    import urllib.request

    from serving_helpers import memory_server

    config = {"mechanism": "TDG", "epsilon": EPSILON, "seed": SEED,
              "domain_size": DOMAIN, "ingest_workers": N_WORKERS}
    with memory_server(config, _batches()[0]) as (_, server):
        url = f"http://127.0.0.1:{server.server_address[1]}/healthz"
        with urllib.request.urlopen(url, timeout=10) as response:
            document = json.loads(response.read())["ingest_tier"]
    assert set(document) == {"mechanism", "n_workers", "reports_routed",
                             "reports_total", "workers", "merge"}
    assert set(document["merge"]) == {
        "merges", "reports_merged", "merge_lag_reports",
        "last_merge_seconds", "epochs_published", "last_published_epoch"}
    assert document["merge"]["merges"] == 1
    assert document["merge"]["epochs_published"] == 1
    for worker in document["workers"]:
        assert set(worker) == {"index", "alive", "queue_depth",
                               "batches_routed", "batches_done",
                               "batches_pending", "reports_done"}


@pytest.mark.scaling
@pytest.mark.slow
def test_worker_throughput_scales():
    """More collector workers → more reports/sec (multi-core hosts).

    On hosts with fewer than 4 CPUs the test still exercises the
    multi-worker path end to end but skips the throughput assertion —
    worker processes would just time-share one core.
    """
    import os
    import time

    rng = np.random.default_rng(4)
    rows = rng.integers(0, 16, size=(200_000, 4))

    def run(workers: int) -> float:
        tier = IngestTier("TDG", EPSILON, n_workers=workers,
                          n_attributes=4, domain_size=16, seed=SEED,
                          planning_users=rows.shape[0])
        try:
            started = time.perf_counter()
            for start in range(0, rows.shape[0], 20_000):
                tier.submit(rows[start:start + 20_000])
            tier.flush()
            elapsed = time.perf_counter() - started
            assert tier.reports_total == rows.shape[0]
        finally:
            tier.close()
        return rows.shape[0] / elapsed

    single = run(1)
    quad = run(4)
    if (os.cpu_count() or 1) >= 4:
        assert quad > 1.5 * single, (single, quad)


@pytest.mark.chaos
def test_killed_worker_fails_fast():
    """A SIGKILLed worker must not hang the parent: metrics keep
    answering, and flush and merge raise instead of waiting forever."""
    import os
    import signal
    import time

    from repro.ingest import IngestWorkerError

    rng = np.random.default_rng(5)
    rows = rng.integers(0, DOMAIN, size=(60, D))
    tier = IngestTier("TDG", EPSILON, n_workers=N_WORKERS, n_attributes=D,
                      domain_size=DOMAIN, seed=SEED, planning_users=60)
    try:
        tier.submit(rows)
        tier.flush()
        os.kill(tier.worker_pids()[0], signal.SIGKILL)
        deadline = time.monotonic() + 30
        while (tier._processes[0].is_alive()
               and time.monotonic() < deadline):
            time.sleep(0.01)
        started = time.monotonic()
        metrics = tier.metrics()
        assert time.monotonic() - started < 1.0
        assert metrics["workers"][0]["alive"] is False
        assert metrics["workers"][0]["reports_done"] > 0
        with pytest.raises(IngestWorkerError):
            tier.flush(timeout=5)
        with pytest.raises(IngestWorkerError):
            tier.merge()
    finally:
        tier.close()


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_distributed_tenant_recovers_bitwise(kind, tmp_path):
    """Snapshot + WAL replay of a distributed tenant."""
    from repro.serving import TenantManager

    config = {"mechanism": "TDG", "epsilon": EPSILON, "seed": SEED,
              "domain_size": DOMAIN, "ingest_workers": N_WORKERS}
    batches = _batches()

    backend = open_store(kind, tmp_path)
    manager = TenantManager(backend, default_config=config)
    manager.ingest("default", batches[0].tolist())
    manager.save_snapshot("default")
    manager.ingest("default", batches[1].tolist())
    manager.refinalize("default")
    expected = _answers(manager.service("default"))
    manager.close()
    backend.close()

    backend = open_store(kind, tmp_path)
    recovered = TenantManager(backend)
    assert not recovered.quarantined_tenants()
    recovered.refinalize("default")
    assert _answers(recovered.service("default")) == expected
    recovered.close()
    backend.close()
