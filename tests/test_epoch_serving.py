"""Tests for the epoch-published lock-free read path (repro.serving.epoch).

The load-bearing property is the read-consistency contract: a query
observes exactly one fully-published :class:`EstimatorEpoch` — never a
mix of two — and its answers are **bitwise identical** to answering
through the estimator directly, for every served mechanism, with or
without the answer cache in the way.  HIO and LHIO draw noise while
answering; the service refuses them.  On top of that the suite covers the
``(epoch_id, workload)`` answer LRU (counters, eviction, isolation
across tenants), the single-query fast path, cache-capacity plumbing
end to end, the ``Refinalize-Epoch`` response header, and epoch
persistence through the snapshot round trip.
"""

from __future__ import annotations

import json
import threading
import urllib.request

import numpy as np
import pytest

from repro.datasets import Dataset, make_dataset
from repro.estimation.weighted_update import (Constraint, weighted_update,
                                              weighted_update_batch)
from repro.queries import MarginalQuery, WorkloadGenerator
from repro.mechanisms import MECHANISMS
from repro.serving import (AnswerCache, QueryService, ServiceError,
                           TenantManager)
from repro.storage import DirectoryBackend
from serving_helpers import memory_server

DOMAIN = 16


@pytest.fixture(scope="module")
def epoch_dataset() -> Dataset:
    return make_dataset("normal", 1_500, 3, DOMAIN,
                        rng=np.random.default_rng(21))


@pytest.fixture(scope="module")
def range_workload() -> list:
    generator = WorkloadGenerator(3, DOMAIN, rng=np.random.default_rng(9))
    return (generator.random_workload(5, 1, 0.5)
            + generator.random_workload(6, 2, 0.5)
            + generator.random_workload(4, 3, 0.5))


def _streaming_service(**kwargs) -> QueryService:
    service = QueryService("TDG", 1.0, seed=3, domain_size=8, **kwargs)
    rng = np.random.default_rng(17)
    service.ingest(rng.integers(0, 8, size=(600, 2)))
    service.refinalize()
    return service


def _small_workload() -> list:
    generator = WorkloadGenerator(2, 8, rng=np.random.default_rng(4))
    return generator.random_workload(6, 2, 0.5)


#: Mechanisms whose answering draws no noise: everything the service
#: accepts.
PURE_MECHANISMS = ("Uni", "MSW", "CALM", "TDG", "HDG", "ITDG", "IHDG")


# ----------------------------------------------------------------------
# Bitwise identity: epoch path vs the estimator, every served mechanism
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(PURE_MECHANISMS))
def test_epoch_answers_bitwise_identical_to_direct(name, epoch_dataset,
                                                   range_workload):
    """Twin same-seeded instances: one served through the epoch read
    path (cache + fast paths live), one answered directly; they must
    match bit for bit — including the second, cache-hitting pass."""
    served = MECHANISMS[name](1.0, seed=7).fit(epoch_dataset)
    direct = MECHANISMS[name](1.0, seed=7).fit(epoch_dataset)
    service = QueryService(served)
    for _ in range(2):  # second pass answers from the cache
        assert np.array_equal(service.query(range_workload),
                              direct.answer_workload(range_workload))
    # Single-query fast path (per-epoch scratch plans), twice: the
    # first pass fills the plan map, the second uses it.
    for _ in range(2):
        for query in range_workload:
            assert np.array_equal(service.query([query]),
                                  direct.answer_workload([query]))


def test_epoch_typed_and_wire_match_direct(epoch_dataset):
    served = MECHANISMS["HDG"](1.0, seed=5).fit(epoch_dataset)
    direct = MECHANISMS["HDG"](1.0, seed=5).fit(epoch_dataset)
    service = QueryService(served)
    generator = WorkloadGenerator(3, DOMAIN, rng=np.random.default_rng(2))
    workload = generator.random_workload(3, 2, 0.5) + [MarginalQuery((0, 1))]
    for _ in range(2):
        got = [result.to_wire() for result in service.query_typed(workload)]
        want = [result.to_wire() for result in direct.answer_typed(workload)]
        assert got == want
    document = service.query_wire(
        [{"kind": "range", "predicates": [
            {"attribute": 0, "low": 1, "high": 9}]}])
    again = service.query_wire(
        [{"kind": "range", "predicates": [
            {"attribute": 0, "low": 1, "high": 9}]}])
    assert document == again
    assert json.dumps(document)  # memoized document stays serializable


def test_query_before_first_epoch_raises():
    service = QueryService("TDG", 1.0, seed=0, domain_size=8)
    with pytest.raises(ServiceError, match="not ready"):
        service.query(_small_workload())


# ----------------------------------------------------------------------
# Weighted-Update single-problem specialization
# ----------------------------------------------------------------------
def test_weighted_update_single_bitwise_matches_batch():
    """The one-row sweep (Python floats) must be bitwise identical to
    the sequential reference engine, and to the same row inside a
    stacked two-row run (column-wise NumPy): both reduce in the same
    fixed pairwise order, so batch height cannot change the bits."""
    rng = np.random.default_rng(13)
    size = 64
    index_sets = [rng.choice(size, size=rng.integers(2, 12), replace=False)
                  for _ in range(20)]
    for trial in range(10):
        targets = rng.random(len(index_sets))
        if trial % 3 == 0:
            targets[rng.integers(0, len(index_sets))] = 0.0
        single = weighted_update_batch(size, index_sets, targets[None])
        sequential = weighted_update(
            size, [Constraint(idx, target)
                   for idx, target in zip(index_sets, targets)]).estimate
        assert np.array_equal(single[0], sequential)
        other = rng.random(len(index_sets))
        stacked = weighted_update_batch(size, index_sets,
                                        np.vstack([targets, other]))
        assert np.array_equal(stacked[0], single[0])


# ----------------------------------------------------------------------
# Answer cache
# ----------------------------------------------------------------------
def test_answer_cache_counters_and_eviction():
    cache = AnswerCache(capacity=2)
    assert cache.get(("k1",)) is None
    cache.put(("k1",), ["r1"])
    cache.put(("k2",), ["r2"])
    assert cache.get(("k1",)) is not None  # k1 now most recent
    cache.put(("k3",), ["r3"])    # evicts k2 (LRU)
    assert cache.get(("k2",)) is None
    assert cache.get(("k1",)) is not None
    stats = cache.stats()
    assert stats == {"size": 2, "capacity": 2, "hits": 2, "misses": 2,
                     "evictions": 1}
    cache.clear()
    assert len(cache) == 0
    assert cache.stats()["hits"] == 2  # counters keep accumulating


def test_answer_cache_capacity_zero_disables():
    service = _streaming_service(answer_cache_entries=0)
    workload = _small_workload()
    first = service.query(workload)
    second = service.query(workload)
    assert np.array_equal(first, second)
    stats = service.answer_cache_stats()
    assert stats["capacity"] == 0
    assert stats["size"] == 0
    assert stats["hits"] == 0


def test_answer_cache_hits_and_epoch_invalidation():
    service = _streaming_service()
    workload = _small_workload()
    before = service.query(workload)
    assert service.answer_cache_stats()["hits"] == 0
    assert np.array_equal(service.query(workload), before)
    assert service.answer_cache_stats()["hits"] == 1
    first_epoch = service.epoch_id
    rng = np.random.default_rng(23)
    service.ingest(rng.integers(0, 8, size=(400, 2)))
    service.refinalize()
    assert service.epoch_id == first_epoch + 1
    # New epoch -> new cache keys: the old entry can never be served.
    hits_before = service.answer_cache_stats()["hits"]
    after = service.query(workload)
    assert service.answer_cache_stats()["hits"] == hits_before
    assert not np.array_equal(after, before)  # more data, new estimate
    # Returned arrays are copies: mutating one must not poison the cache.
    after[0] = -1.0
    assert service.query(workload)[0] != -1.0


def test_cached_answers_survive_concurrent_mutation_of_results():
    service = _streaming_service()
    workload = _small_workload()
    reference = service.query(workload).copy()
    for _ in range(3):
        got = service.query(workload)
        assert np.array_equal(got, reference)
        got.fill(np.nan)


# ----------------------------------------------------------------------
# Cache capacity plumbing
# ----------------------------------------------------------------------
def test_cache_capacities_flow_into_status():
    service = _streaming_service(plan_cache_entries=32,
                                 answer_cache_entries=5)
    status = service.status()
    assert status["plan_cache"]["capacity"] == 32
    assert status["answer_cache"]["capacity"] == 5
    assert status["epoch"] == 1
    # The answer LRU honours its bound across distinct workloads.
    generator = WorkloadGenerator(2, 8, rng=np.random.default_rng(6))
    for index in range(8):
        service.query(generator.random_workload(2, 2, 0.5))
    stats = service.answer_cache_stats()
    assert stats["size"] <= 5
    assert stats["evictions"] >= 3


def test_invalid_cache_capacities_rejected():
    with pytest.raises(ValueError, match="plan_cache_entries"):
        QueryService("TDG", 1.0, plan_cache_entries=0)
    with pytest.raises(ValueError, match="answer_cache_entries"):
        QueryService("TDG", 1.0, answer_cache_entries=-1)


def test_tenant_cache_config_overrides(tmp_path):
    backend = DirectoryBackend(tmp_path / "store")
    try:
        manager = TenantManager(backend)
        manager.create_tenant("tuned", {
            "mechanism": "TDG", "epsilon": 1.0, "seed": 11,
            "domain_size": 8, "plan_cache_entries": 16,
            "answer_cache_entries": 4})
        manager.create_tenant("plain", {
            "mechanism": "TDG", "epsilon": 1.0, "seed": 11,
            "domain_size": 8})
        tuned = manager.service("tuned")
        assert tuned.plan_cache_entries == 16
        assert tuned.answer_cache_entries == 4
        assert manager.service("plain").plan_cache_entries is None
        rng = np.random.default_rng(3)
        manager.ingest("tuned", rng.integers(0, 8, size=(200, 2)).tolist())
        manager.refinalize("tuned")
        described = manager.describe_tenant("tuned")
        assert described["status"]["plan_cache"]["capacity"] == 16
        assert described["status"]["answer_cache"]["capacity"] == 4
        assert described["status"]["epoch"] == 1
    finally:
        backend.close()


def test_answer_cache_does_not_bleed_across_tenants(tmp_path):
    """Two tenants with identical configs but different data: the same
    workload must answer from each tenant's own estimator, not a
    shared cache entry."""
    backend = DirectoryBackend(tmp_path / "store")
    try:
        manager = TenantManager(backend)
        config = {"mechanism": "TDG", "epsilon": 1.0, "seed": 11,
                  "domain_size": 8}
        manager.create_tenant("a", dict(config))
        manager.create_tenant("b", dict(config))
        rng = np.random.default_rng(5)
        manager.ingest("a", rng.integers(0, 8, size=(300, 2)).tolist())
        manager.ingest("b", rng.integers(0, 4, size=(300, 2)).tolist())
        manager.refinalize("a")
        manager.refinalize("b")
        service_a = manager.service("a")
        service_b = manager.service("b")
        assert service_a._answer_cache is not service_b._answer_cache
        workload = _small_workload()
        a_first = service_a.query(workload)
        b_first = service_b.query(workload)  # both epoch 1, same keys
        assert not np.array_equal(a_first, b_first)
        assert np.array_equal(service_a.query(workload), a_first)
        assert np.array_equal(service_b.query(workload), b_first)
    finally:
        backend.close()


# ----------------------------------------------------------------------
# Epoch persistence and the HTTP surface
# ----------------------------------------------------------------------
def test_snapshot_round_trip_preserves_epoch_and_cache_config():
    service = _streaming_service(plan_cache_entries=24,
                                 answer_cache_entries=7)
    rng = np.random.default_rng(29)
    service.ingest(rng.integers(0, 8, size=(200, 2)))
    service.refinalize()
    assert service.epoch_id == 2
    workload = _small_workload()
    reference = service.query(workload)
    restored = QueryService.from_state_dict(
        json.loads(json.dumps(service.state_dict())))
    assert restored.epoch_id == 2
    assert restored.plan_cache_entries == 24
    assert restored.answer_cache_entries == 7
    assert np.array_equal(restored.query(workload), reference)


def test_refinalize_epoch_header_increments():
    config = {"mechanism": "TDG", "epsilon": 1.0, "seed": 3,
              "domain_size": 8}
    with memory_server(config) as (_, server):
        port = server.server_address[1]
        rng = np.random.default_rng(31)

        def post(path, payload):
            request = urllib.request.Request(
                f"http://127.0.0.1:{port}{path}",
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(request, timeout=30) as response:
                return (json.loads(response.read()),
                        response.headers.get("Refinalize-Epoch"))

        post("/ingest", {"rows": rng.integers(0, 8, size=(80, 2)).tolist()})
        status, header = post("/refinalize", {})
        assert status["epoch"] == 1 and header == "1"
        post("/ingest", {"rows": rng.integers(0, 8, size=(80, 2)).tolist()})
        status, header = post("/refinalize", {})
        assert status["epoch"] == 2 and header == "2"

        with urllib.request.urlopen(
                f"http://127.0.0.1:{port}/healthz", timeout=30) as response:
            health = json.loads(response.read())
        assert health["epoch"] == 2
        assert health["answer_cache"]["capacity"] > 0


# ----------------------------------------------------------------------
# Concurrency: torn reads and epoch churn
# ----------------------------------------------------------------------
def test_concurrent_readers_see_identical_answers():
    """N threads against one published epoch must all observe the
    reference answers bitwise (pure mechanism: fully lock-free)."""
    service = _streaming_service()
    workload = _small_workload()
    reference = service.query(workload).copy()
    failures: list = []

    def reader():
        try:
            for _ in range(50):
                if not np.array_equal(service.query(workload), reference):
                    failures.append("answer mismatch")
                    return
        except Exception as error:  # pragma: no cover - failure path
            failures.append(repr(error))

    threads = [threading.Thread(target=reader) for _ in range(6)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures


@pytest.mark.parametrize("name", ["HIO", "LHIO"])
def test_static_service_refuses_impure_mechanism(name, epoch_dataset):
    """HIO and LHIO draw lazy noise while answering, so their state
    grows with every distinct query: static serving refuses them with
    an error that names the mechanism."""
    fitted = MECHANISMS[name](1.0, seed=7).fit(epoch_dataset)
    assert not fitted.answering_is_pure
    with pytest.raises(ValueError, match=f"^{name} cannot be served") \
            as raised:
        QueryService(fitted)
    assert "experiment-only" in str(raised.value)


def test_concurrent_readers_impure_mechanism(epoch_dataset):
    """Epochs carry no answering lock, so concurrent readers are safe
    only because no service ever publishes an impure estimator: every
    way of putting HIO behind the read path — a fitted instance, an
    unfitted one to ingest into, or its name — is refused up front."""
    fitted = MECHANISMS["HIO"](1.0, seed=7).fit(epoch_dataset)
    for mechanism in (fitted, MECHANISMS["HIO"](1.0, seed=7)):
        with pytest.raises(ValueError, match="^HIO cannot be served"):
            QueryService(mechanism)
    with pytest.raises(ValueError, match="'HIO'.*experiment-only"):
        QueryService("HIO", 1.0, seed=7, domain_size=DOMAIN)
    with pytest.raises(ValueError, match="'HIO'.*experiment-only"):
        QueryService("HIO", 1.0, seed=7, domain_size=DOMAIN,
                     ingest_workers=2)


@pytest.mark.chaos
def test_no_torn_reads_under_epoch_churn():
    """Readers racing re-finalizes must each observe one consistent
    epoch: every recorded (epoch_id, answer) pair matches the
    reference answers of that exact epoch, and the epoch ids each
    reader observes never go backwards."""
    service = _streaming_service()
    workload = _small_workload()
    rng = np.random.default_rng(41)
    reference: dict = {}

    def snapshot_reference():
        epoch = service.read_epoch()
        reference[epoch.epoch_id] = epoch.answer_workload(workload)

    snapshot_reference()
    stop = threading.Event()
    records: list[list] = [[] for _ in range(4)]
    failures: list = []

    def reader(index: int):
        try:
            while not stop.is_set():
                epoch = service.read_epoch()
                answer = epoch.answer_workload(workload)
                records[index].append((epoch.epoch_id, answer))
        except Exception as error:  # pragma: no cover - failure path
            failures.append(repr(error))

    threads = [threading.Thread(target=reader, args=(index,))
               for index in range(len(records))]
    for thread in threads:
        thread.start()
    try:
        # Main thread is the only publisher, so the epoch is stable
        # between its own refinalize calls and the reference snapshot
        # taken right after each publish is that epoch's ground truth.
        for _ in range(6):
            service.ingest(rng.integers(0, 8, size=(150, 2)))
            service.refinalize()
            snapshot_reference()
    finally:
        stop.set()
        for thread in threads:
            thread.join()

    assert not failures
    assert len(reference) == 7
    for observed in records:
        assert observed, "reader made no progress"
        previous = 0
        for epoch_id, answer in observed:
            assert epoch_id >= previous, "epoch went backwards"
            previous = epoch_id
            assert epoch_id in reference
            assert np.array_equal(answer, reference[epoch_id])
    # Churn actually happened: at least one reader crossed epochs.
    crossed = {epoch_id for observed in records
               for epoch_id, _ in observed}
    assert len(crossed) >= 2


# ----------------------------------------------------------------------
# Batch composition: an answer depends on (epoch, query) only
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def composition_dataset() -> Dataset:
    return make_dataset("normal", 2_000, 4, DOMAIN,
                        rng=np.random.default_rng(31))


@pytest.mark.parametrize("name", PURE_MECHANISMS + ("LHIO",))
def test_answer_independent_of_batch_composition(name, composition_dataset):
    """Each query answered alone — directly and through the epoch's
    single-query paths — is bitwise equal to its answer inside a
    random mixed-λ (1–4) workload.  LHIO is impure only through lazy
    levels, and at this domain size every level is materialised; it is
    not served, so only its direct answers are checked.  HIO is left
    out: its bits depend on the order queries are first seen."""
    mechanism = MECHANISMS[name](1.0, seed=7).fit(
        composition_dataset)
    if name == "LHIO":
        assert not any(pair_hierarchy.lazy_groups
                       for pair_hierarchy in mechanism._pairs.values())
    else:
        assert mechanism.answering_is_pure
    rng = np.random.default_rng(41)
    generator = WorkloadGenerator(4, DOMAIN, rng=rng)
    workload = [query for dimension in (1, 2, 3, 4)
                for query in generator.random_workload(6, dimension, 0.5)]
    workload = [workload[index] for index in rng.permutation(len(workload))]
    batched = mechanism.answer_workload(workload)
    service = (QueryService(mechanism, answer_cache_entries=0)
               if name != "LHIO" else None)
    for query, expected in zip(workload, batched):
        assert np.array_equal(mechanism.answer(query), expected)
        assert np.array_equal(mechanism.answer_workload([query]),
                              [expected])
        if service is not None:
            assert np.array_equal(service.query([query]), [expected])
            assert service.query_typed([query])[0].value == expected
