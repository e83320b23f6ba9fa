"""Differential harness pinning the fused plan compiler to the planner.

The compiled execution path (:mod:`repro.queries.compiler`) must be a
pure performance change: for every mechanism and every query kind,
``answer_typed`` through the fused gather/reassembly pass has to
reproduce the interpreted :class:`~repro.queries.QueryPlan` path — and
the per-query planner path — **bitwise**.  Bitwise (not approximate)
equality is assertable because every layer the compiler regroups is
elementwise-independent: grid corner lookups answer each range from its
own four corners, scalar reassembly multiplies each primitive by its
own scale, and every row of ``weighted_update_batch`` is bitwise equal
to the sequential engine on that row, whatever its batch-mates.

Also covers the :class:`~repro.queries.PlanCache` LRU/counter contract
and multi-threaded answering through a tiny cache under eviction
pressure (no cross-request result bleed).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro import build_mechanism, make_dataset
from repro.queries import (CompiledPlan, PlanCache, WorkloadGenerator,
                           plan_cache_key, workload_fingerprint)
from repro.queries.ir import (DistributionResult, ScalarResult, TopKResult,
                              query_kind)

ALL_MECHANISMS = ("Uni", "MSW", "CALM", "HIO", "LHIO",
                  "TDG", "HDG", "ITDG", "IHDG")
N_USERS = 2_000
N_ATTRIBUTES = 3
DOMAIN_SIZE = 16
EPSILON = 1.0
SEED = 11


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(SEED)
    return make_dataset("normal", N_USERS, N_ATTRIBUTES, DOMAIN_SIZE, rng=rng)


def fitted(name: str, dataset, **kwargs):
    return build_mechanism(name, EPSILON, seed=SEED, **kwargs).fit(dataset)


def seeded_mixed_workload(n_queries: int, dimension: int, seed: int,
                          table_dimension: int | None = None) -> list:
    generator = WorkloadGenerator(N_ATTRIBUTES, DOMAIN_SIZE,
                                  rng=np.random.default_rng(seed))
    return generator.mixed_workload(n_queries, dimension, 0.5,
                                    table_dimension=table_dimension)


def assert_results_bitwise_equal(fused, reference):
    """Typed results from the fused path == the reference path, bitwise.

    Exact, with no tolerance: see the module docstring — every
    regrouped kernel is elementwise-independent, so there is no float
    reassociation to forgive.
    """
    assert len(fused) == len(reference)
    for left, right in zip(fused, reference):
        assert type(left) is type(right)
        assert left.query == right.query
        if isinstance(left, ScalarResult):
            assert np.array_equal(left.value, right.value)
            assert left.population == right.population
        elif isinstance(left, DistributionResult):
            assert left.values.shape == right.values.shape
            assert np.array_equal(left.values, right.values)
        elif isinstance(left, TopKResult):
            assert left.cells == right.cells
            assert np.array_equal(left.values, right.values)
        else:  # pragma: no cover - new result kinds must be added here
            raise AssertionError(f"unhandled result type {type(left)!r}")


def interpreted_reference(mechanism, queries):
    """The pre-compiler path: plan once, answer the flat list, assemble."""
    plan = mechanism.query_planner().plan(queries)
    return plan.assemble(mechanism._answer_ranges(plan.ranges))


def per_query_reference(mechanism, queries):
    """The strictest reference: each query planned and answered alone."""
    planner = mechanism.query_planner()
    results = []
    for query in queries:
        plan = planner.plan([query])
        results.extend(plan.assemble(mechanism._answer_ranges(plan.ranges)))
    return results


# ----------------------------------------------------------------------
# Differential: fused == interpreted == per-query, all nine mechanisms
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL_MECHANISMS)
def test_fused_matches_planner_paths_all_mechanisms(name, dataset):
    mechanism = fitted(name, dataset)
    queries = seeded_mixed_workload(30, 2, seed=101)
    assert sorted({query_kind(query) for query in queries}) == [
        "count", "marginal", "point", "range", "topk"]

    fused = mechanism.answer_typed(queries)
    assert_results_bitwise_equal(fused, interpreted_reference(mechanism,
                                                              queries))
    assert_results_bitwise_equal(fused, per_query_reference(mechanism,
                                                            queries))
    # Answering again from the warm plan cache changes nothing.
    assert_results_bitwise_equal(fused, mechanism.answer_typed(queries))


@pytest.mark.parametrize("name", ["TDG", "HDG", "ITDG", "IHDG"])
def test_fused_matches_planner_paths_lambda3(name, dataset):
    # λ=3 ranges exercise the multi-dimensional weighted-update groups
    # (sub-answer gather matrix + one batched estimation call).
    mechanism = fitted(name, dataset)
    queries = seeded_mixed_workload(18, 3, seed=202)
    fused = mechanism.answer_typed(queries)
    assert_results_bitwise_equal(fused, interpreted_reference(mechanism,
                                                              queries))
    # Per-query answering re-batches the λ=3 weighted-update rows one at
    # a time; each row's bits do not depend on its batch.
    assert_results_bitwise_equal(fused,
                                 per_query_reference(mechanism, queries))


def test_fused_matches_planner_paths_max_entropy(dataset):
    # λ>2 under max-entropy estimation takes the fallback (per-plan)
    # path inside _answer_compiled; the answers must still agree.
    mechanism = fitted("TDG", dataset, estimation_method="max_entropy",
                       estimation_iterations=50)
    queries = seeded_mixed_workload(12, 3, seed=303)
    fused = mechanism.answer_typed(queries)
    assert_results_bitwise_equal(fused, interpreted_reference(mechanism,
                                                              queries))


@pytest.mark.parametrize("name", ["TDG", "HDG"])
def test_fused_matches_legacy_toggle(name, dataset):
    # use_legacy_answering must bypass the fused kernels entirely and
    # still agree with the interpreted reference under the same toggle.
    mechanism = fitted(name, dataset)
    mechanism.use_legacy_answering = True
    queries = seeded_mixed_workload(12, 2, seed=404)
    fused = mechanism.answer_typed(queries)
    assert_results_bitwise_equal(fused, interpreted_reference(mechanism,
                                                              queries))
    mechanism.use_legacy_answering = False


def test_randomized_workloads_sweep(dataset):
    # Seeded randomized sweep: many small workloads with varying shape,
    # one fused-vs-interpreted check per draw.
    mechanism = fitted("HDG", dataset)
    for draw, seed in enumerate(range(500, 508)):
        dimension = 2 + (draw % 2)
        queries = seeded_mixed_workload(6 + draw, dimension, seed=seed)
        assert_results_bitwise_equal(
            mechanism.answer_typed(queries),
            interpreted_reference(mechanism, queries))


# ----------------------------------------------------------------------
# CompiledPlan structure
# ----------------------------------------------------------------------
def test_compiled_plan_counts_and_shape_check(dataset):
    mechanism = fitted("TDG", dataset)
    queries = seeded_mixed_workload(20, 2, seed=606)
    plan = mechanism.query_planner().plan(queries)
    compiled = CompiledPlan.from_plan(plan, DOMAIN_SIZE,
                                      population=N_USERS)
    assert compiled.n_queries == len(queries)
    assert compiled.n_primitives == plan.n_primitives
    assert len(compiled.flat_ranges) == plan.n_primitives
    with pytest.raises(ValueError, match="primitive answers"):
        compiled.assemble(np.zeros(compiled.n_primitives + 1))


# ----------------------------------------------------------------------
# PlanCache: keying, LRU order, counters
# ----------------------------------------------------------------------
def test_workload_fingerprint_is_stable_and_order_sensitive():
    first = seeded_mixed_workload(10, 2, seed=707)
    again = seeded_mixed_workload(10, 2, seed=707)
    other = seeded_mixed_workload(10, 2, seed=708)
    assert workload_fingerprint(first) == workload_fingerprint(again)
    assert workload_fingerprint(first) != workload_fingerprint(other)
    assert (workload_fingerprint(list(reversed(first)))
            != workload_fingerprint(first))


def test_plan_cache_key_includes_schema():
    queries = seeded_mixed_workload(5, 2, seed=808)
    key = plan_cache_key((3, 16, 1000), queries)
    assert key == plan_cache_key((3, 16, 1000), queries)
    assert key != plan_cache_key((3, 32, 1000), queries)
    assert key != plan_cache_key((4, 16, 1000), queries)
    assert key != plan_cache_key((3, 16, 2000), queries)


def test_plan_cache_lru_eviction_and_counters():
    cache = PlanCache(capacity=2)
    cache.put("a", 1)
    cache.put("b", 2)
    assert cache.get("a") == 1          # hit; "a" becomes most recent
    cache.put("c", 3)                   # evicts "b" (least recent)
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.get("c") == 3
    stats = cache.stats()
    assert stats["size"] == 2
    assert stats["capacity"] == 2
    assert stats["hits"] == 3
    assert stats["misses"] == 1
    assert stats["evictions"] == 1
    cache.clear()
    assert len(cache) == 0
    # Counters survive clear(): they describe the cache's lifetime.
    assert cache.stats()["evictions"] == 1


def test_mechanism_cache_hits_across_requests(dataset):
    mechanism = fitted("TDG", dataset)
    queries = seeded_mixed_workload(10, 2, seed=909)
    before = mechanism.plan_cache_stats()
    mechanism.answer_typed(queries)
    mechanism.answer_typed(queries)
    mechanism.answer_typed(list(queries))   # same queries, fresh list
    after = mechanism.plan_cache_stats()
    assert after["misses"] - before["misses"] == 1
    assert after["hits"] - before["hits"] == 2


# ----------------------------------------------------------------------
# Concurrency: overlapping workloads, tiny cache, no result bleed
# ----------------------------------------------------------------------
def hammer(mechanism, workloads, expected, n_threads=8, rounds=6):
    """Each thread answers its own workload repeatedly; every result
    must equal that workload's single-threaded reference."""
    failures: list[str] = []
    barrier = threading.Barrier(n_threads)

    def worker(index: int) -> None:
        workload = workloads[index % len(workloads)]
        reference = expected[index % len(workloads)]
        barrier.wait()
        for _ in range(rounds):
            try:
                assert_results_bitwise_equal(
                    mechanism.answer_typed(workload), reference)
            except AssertionError as error:
                failures.append(f"thread {index}: {error}")
                return

    threads = [threading.Thread(target=worker, args=(index,))
               for index in range(n_threads)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not failures, failures[0]


def test_concurrent_answering_no_result_bleed(dataset):
    mechanism = fitted("HDG", dataset)
    workloads = [seeded_mixed_workload(8, 2, seed=1000 + index)
                 for index in range(4)]
    expected = [mechanism.answer_typed(workload) for workload in workloads]
    hammer(mechanism, workloads, expected)
    stats = mechanism.plan_cache_stats()
    # Every lookup is accounted exactly once, hit or miss.
    assert stats["hits"] + stats["misses"] == 4 + 8 * 6


def test_concurrent_answering_under_tiny_cache_eviction(dataset):
    # More distinct workloads than cache slots: constant eviction churn
    # must never mix one workload's compiled plan into another's answer.
    mechanism = fitted("TDG", dataset)
    mechanism._typed_plan_cache = PlanCache(capacity=2)
    workloads = [seeded_mixed_workload(6, 2, seed=2000 + index)
                 for index in range(6)]
    expected = [mechanism.answer_typed(workload) for workload in workloads]
    hammer(mechanism, workloads, expected, n_threads=6, rounds=4)
    stats = mechanism.plan_cache_stats()
    assert stats["size"] <= 2
    assert stats["evictions"] > 0
    assert stats["hits"] + stats["misses"] == 6 + 6 * 4
