"""Differential harness pinning the compiled answering path.

Every workload is answered through :class:`~repro.queries.CompiledPlan`,
the one module that lowers query kinds onto range primitives and
reassembles their answers — fused grouped gathers plus one vectorised
reassembly.  For every mechanism and every query kind its typed results
must equal **bitwise**

* the interpreted reference of ``tests/oracles.py``: each query lowered
  to its primitives on its own (``reference_ranges``), every primitive
  answered one at a time through the scalar oracle, and the answers
  reassembled query by query (``reference_assemble``) — LHIO, whose
  scalar oracle sums its hierarchy levels in another order, to 1e-9;
* the per-query reference: each query answered alone.

Bitwise (not approximate) equality is assertable because every layer
the compiler regroups is elementwise-independent: grid corner lookups
answer each range from its own four corners, scalar reassembly
multiplies each primitive by its own scale, and every row of
``weighted_update_batch`` is bitwise equal to the sequential engine on
that row, whatever its batch-mates.

Also covers the :class:`~repro.queries.PlanCache` LRU/counter contract
and multi-threaded answering through a tiny cache under eviction
pressure (no cross-request result bleed).
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from oracles import interpreted_results, loop_answers, reference_ranges
from repro import build_mechanism, make_dataset
from repro.queries import CompiledPlan, PlanCache, WorkloadGenerator
from repro.queries import (MarginalQuery, PointQuery, Predicate,
                           PredicateCountQuery, RangeQuery, TopKQuery)
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


def assert_results_bitwise_equal(fused, reference, atol=0.0):
    """Typed results from the fused path == the reference path, bitwise.

    Exact, with no tolerance: see the module docstring — every
    regrouped kernel is elementwise-independent, so there is no float
    reassociation to forgive.  ``atol`` is for references that sum in
    another order (the LHIO scalar oracle, the loop oracles).
    """
    assert len(fused) == len(reference)
    for left, right in zip(fused, reference):
        assert type(left) is type(right)
        assert left.query == right.query
        if isinstance(left, ScalarResult):
            assert abs(left.value - right.value) <= atol
            if not atol:
                assert np.array_equal(left.value, right.value)
            assert left.population == right.population
        elif isinstance(left, DistributionResult):
            assert left.values.shape == right.values.shape
            np.testing.assert_allclose(left.values, right.values, rtol=0.0,
                                       atol=atol)
        elif isinstance(left, TopKResult):
            if not atol:
                assert left.cells == right.cells
            np.testing.assert_allclose(left.values, right.values, rtol=0.0,
                                       atol=atol)
        else:  # pragma: no cover - new result kinds must be added here
            raise AssertionError(f"unhandled result type {type(left)!r}")


def per_query_reference(mechanism, queries):
    """The strictest reference: each query planned and answered alone."""
    return [mechanism.answer_typed([query])[0] for query in queries]


def scalar_tolerance(name: str) -> float:
    """LHIO's scalar oracle sums its levels in another order."""
    return 1e-9 if name == "LHIO" else 0.0


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
    assert_results_bitwise_equal(fused,
                                 interpreted_results(mechanism, queries),
                                 atol=scalar_tolerance(name))
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
    assert_results_bitwise_equal(fused,
                                 interpreted_results(mechanism, queries))
    # Per-query answering re-batches the λ=3 weighted-update rows one at
    # a time; each row's bits do not depend on its batch.
    assert_results_bitwise_equal(fused,
                                 per_query_reference(mechanism, queries))


def test_fused_matches_planner_paths_max_entropy(dataset):
    # λ>2 under max-entropy estimation runs one per-row combiner inside
    # the λ-D groups; the answers must still agree.
    mechanism = fitted("TDG", dataset, estimation_method="max_entropy",
                       estimation_iterations=50)
    queries = seeded_mixed_workload(12, 3, seed=303)
    fused = mechanism.answer_typed(queries)
    assert_results_bitwise_equal(fused,
                                 interpreted_results(mechanism, queries))
    assert_results_bitwise_equal(fused,
                                 per_query_reference(mechanism, queries))


@pytest.fixture(scope="module")
def table_dataset():
    rng = np.random.default_rng(SEED)
    return make_dataset("normal", N_USERS, 4, 8, rng=rng)


def overlapping_table_workload() -> list:
    """λ=1/2/3 marginals and top-k beside scalar queries on the same
    attributes and pairs, so table blocks and scalar rows share groups."""
    return [
        RangeQuery((Predicate(0, 1, 5),)),
        MarginalQuery((0,)),
        TopKQuery((0,), k=3),
        PointQuery(((0, 2), (1, 3))),
        MarginalQuery((0, 1)),
        RangeQuery((Predicate(0, 0, 3), Predicate(1, 2, 7))),
        TopKQuery((1, 2), k=4),
        MarginalQuery((0, 1, 2)),
        RangeQuery((Predicate(0, 1, 6), Predicate(1, 0, 4),
                    Predicate(2, 3, 7))),
        TopKQuery((1, 2, 3), k=5),
        PredicateCountQuery((Predicate(1, 2, 5), Predicate(2, 0, 6),
                             Predicate(3, 1, 3))),
        MarginalQuery((3,)),
    ]


@pytest.mark.parametrize("name", ALL_MECHANISMS)
def test_table_blocks_match_interpreted_reference(name, table_dataset):
    # Table cells compile as index blocks; sharing groups (and λ>2
    # sub-answer vectors) with scalar rows must not move one bit.
    mechanism = fitted(name, table_dataset)
    queries = overlapping_table_workload()
    assert_results_bitwise_equal(
        mechanism.answer_typed(queries),
        interpreted_results(mechanism, queries),
        atol=scalar_tolerance(name))


def test_table_lowering_builds_no_cell_ranges(monkeypatch):
    # A c=64 λ=2 marginal plus a top-k compile and answer without one
    # per-cell RangeQuery; flat_ranges is built only when read.
    dataset = make_dataset("normal", N_USERS, N_ATTRIBUTES, 64,
                           rng=np.random.default_rng(SEED))
    mechanism = fitted("HDG", dataset)
    queries = [MarginalQuery((0, 1)), TopKQuery((1, 2), k=5),
               RangeQuery((Predicate(0, 3, 40),))]

    def no_cell_ranges(*args, **kwargs):
        raise AssertionError("MarginalQuery.to_ranges was called")

    monkeypatch.setattr(MarginalQuery, "to_ranges", no_cell_ranges)
    compiled = mechanism._plan_for(queries)
    results = mechanism.answer_typed(queries)
    assert compiled.n_primitives == 2 * 64 ** 2 + 1
    monkeypatch.undo()

    assert compiled.flat_ranges == reference_ranges(queries, 64)
    assert compiled.flat_ranges is compiled.flat_ranges
    assert_results_bitwise_equal(results,
                                 interpreted_results(mechanism, queries))


@pytest.mark.parametrize("name", ["TDG", "HDG"])
def test_fused_matches_legacy_toggle(name, dataset):
    # The legacy per-cell loops, answered one primitive at a time and
    # reassembled interpretively, agree with the fused path.
    mechanism = fitted(name, dataset)
    queries = seeded_mixed_workload(12, 2, seed=404)
    fused = mechanism.answer_typed(queries)
    assert_results_bitwise_equal(
        fused, interpreted_results(mechanism, queries, loop_answers),
        atol=1e-9)


def test_randomized_workloads_sweep(dataset):
    # Seeded randomized sweep: many small workloads with varying shape,
    # one fused-vs-interpreted check per draw.
    mechanism = fitted("HDG", dataset)
    for draw, seed in enumerate(range(500, 508)):
        dimension = 2 + (draw % 2)
        queries = seeded_mixed_workload(6 + draw, dimension, seed=seed)
        assert_results_bitwise_equal(
            mechanism.answer_typed(queries),
            interpreted_results(mechanism, queries))


# ----------------------------------------------------------------------
# CompiledPlan structure
# ----------------------------------------------------------------------
def test_compiled_plan_counts_and_shape_check(dataset):
    mechanism = fitted("TDG", dataset)
    queries = seeded_mixed_workload(20, 2, seed=606)
    plan = mechanism.query_planner().plan(queries)
    assert plan.queries == queries and plan.domain_size == DOMAIN_SIZE
    compiled = CompiledPlan.from_plan(plan)
    n_primitives = len(reference_ranges(queries, DOMAIN_SIZE))
    assert compiled.n_queries == len(queries)
    assert compiled.n_primitives == n_primitives
    assert len(compiled.flat_ranges) == n_primitives
    with pytest.raises(ValueError, match="primitive answers"):
        compiled.assemble(np.zeros(compiled.n_primitives + 1))


# ----------------------------------------------------------------------
# PlanCache: keying, LRU order, counters
# ----------------------------------------------------------------------
def test_plan_cache_key_includes_schema(dataset):
    # Plans are keyed by the fitted (d, c, population) schema plus the
    # queries themselves: equal workloads hit, reordered ones and a
    # changed population (count scaling) miss.
    mechanism = fitted("TDG", dataset)
    queries = seeded_mixed_workload(5, 2, seed=808)
    first = mechanism._plan_for(queries)
    assert mechanism._plan_for(seeded_mixed_workload(5, 2, seed=808)) \
        is first
    assert mechanism._plan_for(list(reversed(queries))) is not first
    mechanism._n_reports += 1
    try:
        assert mechanism._plan_for(queries) is not first
    finally:
        mechanism._n_reports -= 1
    assert mechanism._plan_for(queries) is first


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
