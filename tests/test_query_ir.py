"""Typed query IR, planner and compiled-reassembly tests.

The load-bearing property: every IR kind lowers onto the *same* range
primitives the mechanisms already answer, so marginal cells and point
estimates must match the equivalent degenerate range queries at 1e-9
(they are in fact bitwise equal — one answering stack, one code path),
counts must be the range answer times the population, and top-k must be
the Norm-Sub'd marginal's deterministic arg-top-k.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import loop_answers, reference_ranges
from repro import make_dataset
from repro.datasets import Dataset
from repro.postprocess import norm_sub
from repro.queries import (QUERY_KINDS, CompiledPlan, DistributionResult,
                           MarginalQuery, PointQuery, Predicate,
                           PredicateCountQuery, Query, QueryPlanner,
                           RangeQuery, ScalarResult, TopKQuery, TopKResult,
                           WorkloadGenerator, answer_workload, evaluate_query,
                           evaluate_workload, query_kind, top_k_cells)
from repro.mechanisms import MECHANISMS


@pytest.fixture(scope="module")
def ir_dataset() -> Dataset:
    return make_dataset("normal", 2_000, 3, 16,
                        rng=np.random.default_rng(11))


@pytest.fixture(scope="module")
def fitted(ir_dataset):
    """One fitted instance per mechanism, shared across this module."""
    return {name: factory(1.0, seed=9).fit(ir_dataset)
            for name, factory in MECHANISMS.items()}


# ----------------------------------------------------------------------
# IR construction and validation
# ----------------------------------------------------------------------
def test_marginal_query_canonicalises_and_validates():
    query = MarginalQuery((2, 0))
    assert query.attributes == (0, 2)
    assert query.dimension == 2
    assert query.n_cells(4) == 16
    with pytest.raises(ValueError, match="at least one attribute"):
        MarginalQuery(())
    with pytest.raises(ValueError, match="at most once"):
        MarginalQuery((1, 1))
    with pytest.raises(ValueError, match="non-negative"):
        MarginalQuery((-1,))


def test_point_query_canonicalises_and_validates():
    query = PointQuery(((2, 5), (0, 3)))
    assert query.assignment == ((0, 3), (2, 5))
    assert query.attributes == (0, 2)
    assert PointQuery.from_dict({1: 4}).assignment == ((1, 4),)
    as_range = query.as_range()
    assert all(p.low == p.high for p in as_range.predicates)
    with pytest.raises(ValueError, match="at most once"):
        PointQuery(((0, 1), (0, 2)))
    with pytest.raises(ValueError, match="non-negative"):
        PointQuery(((0, -3),))


def test_count_query_wraps_range_and_checks_population():
    query = PredicateCountQuery((Predicate(1, 2, 6), Predicate(0, 0, 3)),
                                population=500)
    assert query.as_range() == RangeQuery((Predicate(0, 0, 3),
                                           Predicate(1, 2, 6)))
    assert query.population == 500
    assert PredicateCountQuery.from_dict({0: (1, 2)}).population is None
    with pytest.raises(ValueError, match="population"):
        PredicateCountQuery((Predicate(0, 0, 1),), population=0)


@pytest.mark.parametrize("query_cls", [RangeQuery, PredicateCountQuery])
def test_range_and_count_share_predicate_canonicalisation(query_cls):
    query = query_cls([Predicate(2, 0, 1), Predicate(0, 3, 4)])
    assert query.predicates == (Predicate(0, 3, 4), Predicate(2, 0, 1))
    with pytest.raises(ValueError, match="needs at least one predicate"):
        query_cls(())
    with pytest.raises(ValueError, match="may appear at most once"):
        query_cls((Predicate(1, 0, 1), Predicate(1, 2, 3)))


def test_topk_query_validates_k():
    query = TopKQuery((1, 0), k=3)
    assert query.attributes == (0, 1)
    assert query.marginal() == MarginalQuery((0, 1))
    # k larger than the table clamps at selection time.
    cells, values = top_k_cells(np.full((2, 2), 0.25), 100)
    assert len(cells) == 4
    with pytest.raises(ValueError, match="k must be >= 1"):
        TopKQuery((0,), k=0)


def test_query_kind_names_every_kind():
    kinds = {
        query_kind(RangeQuery((Predicate(0, 0, 1),))): RangeQuery,
        query_kind(MarginalQuery((0,))): MarginalQuery,
        query_kind(PointQuery(((0, 0),))): PointQuery,
        query_kind(PredicateCountQuery((Predicate(0, 0, 1),))):
            PredicateCountQuery,
        query_kind(TopKQuery((0,))): TopKQuery,
    }
    assert set(kinds) == set(QUERY_KINDS)
    assert isinstance(RangeQuery((Predicate(0, 0, 1),)), Query)
    with pytest.raises(TypeError, match="not an IR query"):
        query_kind("range")


# ----------------------------------------------------------------------
# Planner validation, compiled lowering and reassembly
# ----------------------------------------------------------------------
def compile_workload(planner, queries):
    return CompiledPlan.from_plan(planner.plan(queries))


def test_planner_lowers_marginal_in_row_major_cell_order():
    planner = QueryPlanner(domain_size=3, n_attributes=4)
    compiled = compile_workload(planner, [MarginalQuery((1, 3))])
    ranges = compiled.flat_ranges
    assert len(ranges) == 9 == compiled.n_primitives
    assert ranges == reference_ranges([MarginalQuery((1, 3))], 3)
    # Row-major: the last attribute varies fastest.
    cells = [(r.interval(1)[0], r.interval(3)[0]) for r in ranges]
    assert cells == [(a, b) for a in range(3) for b in range(3)]
    results = compiled.assemble(np.arange(9.0))
    assert isinstance(results[0], DistributionResult)
    assert results[0].values.shape == (3, 3)
    assert results[0].values[2, 1] == 7.0


def test_planner_count_scaling_and_population_fallbacks():
    planner = QueryPlanner(domain_size=8, n_attributes=2, population=1000)
    query = PredicateCountQuery((Predicate(0, 0, 3),))
    explicit = PredicateCountQuery((Predicate(0, 0, 3),), population=40)
    point = PointQuery(((0, 1),))
    plan = planner.plan([query, explicit, point])
    assert plan.populations == [1000, 40, None]
    results = CompiledPlan.from_plan(plan).assemble(
        np.array([0.25, 0.25, 0.5]))
    assert results[0].value == 250.0 and results[0].population == 1000
    assert results[1].value == 10.0 and results[1].population == 40
    assert results[2].value == 0.5 and results[2].population is None
    bare = QueryPlanner(domain_size=8, n_attributes=2, population=None)
    with pytest.raises(ValueError, match="count query 0 has no population"):
        bare.plan([query])


def test_planner_rejects_out_of_schema_queries_by_position_and_kind():
    planner = QueryPlanner(domain_size=8, n_attributes=2)
    good = RangeQuery((Predicate(0, 0, 3),))
    with pytest.raises(ValueError, match="query 1 .marginal. references "
                                         "attribute 5"):
        planner.plan([good, MarginalQuery((5,))])
    with pytest.raises(ValueError, match="query 0 .range. interval"):
        planner.plan([RangeQuery((Predicate(0, 0, 9),))])
    with pytest.raises(TypeError, match="not an IR query"):
        planner.plan([object()])


def test_plan_assemble_checks_answer_count():
    planner = QueryPlanner(domain_size=4, n_attributes=2)
    compiled = compile_workload(planner, [MarginalQuery((0,))])
    with pytest.raises(ValueError, match="expects 4 primitive answers"):
        compiled.assemble(np.zeros(3))


def test_top_k_cells_is_deterministic_under_ties():
    table = np.array([[0.2, 0.3], [0.3, 0.2]])
    cells, values = top_k_cells(table, 3)
    # Ties broken by row-major order: (0,1) before (1,0), (0,0) before (1,1).
    assert cells == ((0, 1), (1, 0), (0, 0))
    assert np.array_equal(values, np.array([0.3, 0.3, 0.2]))


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_top_k_cells_matches_per_cell_unravel_with_ties(dimension):
    # The vectorised selection returns exactly the tuples the per-cell
    # reference builds: same order, Python ints, ties by row-major order.
    rng = np.random.default_rng(dimension)
    table = rng.integers(0, 4, size=(5,) * dimension) / 4.0
    for k in (1, 7, table.size):
        cells, values = top_k_cells(table, k)
        order = np.argsort(-table.ravel(), kind="stable")[:k]
        expected = tuple(tuple(int(part) for part
                               in np.unravel_index(index, table.shape))
                         for index in order)
        assert cells == expected
        assert all(type(part) is int for cell in cells for part in cell)
        assert np.array_equal(values, table.ravel()[order])


# ----------------------------------------------------------------------
# Ground truth
# ----------------------------------------------------------------------
def test_ground_truth_marginal_matches_dataset_tables(ir_dataset):
    result = evaluate_query(ir_dataset, MarginalQuery((0, 2)))
    assert np.array_equal(result.values, ir_dataset.marginal_table((0, 2)))
    assert np.array_equal(ir_dataset.marginal_table((1,)),
                          ir_dataset.marginal(1))
    assert np.array_equal(ir_dataset.marginal_table((0, 1)),
                          ir_dataset.joint_marginal(0, 1))
    assert result.values.sum() == pytest.approx(1.0)


def test_ground_truth_point_and_count_match_range(ir_dataset):
    point = PointQuery(((0, 3), (1, 7)))
    truth = evaluate_query(ir_dataset, point)
    assert truth.value == answer_workload(ir_dataset, [point.as_range()])[0]
    count = PredicateCountQuery((Predicate(0, 2, 9),))
    truth = evaluate_query(ir_dataset, count)
    fraction = answer_workload(ir_dataset, [count.as_range()])[0]
    assert truth.value == fraction * ir_dataset.n_users
    assert truth.population == ir_dataset.n_users


def test_ground_truth_topk_is_true_marginals_argmax(ir_dataset):
    truth = evaluate_query(ir_dataset, TopKQuery((0, 1), k=4))
    table = ir_dataset.marginal_table((0, 1))
    assert truth.distribution is not None
    assert np.array_equal(truth.distribution, table)
    assert truth.values[0] == table.max()
    assert len(truth.cells) == 4
    assert truth.values.tolist() == sorted(truth.values, reverse=True)


def test_answer_workload_rejects_typed_queries(ir_dataset):
    with pytest.raises(TypeError, match="query 1 is a marginal query"):
        answer_workload(ir_dataset, [RangeQuery((Predicate(0, 0, 1),)),
                                     MarginalQuery((0,))])


# ----------------------------------------------------------------------
# The property: every mechanism, every kind, one answering stack
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(MECHANISMS))
def test_marginal_matches_degenerate_ranges(name, fitted, ir_dataset):
    mechanism = fitted[name]
    query = MarginalQuery((0, 2))
    result = mechanism.answer(query)
    flat = mechanism.answer_workload(query.to_ranges(ir_dataset.domain_size))
    assert result.values.shape == (16, 16)
    np.testing.assert_allclose(result.values.ravel(), flat, atol=1e-9)


@pytest.mark.parametrize("name", sorted(MECHANISMS))
def test_point_and_count_match_equivalent_range(name, fitted, ir_dataset):
    mechanism = fitted[name]
    point = PointQuery(((0, 3), (1, 12)))
    assert abs(mechanism.answer(point).value
               - mechanism.answer(point.as_range())) <= 1e-9
    count = PredicateCountQuery((Predicate(0, 2, 9), Predicate(2, 0, 7)))
    expected = mechanism.answer(count.as_range()) * ir_dataset.n_users
    result = mechanism.answer(count)
    assert abs(result.value - expected) <= 1e-9 * max(1.0, abs(expected))
    assert result.population == ir_dataset.n_users
    assert mechanism.population == ir_dataset.n_users


@pytest.mark.parametrize("name", sorted(MECHANISMS))
def test_topk_is_norm_sub_of_the_estimated_marginal(name, fitted):
    mechanism = fitted[name]
    top = mechanism.answer(TopKQuery((1, 2), k=5))
    marginal = mechanism.answer(MarginalQuery((1, 2)))
    cleaned = norm_sub(marginal.values)
    cells, values = top_k_cells(cleaned, 5)
    assert isinstance(top, TopKResult)
    assert top.cells == cells
    np.testing.assert_allclose(top.values, values, atol=1e-12)


@pytest.mark.parametrize("name", sorted(MECHANISMS))
def test_mixed_workload_through_answer_workload(name, fitted, ir_dataset):
    generator = WorkloadGenerator(3, 16, rng=np.random.default_rng(21))
    mixed = generator.mixed_workload(10, 2, 0.5)
    results = fitted[name].answer_workload(mixed)
    assert [r.kind for r in results] == [query_kind(q) for q in mixed]
    for result in results:
        if isinstance(result, ScalarResult):
            assert np.isfinite(result.value)
        elif isinstance(result, DistributionResult):
            assert np.isfinite(result.values).all()
        else:
            assert np.isfinite(result.values).all()
            assert len(result.cells) == result.query.k
    truths = evaluate_workload(ir_dataset, mixed)
    assert [t.kind for t in truths] == [r.kind for r in results]


def test_legacy_engine_matches_batch_for_typed_queries(fitted):
    """A marginal's cells agree with the per-cell loop oracle."""
    for name in ("TDG", "HDG", "Uni", "MSW", "CALM"):
        mechanism = fitted[name]
        query = MarginalQuery((0, 1))
        batch = mechanism.answer(query).values
        legacy = loop_answers(mechanism, query.to_ranges(16))
        np.testing.assert_allclose(batch.ravel(), legacy, atol=1e-9)


def test_answer_typed_caches_compiled_plans(ir_dataset):
    mechanism = MECHANISMS["TDG"](1.0, seed=0).fit(ir_dataset)
    workload = [MarginalQuery((0, 1)), PointQuery(((2, 5),))]
    first = mechanism.answer_typed(workload)
    assert len(mechanism._typed_plan_cache) == 1
    cached_plan = next(iter(mechanism._typed_plan_cache.values()))
    second = mechanism.answer_typed(list(workload))  # fresh list, same key
    assert next(iter(mechanism._typed_plan_cache.values())) is cached_plan
    assert np.array_equal(first[0].values, second[0].values)
    assert first[1].value == second[1].value
    # The cache is FIFO-bounded.
    for value in range(mechanism._PLAN_CACHE_ENTRIES + 2):
        mechanism.answer_typed([PointQuery(((0, value),))])
    assert len(mechanism._typed_plan_cache) == mechanism._PLAN_CACHE_ENTRIES


def test_count_query_needs_population_after_pre_ir_snapshot(ir_dataset):
    mechanism = MECHANISMS["MSW"](1.0, seed=0).fit(ir_dataset)
    state = mechanism.save_state()
    del state["n_reports"]  # simulate a pre-IR snapshot document
    restored = MECHANISMS["MSW"](1.0).load_state(state)
    assert restored.population is None
    with pytest.raises(ValueError, match="no population"):
        restored.answer(PredicateCountQuery((Predicate(0, 0, 3),)))
    # An explicit per-query population unblocks it.
    result = restored.answer(PredicateCountQuery((Predicate(0, 0, 3),),
                                                 population=750))
    assert result.population == 750


@pytest.mark.parametrize("name", ["TDG", "HDG"])
def test_grid_mechanisms_recover_population_from_pre_ir_snapshots(
        name, ir_dataset):
    """TDG/HDG payloads always carried total_reports; a pre-IR snapshot
    (no top-level n_reports) restores a usable population from it."""
    mechanism = MECHANISMS[name](1.0, seed=0).fit(ir_dataset)
    state = mechanism.save_state()
    del state["n_reports"]
    restored = MECHANISMS[name](1.0).load_state(state)
    assert restored.population == ir_dataset.n_users
    result = restored.answer(PredicateCountQuery((Predicate(0, 0, 3),)))
    assert result.population == ir_dataset.n_users


@pytest.mark.parametrize("name", sorted(MECHANISMS))
def test_snapshot_restore_answers_mixed_workloads_bitwise(name, fitted):
    """Typed answers survive save_state/load_state bit-for-bit."""
    import json

    from repro.serving import restore_mechanism

    mechanism = fitted[name]
    generator = WorkloadGenerator(3, 16, rng=np.random.default_rng(33))
    mixed = generator.mixed_workload(8, 2, 0.5)
    restored = restore_mechanism(json.loads(json.dumps(mechanism.save_state())))
    for _ in range(2):  # twice: noise-drawing mechanisms must stay in sync
        live = mechanism.answer_workload(mixed)
        again = restored.answer_workload(mixed)
        for a, b in zip(live, again):
            if isinstance(a, ScalarResult):
                assert a.value == b.value
            elif isinstance(a, DistributionResult):
                assert np.array_equal(a.values, b.values)
            else:
                assert a.cells == b.cells
                assert np.array_equal(a.values, b.values)
