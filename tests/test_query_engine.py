"""Property tests for the prefix-sum batch query engine.

The engine must reproduce the legacy per-query, per-cell answering path
bit-for-bit (tolerance 1e-9) on randomised grids, intervals, response
matrices and mixed-λ workloads, for the grid mechanisms and every
baseline that answers ranges.
"""

import numpy as np
import pytest

from repro.baselines import CALM, HIO, LHIO, MSW, Uniform
from repro.core import (HDG, TDG, Grid1D, Grid2D, PrefixIndex1D,
                        PrefixIndex2D, SummedAreaTable,
                        estimate_lambda_queries_batched,
                        estimate_lambda_query, prefix_sum_1d,
                        summed_area_table)
from repro.datasets import Dataset
from repro.estimation import (Constraint, weighted_update,
                              weighted_update_batch)
from repro.queries import RangeQuery, WorkloadGenerator


def mixed_workload(n_attributes, domain_size, per_dimension=10, seed=7,
                   dimensions=(1, 2, 3, 4)):
    generator = WorkloadGenerator(n_attributes, domain_size,
                                  rng=np.random.default_rng(seed))
    queries = []
    for dimension in dimensions:
        if dimension <= n_attributes:
            for volume in (0.3, 0.6, 0.9):
                queries.extend(generator.random_workload(per_dimension,
                                                         dimension, volume))
    order = np.random.default_rng(seed + 1).permutation(len(queries))
    return [queries[index] for index in order]


def assert_engine_matches_legacy(mechanism, queries, tolerance=1e-9):
    """Answer the same fitted state through both paths and compare."""
    mechanism.use_legacy_answering = True
    legacy = mechanism.answer_workload(queries)
    mechanism.use_legacy_answering = False
    batch = mechanism.answer_workload(queries)
    np.testing.assert_allclose(batch, legacy, rtol=0.0, atol=tolerance)
    # Single-query answering must agree with the batch path too.
    singles = np.array([mechanism.answer(query) for query in queries])
    np.testing.assert_allclose(singles, legacy, rtol=0.0, atol=tolerance)


# ----------------------------------------------------------------------
# Prefix-sum primitives
# ----------------------------------------------------------------------
def test_prefix_sum_1d_matches_slicing(rng):
    values = rng.normal(size=17)
    prefix = prefix_sum_1d(values)
    for i in range(18):
        assert prefix[i] == pytest.approx(values[:i].sum(), abs=1e-12)


def test_summed_area_table_matches_slicing(rng):
    matrix = rng.normal(size=(9, 13))
    table = summed_area_table(matrix)
    for i in (0, 3, 9):
        for j in (0, 5, 13):
            assert table[i, j] == pytest.approx(matrix[:i, :j].sum(), abs=1e-12)


def test_sat_rect_sum_random_rectangles(rng):
    matrix = rng.normal(size=(20, 20))
    sat = SummedAreaTable(matrix)
    for _ in range(50):
        rl, cl = rng.integers(0, 20, size=2)
        rh = rng.integers(rl, 20)
        ch = rng.integers(cl, 20)
        expected = matrix[rl:rh + 1, cl:ch + 1].sum()
        assert float(sat.rect_sum(rl, rh, cl, ch)) == pytest.approx(
            expected, abs=1e-9)


def test_sat_rect_sum_empty_rectangle_is_zero(rng):
    sat = SummedAreaTable(rng.normal(size=(8, 8)))
    assert float(sat.rect_sum(5, 4, 0, 7)) == 0.0
    assert float(sat.rect_sum(0, 7, 6, 2)) == 0.0


# ----------------------------------------------------------------------
# Grid answering: engine vs legacy cell loop
# ----------------------------------------------------------------------
@pytest.mark.parametrize("domain_size,granularity", [
    (16, 4), (64, 8), (64, 64), (100, 10), (60, 15), (32, 1),
])
def test_grid1d_engine_matches_loop(rng, domain_size, granularity):
    grid = Grid1D(0, domain_size, granularity)
    grid.set_frequencies(rng.normal(size=granularity))  # noisy: can be < 0
    for _ in range(100):
        low = int(rng.integers(0, domain_size))
        high = int(rng.integers(low, domain_size))
        assert grid.answer_range(low, high) == pytest.approx(
            grid.answer_range_loop(low, high), abs=1e-9)


@pytest.mark.parametrize("domain_size,granularity", [
    (16, 4), (64, 8), (16, 16), (100, 10), (60, 12), (32, 1),
])
def test_grid2d_engine_matches_loop(rng, domain_size, granularity):
    grid = Grid2D((0, 1), domain_size, granularity)
    grid.set_frequencies(rng.normal(size=(granularity, granularity)))
    matrix = rng.normal(size=(domain_size, domain_size))
    index = SummedAreaTable(matrix)
    for _ in range(60):
        row_low = int(rng.integers(0, domain_size))
        row_high = int(rng.integers(row_low, domain_size))
        col_low = int(rng.integers(0, domain_size))
        col_high = int(rng.integers(col_low, domain_size))
        intervals = ((row_low, row_high), (col_low, col_high))
        # Uniformity rule (TDG)
        assert grid.answer_range(*intervals) == pytest.approx(
            grid.answer_range_loop(*intervals), abs=1e-9)
        # Response-matrix rule (HDG), with and without precomputed SAT
        expected = grid.answer_range_loop(*intervals, response_matrix=matrix)
        assert grid.answer_range(*intervals, response_matrix=matrix) == \
            pytest.approx(expected, abs=1e-9)
        assert grid.answer_range(*intervals, response_index=index) == \
            pytest.approx(expected, abs=1e-9)


def test_grid_answer_ranges_batch_matches_scalar(rng):
    grid = Grid2D((0, 1), 32, 8)
    grid.set_frequencies(rng.normal(size=(8, 8)))
    matrix = rng.normal(size=(32, 32))
    index = SummedAreaTable(matrix)
    row_lows = rng.integers(0, 32, size=40)
    row_highs = np.array([rng.integers(low, 32) for low in row_lows])
    col_lows = rng.integers(0, 32, size=40)
    col_highs = np.array([rng.integers(low, 32) for low in col_lows])
    batch = grid.answer_ranges(row_lows, row_highs, col_lows, col_highs,
                               response_index=index)
    for position in range(40):
        expected = grid.answer_range_loop(
            (row_lows[position], row_highs[position]),
            (col_lows[position], col_highs[position]), response_matrix=matrix)
        assert batch[position] == pytest.approx(expected, abs=1e-9)


def test_grid_index_invalidated_on_set_frequencies(rng):
    grid = Grid1D(0, 16, 4)
    grid.set_frequencies(np.array([0.1, 0.2, 0.3, 0.4]))
    assert grid.answer_range(0, 7) == pytest.approx(0.3)
    grid.set_frequencies(np.array([0.4, 0.3, 0.2, 0.1]))
    assert grid.answer_range(0, 7) == pytest.approx(0.7)


def test_prefix_index_classes_are_consistent(rng):
    frequencies = rng.normal(size=6)
    index = PrefixIndex1D(frequencies, cell_width=5)
    assert float(index.value_prefix(30)) == pytest.approx(frequencies.sum())
    frequencies_2d = rng.normal(size=(4, 4))
    index_2d = PrefixIndex2D(frequencies_2d, cell_width=3)
    assert float(index_2d.value_prefix(12, 12)) == pytest.approx(
        frequencies_2d.sum())


# ----------------------------------------------------------------------
# Batched Weighted Update
# ----------------------------------------------------------------------
def test_weighted_update_batch_matches_sequential(rng):
    size = 16
    index_sets = [rng.choice(size, size=rng.integers(2, 9), replace=False)
                  for _ in range(5)]
    index_sets.append(np.arange(size))
    targets = np.abs(rng.normal(size=(12, len(index_sets))))
    targets[:, -1] = 1.0
    batch = weighted_update_batch(size, index_sets, targets)
    for row in range(targets.shape[0]):
        constraints = [Constraint(indices=idx, target=targets[row, k])
                       for k, idx in enumerate(index_sets)]
        sequential = weighted_update(size, constraints)
        np.testing.assert_array_equal(batch[row], sequential.estimate)


def test_estimate_lambda_queries_batched_matches_per_query(rng):
    for dimension in (3, 4, 5):
        queries = []
        sub_answers = []
        generator = WorkloadGenerator(dimension, 16,
                                      rng=np.random.default_rng(dimension))
        for _ in range(8):
            query = generator.random_query(dimension, 0.5)
            queries.append(query)
            sub_answers.append(rng.normal(0.3, 0.2,
                                          size=dimension * (dimension - 1) // 2))
        lookup_tables = [
            dict(zip((sub.attributes for sub in query.pairwise_subqueries()),
                     answers))
            for query, answers in zip(queries, sub_answers)]
        expected = [estimate_lambda_query(
            query, lambda sub, table=table: table[sub.attributes])
            for query, table in zip(queries, lookup_tables)]
        batched = estimate_lambda_queries_batched(queries, sub_answers)
        np.testing.assert_array_equal(batched, expected)


def test_estimate_lambda_queries_batched_rejects_pairs():
    query = RangeQuery.from_dict({0: (0, 3), 1: (0, 3)})
    with pytest.raises(ValueError):
        estimate_lambda_queries_batched([query], [np.array([0.5])])


# ----------------------------------------------------------------------
# Mechanisms: batch workload vs legacy loop on the same fitted state
# ----------------------------------------------------------------------
def _uniform_dataset(rng, n_users=6_000, n_attributes=5, domain_size=32):
    return Dataset(rng.integers(0, domain_size, size=(n_users, n_attributes)),
                   domain_size)


@pytest.mark.parametrize("factory", [
    lambda seed: TDG(1.0, seed=seed),
    lambda seed: HDG(1.0, seed=seed),
    lambda seed: CALM(1.0, seed=seed),
    lambda seed: Uniform(seed=seed),
    lambda seed: MSW(1.0, seed=seed),
], ids=["TDG", "HDG", "CALM", "Uni", "MSW"])
def test_batch_engine_matches_legacy(rng, factory):
    dataset = _uniform_dataset(rng)
    queries = mixed_workload(dataset.n_attributes, dataset.domain_size)
    mechanism = factory(0).fit(dataset)
    assert_engine_matches_legacy(mechanism, queries)


@pytest.mark.parametrize("factory", [
    lambda seed: HIO(1.0, seed=seed),
    lambda seed: LHIO(1.0, seed=seed),
], ids=["HIO", "LHIO"])
def test_batch_engine_matches_legacy_hierarchies(rng, factory):
    # Hierarchy baselines draw lazy noise on first evaluation; answering
    # the legacy path first freezes those caches, after which the batch
    # path must reproduce the identical answers.
    dataset = _uniform_dataset(rng, n_users=4_000, n_attributes=3,
                               domain_size=16)
    queries = mixed_workload(dataset.n_attributes, dataset.domain_size,
                             per_dimension=5, dimensions=(1, 2, 3))
    mechanism = factory(0).fit(dataset)
    assert_engine_matches_legacy(mechanism, queries)


def test_batch_engine_matches_legacy_non_power_of_two_domain(rng):
    dataset = Dataset(rng.integers(0, 100, size=(6_000, 3)), 100)
    queries = mixed_workload(3, 100, per_dimension=8, dimensions=(1, 2, 3))
    for factory in (lambda: TDG(1.0, seed=0), lambda: HDG(1.0, seed=0)):
        mechanism = factory().fit(dataset)
        assert_engine_matches_legacy(mechanism, queries)


def test_batch_engine_matches_legacy_max_entropy(rng):
    dataset = _uniform_dataset(rng, n_users=4_000, n_attributes=4,
                               domain_size=16)
    queries = mixed_workload(4, 16, per_dimension=4, dimensions=(3,))
    mechanism = HDG(1.0, estimation_method="max_entropy", seed=0).fit(dataset)
    assert_engine_matches_legacy(mechanism, queries)


def test_batch_engine_handles_empty_workload(rng):
    mechanism = TDG(1.0, seed=0).fit(_uniform_dataset(rng, n_users=2_000))
    assert mechanism.answer_workload([]).shape == (0,)


def test_batch_workload_validates_queries(rng):
    mechanism = TDG(1.0, seed=0).fit(_uniform_dataset(rng, n_users=2_000))
    bad = RangeQuery.from_dict({0: (0, 999)})
    with pytest.raises(ValueError):
        mechanism.answer_workload([bad])


def test_runner_query_engine_parity(rng):
    """The runner produces identical MAEs through both engine settings."""
    from repro.experiments import ExperimentConfig, run_experiment

    base = ExperimentConfig(dataset="normal", n_users=5_000, n_attributes=3,
                            domain_size=16, n_queries=20, query_dimension=3,
                            methods=("Uni", "TDG", "HDG"), seed=3)
    batch = run_experiment(base)
    legacy = run_experiment(base.with_overrides(query_engine="legacy"))
    for method in base.methods:
        assert batch.mae_of(method) == pytest.approx(legacy.mae_of(method),
                                                     abs=1e-9)


# ----------------------------------------------------------------------
# Staleness and RNG-order regressions (from review)
# ----------------------------------------------------------------------
def test_hio_fresh_instances_agree_across_engines(rng):
    # Regression: the bucketed path used to materialise levels in a
    # different RNG order than the legacy loop, so two *fresh* fitted
    # instances with the same seed disagreed between engines.
    dataset = Dataset(rng.integers(0, 64, size=(2_000, 3)), 64)
    queries = mixed_workload(3, 64, per_dimension=4, dimensions=(2, 3))
    legacy = HIO(1.0, materialize_limit=256, seed=7).fit(dataset)
    legacy.use_legacy_answering = True
    batch = HIO(1.0, materialize_limit=256, seed=7).fit(dataset)
    np.testing.assert_allclose(batch.answer_workload(queries),
                               legacy.answer_workload(queries),
                               rtol=0.0, atol=1e-9)


def test_lhio_fresh_instances_agree_across_engines(rng):
    # Same regression for LHIO's lazy levels: with lazy groups present the
    # batch path must keep strict workload order so the RNG stream matches.
    dataset = Dataset(rng.integers(0, 64, size=(2_000, 3)), 64)
    queries = mixed_workload(3, 64, per_dimension=4, dimensions=(1, 2, 3))
    legacy = LHIO(1.0, materialize_limit=256, seed=7).fit(dataset)
    legacy.use_legacy_answering = True
    batch = LHIO(1.0, materialize_limit=256, seed=7).fit(dataset)
    np.testing.assert_allclose(batch.answer_workload(queries),
                               legacy.answer_workload(queries),
                               rtol=0.0, atol=1e-9)


def test_grid_frequencies_are_read_only(rng):
    # In-place edits of the public array would silently bypass the
    # prefix-sum index, so they must fail loudly.
    grid = Grid1D(0, 16, 4)
    grid.set_frequencies(np.array([0.1, 0.2, 0.3, 0.4]))
    with pytest.raises(ValueError):
        grid.frequencies[0] = 1.0
    grid_2d = Grid2D((0, 1), 16, 4)
    with pytest.raises(ValueError):
        grid_2d.frequencies[0, 0] = 1.0
    # The sanctioned in-place handle works and invalidates the index.
    assert grid.answer_range(0, 3) == pytest.approx(0.1)
    grid.mutable_frequencies()[0] = 0.9
    assert grid.answer_range(0, 3) == pytest.approx(0.9)


def test_hdg_response_matrix_replacement_not_stale(rng):
    dataset = Dataset(rng.integers(0, 16, size=(4_000, 2)), 16)
    mechanism = HDG(1.0, granularities=(4, 2), seed=0).fit(dataset)
    key = (0, 1)
    query = RangeQuery.from_dict({0: (1, 9), 1: (2, 13)})
    mechanism.response_matrices[key] = np.full((16, 16), 1.0 / 256)
    replaced = mechanism.answer(query)
    batch = mechanism.answer_workload([query])[0]
    expected = mechanism.grids_2d[key].answer_range_loop(
        (1, 9), (2, 13), response_matrix=mechanism.response_matrices[key])
    assert replaced == pytest.approx(expected, abs=1e-9)
    assert batch == pytest.approx(expected, abs=1e-9)
