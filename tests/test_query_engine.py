"""Property tests for the prefix-sum answering kernels.

The compiled answering path must reproduce the per-query, per-cell
loops of ``tests/oracles.py`` to 1e-9 on randomised grids, intervals,
response matrices and mixed-λ workloads, for the grid mechanisms and
every baseline that answers ranges — and the scalar per-query
reference bitwise, for every mechanism but LHIO.
"""

import numpy as np
import pytest

from oracles import (grid1d_range_loop, grid2d_range_loop, loop_answers,
                     scalar_answers)
from repro.baselines import CALM, HIO, LHIO, MSW, Uniform
from repro.core import HDG, TDG, Grid1D, Grid2D
from repro.core.prefix_sum import (PrefixStack1D, PrefixStack2D, _corner_sum,
                                   _rect_sum_one, _sats, _tables_1d,
                                   _tables_2d)
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
    """Answer the same fitted state through the compiled path and the
    reference loops, and compare."""
    legacy = loop_answers(mechanism, queries)
    batch = mechanism.answer_workload(queries)
    np.testing.assert_allclose(batch, legacy, rtol=0.0, atol=tolerance)
    # Single-query answering is the same path, so it is bitwise equal.
    singles = np.array([mechanism.answer(query) for query in queries])
    np.testing.assert_array_equal(singles, batch)
    # The scalar per-query reference sums LHIO's levels in another order.
    scalar = scalar_answers(mechanism, queries)
    if isinstance(mechanism, LHIO):
        np.testing.assert_allclose(scalar, batch, rtol=0.0, atol=tolerance)
    else:
        np.testing.assert_array_equal(scalar, batch)


# ----------------------------------------------------------------------
# Prefix-sum primitives: the stack builders and rectangle sums
# ----------------------------------------------------------------------
def test_prefix_sum_1d_matches_slicing(rng):
    values = rng.normal(size=17)
    (prefix,), (padded,) = _tables_1d([values])
    for i in range(18):
        assert prefix[i] == pytest.approx(values[:i].sum(), abs=1e-12)
    assert np.array_equal(padded, np.append(values, 0.0))


def test_summed_area_table_matches_slicing(rng):
    matrix = rng.normal(size=(9, 13))
    (table,) = _sats([matrix])
    for i in (0, 3, 9):
        for j in (0, 5, 13):
            assert table[i, j] == pytest.approx(matrix[:i, :j].sum(), abs=1e-12)


def _random_rectangles(rng, n, size):
    row_lows, col_lows = rng.integers(0, size, size=(2, n))
    row_highs = np.array([rng.integers(low, size) for low in row_lows])
    col_highs = np.array([rng.integers(low, size) for low in col_lows])
    return row_lows, row_highs, col_lows, col_highs


def test_sat_rect_sum_random_rectangles(rng):
    """The vectorised and the one-row rectangle sums of a summed-area
    table against slicing, and bitwise against each other."""
    matrix = rng.normal(size=(20, 20))
    tables = _sats([matrix])
    rl, rh, cl, ch = _random_rectangles(rng, 50, 20)
    batch = _corner_sum(tables, np.zeros(50, dtype=np.int64),
                        np.array((rh, ch)) + 1, np.array((rl, cl)))
    for k in range(50):
        expected = matrix[rl[k]:rh[k] + 1, cl[k]:ch[k] + 1].sum()
        one = _rect_sum_one(tables, 0, int(rl[k]), int(rh[k]), int(cl[k]),
                            int(ch[k]))
        assert one == pytest.approx(expected, abs=1e-9)
        assert np.array_equal(batch[k:k + 1], [one])


def test_sat_rect_sum_empty_rectangle_is_zero(rng):
    tables = _sats([rng.normal(size=(8, 8))])
    assert _rect_sum_one(tables, 0, 5, 4, 0, 7) == 0.0
    assert _rect_sum_one(tables, 0, 0, 7, 6, 2) == 0.0
    empty = _corner_sum(tables, np.zeros(2, dtype=np.int64),
                        np.array(((5, 8), (8, 3))), np.array(((5, 0), (0, 6))))
    assert np.array_equal(empty, [0.0, 0.0])


# ----------------------------------------------------------------------
# Grid answering: prefix-sum lookups vs the cell loops
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
            grid1d_range_loop(grid, low, high), abs=1e-9)


@pytest.mark.parametrize("domain_size,granularity", [
    (16, 4), (64, 8), (16, 16), (100, 10), (60, 12), (32, 1),
])
def test_grid2d_engine_matches_loop(rng, domain_size, granularity):
    grid = Grid2D((0, 1), domain_size, granularity)
    grid.set_frequencies(rng.normal(size=(granularity, granularity)))
    matrix = rng.normal(size=(domain_size, domain_size))
    for _ in range(60):
        row_low = int(rng.integers(0, domain_size))
        row_high = int(rng.integers(row_low, domain_size))
        col_low = int(rng.integers(0, domain_size))
        col_high = int(rng.integers(col_low, domain_size))
        intervals = ((row_low, row_high), (col_low, col_high))
        # Uniformity rule (TDG)
        assert grid.answer_range(*intervals) == pytest.approx(
            grid2d_range_loop(grid, *intervals), abs=1e-9)
        # Response-matrix rule (HDG)
        expected = grid2d_range_loop(grid, *intervals, response_matrix=matrix)
        assert grid.answer_range(*intervals, response_matrix=matrix) == \
            pytest.approx(expected, abs=1e-9)


def test_stack_batch_matches_loop(rng):
    """Vectorised rows of a stack of two grids, each with its response
    matrix, against the cell loop of the grid each row names."""
    grids, matrices = [], []
    for _ in range(2):
        grid = Grid2D((0, 1), 32, 8)
        grid.set_frequencies(rng.normal(size=(8, 8)))
        grids.append(grid)
        matrices.append(rng.normal(size=(32, 32)))
    stack = PrefixStack2D([grid.frequencies for grid in grids], 4, matrices)
    at = rng.integers(0, 2, size=40)
    row_lows, row_highs, col_lows, col_highs = _random_rectangles(rng, 40, 32)
    batch = stack.answer(at, row_lows, row_highs, col_lows, col_highs)
    for position in range(40):
        expected = grid2d_range_loop(
            grids[at[position]], (row_lows[position], row_highs[position]),
            (col_lows[position], col_highs[position]),
            response_matrix=matrices[at[position]])
        assert batch[position] == pytest.approx(expected, abs=1e-9)


def test_grid_index_invalidated_on_set_frequencies(rng):
    grid = Grid1D(0, 16, 4)
    grid.set_frequencies(np.array([0.1, 0.2, 0.3, 0.4]))
    assert grid.answer_range(0, 7) == pytest.approx(0.3)
    grid.set_frequencies(np.array([0.4, 0.3, 0.2, 0.1]))
    assert grid.answer_range(0, 7) == pytest.approx(0.7)


def test_prefix_index_classes_are_consistent(rng):
    """The full domain holds the whole mass, and the 2-D partial sums
    match slicing."""
    frequencies = rng.normal(size=6)
    stack = PrefixStack1D([frequencies], cell_width=5)
    assert stack.answer_one(0, 0, 29) == pytest.approx(frequencies.sum())
    frequencies_2d = rng.normal(size=(4, 4))
    stack_2d = PrefixStack2D([frequencies_2d], cell_width=3)
    assert stack_2d.answer_one(0, 0, 11, 0, 11) == pytest.approx(
        frequencies_2d.sum())
    _, (row_cum,), (col_cum,), (padded,) = _tables_2d([frequencies_2d])
    expected = np.pad(frequencies_2d, ((0, 1), (0, 1)))
    assert np.array_equal(padded, expected)
    for i in range(5):
        for j in range(5):
            assert row_cum[i, j] == pytest.approx(expected[i, :j].sum(),
                                                  abs=1e-12)
            assert col_cum[i, j] == pytest.approx(expected[:i, j].sum(),
                                                  abs=1e-12)


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


# ----------------------------------------------------------------------
# Mechanisms: compiled path vs the reference loops on one fitted state
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
    # the reference loops first freezes those caches, after which the
    # compiled path must reproduce the identical answers.
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


# ----------------------------------------------------------------------
# Staleness and RNG-order regressions (from review)
# ----------------------------------------------------------------------
def test_hio_fresh_instances_agree_across_engines(rng):
    # Regression: the bucketed path used to materialise levels in a
    # different RNG order than the per-combination loop, so two *fresh*
    # fitted instances with the same seed disagreed.
    dataset = Dataset(rng.integers(0, 64, size=(2_000, 3)), 64)
    queries = mixed_workload(3, 64, per_dimension=4, dimensions=(2, 3))
    legacy = HIO(1.0, materialize_limit=256, seed=7).fit(dataset)
    batch = HIO(1.0, materialize_limit=256, seed=7).fit(dataset)
    np.testing.assert_allclose(batch.answer_workload(queries),
                               loop_answers(legacy, queries),
                               rtol=0.0, atol=1e-9)


def test_lhio_fresh_instances_agree_across_engines(rng):
    # Same regression for LHIO's lazy levels: with lazy groups present the
    # compiled path must keep strict workload order so the RNG stream
    # matches.
    dataset = Dataset(rng.integers(0, 64, size=(2_000, 3)), 64)
    queries = mixed_workload(3, 64, per_dimension=4, dimensions=(1, 2, 3))
    legacy = LHIO(1.0, materialize_limit=256, seed=7).fit(dataset)
    batch = LHIO(1.0, materialize_limit=256, seed=7).fit(dataset)
    np.testing.assert_allclose(batch.answer_workload(queries),
                               loop_answers(legacy, queries),
                               rtol=0.0, atol=1e-9)


def test_grid_frequencies_are_read_only(rng):
    # The public array is a read-only view: edits go through
    # set_frequencies or the in-place handle, which a fitted
    # mechanism's grids refuse.
    grid = Grid1D(0, 16, 4)
    grid.set_frequencies(np.array([0.1, 0.2, 0.3, 0.4]))
    with pytest.raises(ValueError):
        grid.frequencies[0] = 1.0
    grid_2d = Grid2D((0, 1), 16, 4)
    with pytest.raises(ValueError):
        grid_2d.frequencies[0, 0] = 1.0
    # A lone grid's in-place handle works and is answered from.
    assert grid.answer_range(0, 3) == pytest.approx(0.1)
    grid.mutable_frequencies()[0] = 0.9
    assert grid.answer_range(0, 3) == pytest.approx(0.9)


def test_hdg_response_matrix_replacement_not_stale(rng):
    """A fitted HDG refuses a replaced or edited response matrix, so its
    answers stay those of the matrices its tables were built from."""
    dataset = Dataset(rng.integers(0, 16, size=(4_000, 2)), 16)
    mechanism = HDG(1.0, granularities=(4, 2), seed=0).fit(dataset)
    key = (0, 1)
    query = RangeQuery.from_dict({0: (1, 9), 1: (2, 13)})
    before = mechanism.answer_workload([query])
    with pytest.raises(TypeError):
        mechanism.response_matrices[key] = np.full((16, 16), 1.0 / 256)
    with pytest.raises(ValueError):
        mechanism.response_matrices[key][:] = 1.0 / 256
    assert np.array_equal(mechanism.answer_workload([query]), before)
    expected = grid2d_range_loop(
        mechanism.grids_2d[key], (1, 9), (2, 13),
        response_matrix=mechanism.response_matrices[key])
    assert mechanism.answer(query) == pytest.approx(expected, abs=1e-9)
    assert before[0] == pytest.approx(expected, abs=1e-9)
