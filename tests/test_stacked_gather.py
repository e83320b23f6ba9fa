"""Stacked-table gathers against the one-row kernels, bit for bit.

A compiled plan has one attribute block and one pair block (the λ = 2
primitives plus the C(λ,2) sub-pairs of λ > 2 primitives).  TDG and HDG
answer each block with one gather over tables stacked along a grid
axis, or row by row on Python scalars when the block has at most
``SCALAR_ROWS`` rows.  Every block row here is compared with
``np.array_equal`` against the one-row kernels ``PrefixIndex1D.answer_one``,
``PrefixIndex2D.answer_uniform_one`` and ``answer_response_one``, run on
per-grid tables built afresh from the mechanism's current frequencies
and response matrices.  The pair of every row is decoded here, from the
colex order of the stack, and the pair of every query from the query
itself, so a wrong slot, a wrong fold or a missing orientation swap
shows as a differing bit.
"""

from itertools import combinations

import numpy as np
import pytest

from repro.baselines import CALM
from repro.core import (HDG, IHDG, ITDG, TDG, PrefixIndex1D, PrefixIndex2D,
                        SummedAreaTable, estimate_lambda_query)
from repro.core.prefix_sum import SCALAR_ROWS
from repro.datasets import make_dataset
from repro.queries import (MarginalQuery, Predicate, RangeQuery,
                           WorkloadGenerator)
from repro.serving import restore_mechanism

D, C = 4, 16
NAMES = ["HDG", "TDG", "IHDG", "ITDG", "CALM"]
FACTORIES = {cls.__name__: cls for cls in (HDG, TDG, IHDG, ITDG, CALM)}
#: Cell widths 6 and 12 (domain 24): division by a width that is not a
#: power of two rounds, so the fold order of ``/ w`` shows.
ODD_WIDTHS = {"HDG w=6": lambda: HDG(1.0, granularities=(4, 2), seed=3),
              "TDG w=6": lambda: TDG(1.0, granularity=4, seed=3)}
ALL = NAMES + list(ODD_WIDTHS)
#: Pair of each stack slot: colex order, (0, 1), (0, 2), (1, 2), (0, 3), ...
SLOT_PAIRS = sorted(combinations(range(D), 2), key=lambda pair: pair[::-1])


def dataset(seed=5, n_users=3_000, domain_size=C):
    return make_dataset("normal", n_users, D, domain_size,
                        rng=np.random.default_rng(seed))


@pytest.fixture(scope="module")
def fitted():
    mechanisms = {name: FACTORIES[name](1.0, seed=3).fit(dataset())
                  for name in NAMES}
    for name, factory in ODD_WIDTHS.items():
        mechanisms[name] = factory().fit(dataset(domain_size=24))
    return mechanisms


# ----------------------------------------------------------------------
# References: the one-row kernels on freshly built per-grid tables
# ----------------------------------------------------------------------
def pair_grids(mechanism):
    return (mechanism.grids_2d if isinstance(mechanism, HDG)
            else mechanism.grids)


def reference_pair(mechanism, pair, row, col) -> float:
    """Pair ``pair`` (smaller attribute first) over rows x columns."""
    grid = pair_grids(mechanism)[pair]
    index = PrefixIndex2D(np.array(grid.frequencies), grid.cell_width)
    if isinstance(mechanism, HDG):
        response = SummedAreaTable(mechanism.response_matrices[pair])
        return index.answer_response_one(response, *row, *col)
    return index.answer_uniform_one(*row, *col)


def reference_attribute(mechanism, attribute, low, high) -> float:
    """HDG: the 1-D grid.  TDG: pair (attribute, other), the other
    attribute over its whole domain; attribute ``a > 0`` reads pair
    ``(0, a)`` with its interval on the column axis."""
    if isinstance(mechanism, HDG):
        grid = mechanism.grids_1d[attribute]
        index = PrefixIndex1D(np.array(grid.frequencies), grid.cell_width)
        return index.answer_one(low, high)
    full = (0, mechanism._domain_size - 1)
    if attribute == 0:
        return reference_pair(mechanism, (0, 1), (low, high), full)
    return reference_pair(mechanism, (0, attribute), full, (low, high))


def reference(mechanism, query: RangeQuery) -> float:
    """A range primitive's answer; λ > 2 through sequential Algorithm 2."""
    predicates = query.predicates
    if len(predicates) == 1:
        (only,) = predicates
        return reference_attribute(mechanism, only.attribute, only.low,
                                   only.high)
    if len(predicates) == 2:
        first, second = predicates
        return reference_pair(mechanism, (first.attribute, second.attribute),
                              (first.low, first.high),
                              (second.low, second.high))
    return estimate_lambda_query(
        query, lambda sub: reference(mechanism, sub),
        method=mechanism.estimation_method,
        max_iterations=mechanism.estimation_iterations)


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------
def assert_blocks_match(mechanism, compiled):
    """Every row of both blocks equals its one-row reference."""
    singles, pairs = compiled.singles, compiled.pairs
    if singles.positions.size:
        got = mechanism._answer_attributes(singles.attributes, singles.lows,
                                           singles.highs)
        expected = [reference_attribute(mechanism, *row) for row in zip(
            singles.attributes.tolist(), singles.lows.tolist(),
            singles.highs.tolist())]
        assert np.array_equal(got, np.array(expected))
    if pairs.positions.size:
        got = mechanism._answer_pairs(pairs.pairs, pairs.row_lows,
                                      pairs.row_highs, pairs.col_lows,
                                      pairs.col_highs)
        expected = [
            reference_pair(mechanism, SLOT_PAIRS[slot], (rl, rh), (cl, ch))
            for slot, rl, rh, cl, ch in zip(
                pairs.pairs.tolist(), pairs.row_lows.tolist(),
                pairs.row_highs.tolist(), pairs.col_lows.tolist(),
                pairs.col_highs.tolist())]
        assert np.array_equal(got, np.array(expected))


def assert_answers_match(mechanism, queries, sample=None):
    """Both blocks row by row, then the plan's primitive answers (all, or
    every ``sample``-th) against the references of the primitives."""
    compiled = mechanism._plan_for(queries)
    assert_blocks_match(mechanism, compiled)
    answers = mechanism._answer_compiled(compiled)
    primitives = compiled.flat_ranges
    for position in range(0, len(primitives), sample or 1):
        assert np.array_equal(
            answers[position:position + 1],
            [reference(mechanism, primitives[position])]), primitives[position]
    return answers


def ranges(dimension, n, seed, domain_size=C):
    generator = WorkloadGenerator(D, domain_size,
                                  rng=np.random.default_rng(seed))
    return generator.random_workload(n, dimension, 0.5)


# ----------------------------------------------------------------------
# Block sizes on both sides of SCALAR_ROWS
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("n_rows", [1, SCALAR_ROWS, SCALAR_ROWS + 1, 3_000])
def test_pair_block_rows_match_one_row_kernels(fitted, name, n_rows):
    mechanism = fitted[name]
    queries = ranges(2, n_rows, seed=n_rows,
                     domain_size=mechanism._domain_size)
    assert mechanism._plan_for(queries).pairs.positions.size == n_rows
    assert_answers_match(mechanism, queries)


@pytest.mark.parametrize("name", ALL)
@pytest.mark.parametrize("n_rows", [1, SCALAR_ROWS, SCALAR_ROWS + 1, 3_000])
def test_attribute_block_rows_match_one_row_kernels(fitted, name, n_rows):
    mechanism = fitted[name]
    queries = ranges(1, n_rows, seed=10 + n_rows,
                     domain_size=mechanism._domain_size)
    assert mechanism._plan_for(queries).singles.positions.size == n_rows
    assert_answers_match(mechanism, queries)


@pytest.mark.parametrize("name", NAMES)
def test_attribute_rows_read_the_transposed_pair(fitted, name):
    """Attribute 3 alone: TDG reads pair (0, 3) with the interval on
    its column axis.  Rows on both sides of SCALAR_ROWS."""
    mechanism = fitted[name]
    intervals = [(low, high) for low in range(C) for high in range(low, C)]
    for n_rows in (3, len(intervals)):
        queries = [RangeQuery((Predicate(3, low, high),))
                   for low, high in intervals[:n_rows]]
        answers = assert_answers_match(mechanism, queries)
        if not isinstance(mechanism, HDG):
            grid = mechanism.grids[(0, 3)]
            index = PrefixIndex2D(np.array(grid.frequencies), grid.cell_width)
            assert np.array_equal(answers, [
                index.answer_uniform_one(0, C - 1, low, high)
                for low, high in intervals[:n_rows]])


# ----------------------------------------------------------------------
# Plan shapes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", NAMES)
def test_sub_pairs_share_the_block_with_direct_pairs(fitted, name):
    mechanism = fitted[name]
    workload = [query for seed in range(8)
                for dimension in (1, 2, 3, 4)
                for query in ranges(dimension, 3, seed=100 + seed)]
    compiled = mechanism._plan_for(workload)
    n_direct = sum(query.dimension == 2 for query in workload)
    assert compiled.pairs.positions.size > n_direct
    assert (compiled.pairs.positions >= compiled.n_primitives).any()
    assert_answers_match(mechanism, workload)
    # The same λ = 3 range alone: three sub-pair rows, gathered row by row.
    position = [query.dimension for query in workload].index(3)
    alone = [workload[position]]
    assert mechanism._plan_for(alone).pairs.positions.size == 3
    assert np.array_equal(
        assert_answers_match(mechanism, alone),
        mechanism.answer_workload(workload)[position:position + 1])


@pytest.mark.parametrize("name", NAMES)
def test_table_only_plans(fitted, name):
    mechanism = fitted[name]
    tables = [MarginalQuery((2,)), MarginalQuery((0, 3)),
              MarginalQuery((1,)), MarginalQuery((1, 2))]
    compiled = mechanism._plan_for(tables)
    assert compiled.singles.positions.size == 2 * C
    assert compiled.pairs.positions.size == 2 * C * C
    assert_answers_match(mechanism, tables)
    # A λ = 3 table: C³ cells, three sub-pair rows each, one block.
    cube = [MarginalQuery((0, 1, 3))]
    assert mechanism._plan_for(cube).pairs.positions.size == 3 * C ** 3
    assert_answers_match(mechanism, cube, sample=97)


# ----------------------------------------------------------------------
# Stale stacks
# ----------------------------------------------------------------------
def stale_workload():
    return ranges(1, 40, seed=7) + ranges(2, 40, seed=8) + ranges(3, 5, seed=9)


def assert_stale_answers_match(mechanism, workload):
    """The workload (blocks past SCALAR_ROWS) and a lone λ = 2 and λ = 3
    query (scalar rows) against the references."""
    assert_answers_match(mechanism, workload[40:41])
    assert_answers_match(mechanism, workload[-1:])
    return assert_answers_match(mechanism, workload)


@pytest.mark.parametrize("name", NAMES)
def test_set_frequencies_after_a_first_answer(rng, name):
    mechanism = FACTORIES[name](1.0, seed=3).fit(dataset())
    workload = stale_workload()
    before = assert_answers_match(mechanism, workload)
    for grid in pair_grids(mechanism).values():
        grid.set_frequencies(rng.random(grid.frequencies.shape))
    if isinstance(mechanism, HDG):
        mechanism.grids_1d[2].set_frequencies(
            rng.random(mechanism.grids_1d[2].frequencies.shape))
    after = assert_stale_answers_match(mechanism, workload)
    assert not np.array_equal(before, after)


@pytest.mark.parametrize("name", ["HDG", "IHDG"])
def test_replaced_response_matrix(rng, name):
    mechanism = FACTORIES[name](1.0, seed=3).fit(dataset())
    workload = stale_workload()
    before = assert_answers_match(mechanism, workload)
    mechanism.response_matrices[(1, 3)] = rng.random((C, C)) / (C * C)
    after = assert_stale_answers_match(mechanism, workload)
    assert not np.array_equal(before, after)


@pytest.mark.parametrize("name", NAMES)
def test_refinalize(name):
    """Fitting again re-finalizes the same instance over new grids."""
    mechanism = FACTORIES[name](1.0, seed=3).fit(dataset(seed=1))
    workload = stale_workload()
    before = assert_answers_match(mechanism, workload)
    mechanism.fit(dataset(seed=2))
    after = assert_stale_answers_match(mechanism, workload)
    assert not np.array_equal(before, after)


@pytest.mark.parametrize("name", NAMES)
def test_restore(fitted, name):
    mechanism = fitted[name]
    workload = stale_workload()
    restored = restore_mechanism(mechanism.save_state())
    assert np.array_equal(assert_stale_answers_match(restored, workload),
                          mechanism.answer_workload(workload))
