"""Property tests: a one-row gather is bitwise equal to its batched row.

A gather of at most ``SCALAR_ROWS`` rows is answered on Python scalars
(``PrefixIndex1D.answer_one``, ``PrefixIndex2D.answer_uniform_one`` and
``answer_response_one``); larger ones run the vectorised NumPy rules.
An answer must not depend on which of the two produced it, so every
check here is ``np.array_equal`` between a lone query and the same query
inside a multi-row call: for the 1-D uniformity rule, the TDG 2-D
uniformity rule and the HDG response-matrix rule, at granularity 1, an
interior granularity and full resolution, with empty full-cell blocks,
single values, the full domain and both domain edges among the
intervals.
"""

import numpy as np
import pytest

from repro.baselines import CALM
from repro.core import (HDG, IHDG, ITDG, TDG, Grid1D, Grid2D,
                        SummedAreaTable)
from repro.core.prefix_sum import SCALAR_ROWS
from repro.datasets import make_dataset
from repro.queries import Predicate, RangeQuery

#: Domain size -> an interior granularity.  60 gives a cell width (12)
#: that is not a power of two, so division by ``w`` rounds.
INTERIOR = {8: 4, 60: 5, 64: 8}
DOMAINS = tuple(INTERIOR)


def granularities(domain_size):
    """1, an interior granularity, and full resolution."""
    return (1, INTERIOR[domain_size], domain_size)


def intervals(domain_size, cell_width, rng, n_random=24):
    """Edge cases first, then random intervals, all inclusive and valid."""
    c, w = domain_size, cell_width
    cases = [(0, c - 1), (0, 0), (c - 1, c - 1), (c // 2, c // 2),
             (0, c // 2), (c // 2, c - 1)]
    if w > 1:
        # Inside one cell, and across one cell boundary: no full cell.
        cases += [(1, w - 1), (w - 1, w), (w, 2 * w - 2)]
    if w > 2:
        cases.append((1, w - 2))
    cases = [(low, high) for low, high in cases if high < c]
    for _ in range(n_random):
        low = int(rng.integers(0, c))
        cases.append((low, int(rng.integers(low, c))))
    return cases


def endpoint_arrays(pairs):
    lows, highs = zip(*pairs)
    return np.array(lows), np.array(highs)


def assert_rows_match(batch, one_row):
    """Every one-row result equals its row of the batch, bit for bit."""
    assert batch.shape == (len(one_row),)
    for position, answer in enumerate(one_row):
        assert np.array_equal(answer, batch[position:position + 1]), position


@pytest.mark.parametrize("domain_size", DOMAINS)
def test_grid1d_one_row_equals_batch(rng, domain_size):
    for granularity in granularities(domain_size):
        grid = Grid1D(0, domain_size, granularity)
        grid.set_frequencies(rng.normal(size=granularity))
        cases = intervals(domain_size, grid.cell_width, rng)
        lows, highs = endpoint_arrays(cases)
        batch = grid.answer_ranges(lows, highs)
        assert_rows_match(batch, [
            grid.answer_ranges(lows[i:i + 1], highs[i:i + 1])
            for i in range(len(cases))])
        assert_rows_match(batch, [
            np.array([grid.answer_range(low, high)]) for low, high in cases])


@pytest.mark.parametrize("rule", ["uniform", "response"])
@pytest.mark.parametrize("domain_size", DOMAINS)
def test_grid2d_one_row_equals_batch(rng, domain_size, rule):
    for granularity in granularities(domain_size):
        grid = Grid2D((0, 1), domain_size, granularity)
        grid.set_frequencies(rng.normal(size=(granularity, granularity)))
        index = (SummedAreaTable(rng.normal(size=(domain_size,) * 2))
                 if rule == "response" else None)
        rows = intervals(domain_size, grid.cell_width, rng, n_random=6)
        cols = intervals(domain_size, grid.cell_width, rng, n_random=6)
        cases = [(row, col) for row in rows for col in cols]
        row_lows, row_highs = endpoint_arrays([row for row, _ in cases])
        col_lows, col_highs = endpoint_arrays([col for _, col in cases])
        batch = grid.answer_ranges(row_lows, row_highs, col_lows, col_highs,
                                   response_index=index)
        assert_rows_match(batch, [
            grid.answer_ranges(row_lows[i:i + 1], row_highs[i:i + 1],
                               col_lows[i:i + 1], col_highs[i:i + 1],
                               response_index=index)
            for i in range(len(cases))])
        assert_rows_match(batch, [
            np.array([grid.answer_range(row, col, response_index=index)])
            for row, col in cases])


@pytest.fixture(scope="module")
def fitted():
    dataset = make_dataset("normal", 3_000, 4, 16,
                           rng=np.random.default_rng(5))
    return {cls.__name__: cls(1.0, seed=3).fit(dataset)
            for cls in (HDG, TDG, IHDG, ITDG, CALM)}


@pytest.mark.parametrize("name", ["HDG", "TDG"])
def test_swapped_pair_key_one_row_equals_batch(rng, fitted, name):
    """A (column, row) key transposes onto the stored grid on both paths."""
    mechanism = fitted[name]
    rows = intervals(16, 4, rng, n_random=8)
    cols = intervals(16, 4, rng, n_random=8)
    row_lows, row_highs = endpoint_arrays(rows)
    col_lows, col_highs = endpoint_arrays(cols[:len(rows)])
    for a, b in ((0, 1), (1, 3), (0, 3)):
        forward = mechanism._fused_pair_ranges(
            (a, b), row_lows, row_highs, col_lows, col_highs)
        swapped = mechanism._fused_pair_ranges(
            (b, a), col_lows, col_highs, row_lows, row_highs)
        assert np.array_equal(forward, swapped)
        assert_rows_match(forward, [
            mechanism._fused_pair_ranges(
                (b, a), col_lows[i:i + 1], col_highs[i:i + 1],
                row_lows[i:i + 1], row_highs[i:i + 1])
            for i in range(len(rows))])
        assert_rows_match(forward, [
            np.array([mechanism._pair_answer(RangeQuery((
                Predicate(b, int(col_lows[i]), int(col_highs[i])),
                Predicate(a, int(row_lows[i]), int(row_highs[i])))))])
            for i in range(len(rows))])


def query(*triples):
    return RangeQuery(tuple(Predicate(*triple) for triple in triples))


@pytest.mark.parametrize("name", ["HDG", "TDG", "IHDG", "ITDG", "CALM"])
def test_mixed_plan_one_and_many_row_groups(fitted, name):
    """One workload whose attribute block is gathered row by row and
    whose pair block is gathered vectorised: every query's batched
    answer equals its answer alone."""
    mechanism = fitted[name]
    workload = [
        query((0, 0, 15)),                                  # attribute 0: 1 row
        query((1, 0, 0)), query((1, 3, 12)), query((1, 15, 15)),
        query((0, 2, 9), (3, 5, 5)),                        # pair (0, 3): 1 row
        query((1, 0, 15), (2, 0, 15)), query((1, 4, 7), (2, 8, 11)),
        query((1, 5, 6), (2, 1, 2)),                        # pair (1, 2): 3 rows
        query((0, 1, 14), (1, 2, 2), (2, 0, 7)),            # λ = 3: 1 row
        query((0, 0, 3), (1, 4, 9), (2, 6, 15), (3, 0, 0)),
        query((0, 8, 15), (1, 0, 0), (2, 3, 3), (3, 15, 15)),
        # Pair (1, 3): enough rows to push the pair block past K.
        *(query((1, low % 16, 15), (3, 0, low // 16))
          for low in range(SCALAR_ROWS)),
    ]
    compiled = mechanism._plan_for(workload)
    assert compiled.singles.positions.size <= SCALAR_ROWS
    assert compiled.pairs.positions.size > SCALAR_ROWS
    batched = mechanism.answer_workload(workload)
    for position, item in enumerate(workload):
        assert np.array_equal(mechanism.answer_workload([item]),
                              batched[position:position + 1]), item
