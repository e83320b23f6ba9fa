"""The layer arrays against the per-grid loops they replaced, bitwise.

TDG and HDG keep each grid layer as stacked arrays: ``partial_fit``
draws one batch's OLH supports with one binomial call, Phase 2 runs
Norm-Sub row-wise and the consistency step as one gather per attribute,
and HDG builds every response matrix in one Algorithm-1 sweep.  Each
must give exactly what the per-grid loops of ``tests/oracles.py`` give:
the same support counts, the same RNG stream position afterwards, the
same Phase-2 frequencies and the same matrices, iteration counts and
change histories.

The granularities (8, 2) through (32, 16) at c = 64 put 8 or more cells
in a reduction, NumPy's pairwise-sum branch, on contiguous views and on
the strided (axis-1) view of a lone 2-D grid (d = 2).
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import (GridView, enforce_attribute_consistency_by_shape,
                     partial_fit_loop, phase2_loop, response_matrix_loop)
from repro import CALM, HDG, IHDG, ITDG, TDG, make_dataset
from repro.core import run_phase2
from repro.core.response_matrix import build_response_matrices
from repro.frequency_oracles import OptimizedLocalHash
from repro.postprocess import enforce_consistency, norm_sub, norm_sub_rows

FACTORIES = {"TDG": TDG, "ITDG": ITDG, "HDG": HDG, "IHDG": IHDG,
             "CALM": CALM}

#: (mechanism, n, d, c, granularity keyword or None for the guideline).
CASES = [
    ("HDG", 20_000, 4, 64, (8, 2)),
    ("HDG", 20_000, 4, 64, (16, 4)),
    ("HDG", 20_000, 3, 64, (16, 8)),
    ("HDG", 20_000, 3, 64, (32, 16)),
    ("HDG", 5_000, 2, 64, (32, 16)),
    ("HDG", 5_000, 2, 64, (16, 8)),
    ("IHDG", 20_000, 4, 64, (16, 4)),
    ("HDG", 7, 5, 8, None),
    ("HDG", 3, 3, 8, (4, 2)),
    ("HDG", 3_001, 6, 16, None),
    ("TDG", 20_000, 4, 64, 16),
    ("TDG", 5_000, 2, 64, 16),
    ("TDG", 7, 5, 8, None),
    ("ITDG", 20_000, 4, 32, 8),
    ("CALM", 20_000, 4, 32, None),
    ("CALM", 5_000, 3, 16, None),
]


def build(name, granularity, **kwargs):
    keyword = "granularities" if name.endswith("HDG") else "granularity"
    if granularity is not None:
        kwargs[keyword] = granularity
    return FACTORIES[name](1.0, **kwargs)


def case_id(case):
    name, n, d, c, granularity = case
    return f"{name}-n{n}-d{d}-c{c}-{granularity}"


def batches(n, d, c, seed, n_batches=3):
    dataset = make_dataset("normal", n, d, c, rng=np.random.default_rng(seed))
    bounds = np.linspace(0, n, n_batches + 1).astype(int)
    return [dataset.subset(np.arange(low, high))
            for low, high in zip(bounds[:-1], bounds[1:]) if high > low]


def assert_layers_equal(left, right):
    assert left._layers.keys() == right._layers.keys()
    for dimension, layer in left._layers.items():
        other = right._layers[dimension]
        assert layer.keys == other.keys
        assert np.array_equal(layer.supports, other.supports)
        assert np.array_equal(layer.n_reports, other.n_reports)


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_partial_fit_matches_per_grid_draws(case):
    name, n, d, c, granularity = case
    stacked = build(name, granularity, seed=5)
    looped = build(name, granularity, seed=5)
    for batch in batches(n, d, c, seed=1):
        stacked.partial_fit(batch, total_users=n)
        partial_fit_loop(looped, batch, total_users=n)
        assert_layers_equal(stacked, looped)
    assert stacked.rng.random() == looped.rng.random()


@pytest.mark.parametrize("name", ["TDG", "HDG"])
def test_user_mode_writes_the_same_rows(name):
    granularity = (8, 4) if name == "HDG" else 4
    stacked = build(name, granularity, oracle_mode="user", seed=2)
    looped = build(name, granularity, oracle_mode="user", seed=2)
    for batch in batches(600, 3, 16, seed=4, n_batches=2):
        stacked.partial_fit(batch)
        partial_fit_loop(looped, batch)
        assert_layers_equal(stacked, looped)
    assert stacked.rng.random() == looped.rng.random()


def test_olh_accumulate_draws_two_calls_per_group():
    """A lone OLH group draws through the same stacked call."""
    values = np.random.default_rng(1).integers(0, 16, size=500)
    oracle = OptimizedLocalHash(1.0, 16, rng=np.random.default_rng(4))
    stream = np.random.default_rng(4)
    counts = np.bincount(values, minlength=16)
    expected = (stream.binomial(counts, oracle.p)
                + stream.binomial(values.size - counts, oracle.q_support))
    assert np.array_equal(oracle.accumulate(values).supports, expected)
    assert oracle.rng.random() == stream.random()


def raw_layers(name, granularity, n, d, c):
    """The debiased, un-post-processed frequencies of ``name``'s layers
    (its Phase-2-free twin collects the same draws)."""
    mechanism = build(name, granularity, seed=9, postprocess=False)
    mechanism.fit(make_dataset("normal", n, d, c,
                               rng=np.random.default_rng(3)))
    return {dimension: np.array(layer.frequencies)
            for dimension, layer in mechanism._layers.items()}


@pytest.mark.parametrize(
    "case", [case for case in CASES if case[0] in ("HDG", "TDG", "CALM")],
    ids=case_id)
def test_phase2_matches_per_grid_loop(case):
    name, n, d, c, granularity = case
    fitted = build(name, granularity, seed=9).fit(
        make_dataset("normal", n, d, c, rng=np.random.default_rng(3)))
    raw = raw_layers(name, granularity, n, d, c)
    pairs = fitted._layers[2].keys
    phase2_loop(d, raw.get(1), raw[2], pairs)
    for dimension, layer in fitted._layers.items():
        assert np.array_equal(layer.frequencies, raw[dimension])


@pytest.mark.parametrize(
    "case", [case for case in CASES if case[0].endswith("HDG")],
    ids=case_id)
def test_response_matrices_match_per_pair_loop(case):
    name, n, d, c, granularity = case
    fitted = build(name, granularity, seed=9).fit(
        make_dataset("normal", n, d, c, rng=np.random.default_rng(3)))
    threshold = min(fitted.convergence_threshold, 1.0 / n)
    for (a, b), matrix in fitted.response_matrices.items():
        expected, iterations, _, history = response_matrix_loop(
            fitted.grids_1d[a].frequencies, fitted.grids_1d[b].frequencies,
            fitted.grids_2d[(a, b)].frequencies, c, threshold=threshold,
            max_iterations=fitted.matrix_iterations)
        assert np.array_equal(matrix, expected)
        assert fitted.matrix_iteration_history[(a, b)] == history
        assert len(history) == iterations


def test_stacked_sweep_keeps_each_pairs_convergence():
    """Pairs converging at different sweeps, a zero grid, and a cap that
    stops some pairs unconverged."""
    rng = np.random.default_rng(8)
    c, g1, g2, n_pairs = 32, 8, 4, 7
    rows, cols = rng.random((n_pairs, g1)), rng.random((n_pairs, g1))
    pairs = rng.random((n_pairs, g2, g2))
    rows[2] = cols[2] = pairs[2] = 0.0
    pairs[3] = np.full((g2, g2), 1.0 / g2 ** 2)
    rows[3] = cols[3] = 1.0 / g1
    for stack in (rows, cols):
        stack /= np.maximum(stack.sum(axis=1, keepdims=True), 1e-300)
    pairs /= np.maximum(pairs.sum(axis=(1, 2), keepdims=True), 1e-300)
    for max_iterations in (0, 1, 6, 100):
        results = build_response_matrices(rows, cols, pairs, c,
                                          threshold=1e-9,
                                          max_iterations=max_iterations)
        counts = set()
        for index, result in enumerate(results):
            matrix, iterations, converged, history = response_matrix_loop(
                rows[index], cols[index], pairs[index], c, threshold=1e-9,
                max_iterations=max_iterations)
            assert np.array_equal(result.matrix, matrix)
            assert result.iterations == iterations
            assert result.converged == converged
            assert result.change_history == history
            counts.add(iterations)
        assert max_iterations < 6 or len(counts) > 1


def test_norm_sub_rows_is_norm_sub_per_row():
    rng = np.random.default_rng(6)
    rows = np.concatenate([rng.normal(0.05, 0.2, size=(40, 64)),
                           rng.normal(0.2, 0.3, size=(40, 9)).repeat(8, 1)[:, :64],
                           -np.abs(rng.random((3, 64))),
                           np.full((2, 64), 1.0 / 64)])
    expected = np.stack([norm_sub(row) for row in rows])
    norm_sub_rows(rows)
    assert np.array_equal(rows, expected)


@pytest.mark.parametrize("g1, g2, d", [(8, 2, 5), (16, 4, 4), (16, 8, 3),
                                       (32, 16, 3), (32, 16, 2), (16, 16, 2),
                                       (1, 1, 3)])
def test_consistency_matches_views_grouped_by_shape(g1, g2, d):
    rng = np.random.default_rng(g1 * 100 + g2 + d)
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    singles = rng.normal(size=(d, g1))
    pair_grids = rng.normal(size=(len(pairs), g2, g2))
    expected_singles, expected_pairs = singles.copy(), pair_grids.copy()
    phase2_loop(d, expected_singles, expected_pairs, pairs, rounds=2)
    run_phase2(d, singles, pair_grids, pairs, rounds=2)
    assert np.array_equal(singles, expected_singles)
    assert np.array_equal(pair_grids, expected_pairs)

    # One attribute's step on raw (not Norm-Sub'd) grids, TDG-style.
    grids = rng.normal(size=(len(pairs), g2, g2))
    expected = grids.copy()
    views = [GridView(expected[index], pair.index(0), 1)
             for index, pair in enumerate(pairs) if 0 in pair]
    if len(views) >= 2:
        consensus = enforce_attribute_consistency_by_shape(views, g2)
        first = [index for index, pair in enumerate(pairs) if pair[0] == 0]
        assert np.array_equal(
            enforce_consistency(None, grids, [], first, g2), consensus)
        assert np.array_equal(grids, expected)
