"""Tests for the cross-grid consistency step.

An attribute's views are its 1-D grid (a row of the 1-D layer, or None)
and the rows of the 2-D layer holding it second (reduced along axis 1)
or first (axis 0).
"""

import numpy as np
import pytest

from repro.postprocess import bucket_totals, enforce_consistency

NO_PAIRS = np.zeros((0, 2, 2))


def test_bucket_totals_1d_view():
    frequencies = np.array([0.1, 0.2, 0.3, 0.4])
    totals = bucket_totals(frequencies, NO_PAIRS, [], [], 2)
    np.testing.assert_allclose(totals, [[0.3, 0.7]])


def test_bucket_totals_2d_view_axis0():
    pairs = np.arange(4, dtype=float).reshape(1, 2, 2)
    np.testing.assert_allclose(bucket_totals(None, pairs, [], [0], 2),
                               [[1.0, 5.0]])


def test_bucket_totals_2d_view_axis1():
    pairs = np.arange(4, dtype=float).reshape(1, 2, 2)
    np.testing.assert_allclose(bucket_totals(None, pairs, [0], [], 2),
                               [[2.0, 4.0]])


def test_bucket_totals_shape_mismatch():
    with pytest.raises(ValueError):
        bucket_totals(np.zeros(3), NO_PAIRS, [], [], 2)


def test_consistency_makes_views_agree():
    # Two 2-D grids sharing an attribute along axis 0 with conflicting
    # marginals for that attribute.
    pairs = np.array([[[0.3, 0.1], [0.2, 0.4]],
                      [[0.1, 0.1], [0.5, 0.3]]])
    consensus = enforce_consistency(None, pairs, [], [0, 1], n_buckets=2)
    np.testing.assert_allclose(pairs[0].sum(axis=1), consensus)
    np.testing.assert_allclose(pairs[1].sum(axis=1), consensus)


def test_consistency_preserves_total_mass():
    pairs = np.array([[[0.3, 0.1], [0.2, 0.4]],
                      [[0.1, 0.1], [0.5, 0.3]]])
    total_before = pairs.sum()
    enforce_consistency(None, pairs, [], [0, 1], n_buckets=2)
    assert pairs.sum() == pytest.approx(total_before)


def test_weighted_average_prefers_lower_variance_view():
    # A 1-D grid (2 cells per bucket total) versus a wide 2-D grid
    # (4 cells per bucket): the 1-D view has fewer contributing cells and
    # should dominate the consensus.
    grid_1d = np.array([0.1, 0.1, 0.4, 0.4, 0.0, 0.0, 0.0, 0.0])
    pairs = np.full((1, 4, 4), 0.0625)
    consensus = enforce_consistency(grid_1d, pairs, [], [0], n_buckets=4)
    # Weights: 1-D grid |S| = 2 -> weight 2/3, 2-D grid |S| = 4 -> 1/3.
    expected_first = (2 / 3) * 0.2 + (1 / 3) * 0.25
    assert consensus[0] == pytest.approx(expected_first)


def test_consistency_with_single_view_is_identity():
    pairs = np.full((1, 2, 2), 0.25)
    consensus = enforce_consistency(None, pairs, [], [0], n_buckets=2)
    np.testing.assert_allclose(consensus, [0.5, 0.5])
    np.testing.assert_allclose(pairs, 0.25)


def test_empty_views_rejected():
    with pytest.raises(ValueError):
        enforce_consistency(None, NO_PAIRS, [], [], n_buckets=2)
