"""Tests for Phase 2 (negativity and inconsistency removal)."""

import numpy as np
import pytest

from repro.core import run_phase2
from repro.core.phase2 import attribute_pairs
from repro.postprocess import enforce_consistency, norm_sub_rows


def _noisy_grids(rng, c=16, g1=8, g2=4, d=3, noise=0.05):
    """Noisy 1-D and 2-D layer arrays around a common random joint:
    ``(singles (d, g1), pair grids (n_pairs, g2, g2), pairs)``."""
    joint = rng.random((c,) * d)
    joint /= joint.sum()
    singles = np.empty((d, g1))
    for attribute in range(d):
        axis_sum = joint.sum(axis=tuple(a for a in range(d) if a != attribute))
        cells = axis_sum.reshape(g1, -1).sum(axis=1)
        singles[attribute] = cells + rng.normal(0, noise, g1)
    pairs = [(a, b) for a in range(d) for b in range(a + 1, d)]
    pair_grids = np.empty((len(pairs), g2, g2))
    for index, (a, b) in enumerate(pairs):
        pair_joint = joint.sum(axis=tuple(x for x in range(d)
                                          if x not in (a, b)))
        w = c // g2
        cells = pair_joint.reshape(g2, w, g2, w).sum(axis=(1, 3))
        pair_grids[index] = cells + rng.normal(0, noise, (g2, g2))
    return singles, pair_grids, pairs


def test_norm_sub_applied_to_all_grids(rng):
    singles, pair_grids, _ = _noisy_grids(rng)
    norm_sub_rows(singles)
    norm_sub_rows(pair_grids.reshape(len(pair_grids), -1))
    for grid in [*singles, *pair_grids]:
        assert (grid >= 0).all()
        assert grid.sum() == pytest.approx(1.0)


def test_attribute_views_counts(rng):
    _, _, pairs = _noisy_grids(rng, d=4)
    second, first = attribute_pairs(pairs, 1)
    # One 1-D grid plus three 2-D grids contain attribute 1.
    assert 1 + len(second) + len(first) == 4
    assert [pairs[index] for index in second + first] == [(0, 1), (1, 2),
                                                          (1, 3)]


def test_attribute_views_requires_aligned_granularities(rng):
    _, pair_grids, pairs = _noisy_grids(rng, g2=8)
    with pytest.raises(ValueError, match="not a multiple"):
        run_phase2(3, np.zeros((3, 4)), pair_grids, pairs)


def test_consistency_aligns_marginals(rng):
    singles, pair_grids, pairs = _noisy_grids(rng)
    norm_sub_rows(singles)
    norm_sub_rows(pair_grids.reshape(len(pair_grids), -1))
    for attribute in range(3):
        enforce_consistency(singles[attribute], pair_grids,
                            *attribute_pairs(pairs, attribute), n_buckets=4)
    # After the consistency step, the bucket totals of attribute 0 agree
    # between its 1-D grid and both 2-D grids containing it.
    one_d = singles[0].reshape(4, 2).sum(axis=1)
    from_01 = pair_grids[pairs.index((0, 1))].sum(axis=1)
    from_02 = pair_grids[pairs.index((0, 2))].sum(axis=1)
    np.testing.assert_allclose(one_d, from_01, atol=1e-9)
    np.testing.assert_allclose(one_d, from_02, atol=1e-9)


def test_run_phase2_ends_non_negative_and_normalised(rng):
    singles, pair_grids, pairs = _noisy_grids(rng, noise=0.2)
    run_phase2(3, singles, pair_grids, pairs, rounds=3)
    for grid in [*singles, *pair_grids]:
        assert (grid >= -1e-12).all()
        assert grid.sum() == pytest.approx(1.0, abs=1e-6)


def test_run_phase2_reduces_error_towards_truth(rng):
    # Phase 2 should not hurt (and typically helps) the grid estimates.
    c, g1, g2, d = 16, 8, 4, 3
    joint = rng.random((c,) * d)
    joint /= joint.sum()
    errors_before, errors_after = [], []
    for seed in range(5):
        local = np.random.default_rng(seed)
        singles, pair_grids, pairs = _noisy_grids(local, c=c, g1=g1, g2=g2,
                                                  d=d, noise=0.08)
        # Truth for the (0, 1) pair at grid granularity.
        pair_joint = joint.sum(axis=2)
        w = c // g2
        truth = pair_joint.reshape(g2, w, g2, w).sum(axis=(1, 3))
        errors_before.append(np.abs(pair_grids[0] - truth).mean())
        run_phase2(d, singles, pair_grids, pairs, rounds=3)
        errors_after.append(np.abs(pair_grids[0] - truth).mean())
    assert np.mean(errors_after) < np.mean(errors_before) * 1.05


def test_run_phase2_works_without_1d_grids(rng):
    # TDG calls Phase 2 with 2-D grids only.
    _, pair_grids, pairs = _noisy_grids(rng)
    run_phase2(3, None, pair_grids, pairs, rounds=2)
    for grid in pair_grids:
        assert grid.sum() == pytest.approx(1.0, abs=1e-6)


def test_run_phase2_rejects_bad_rounds(rng):
    singles, pair_grids, pairs = _noisy_grids(rng)
    with pytest.raises(ValueError):
        run_phase2(3, singles, pair_grids, pairs, rounds=0)
