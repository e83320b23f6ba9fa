"""Tests for the Weighted Update estimation engine."""

import numpy as np
import pytest

from repro.core.query_estimation import lambda_constraint_index_sets
from repro.estimation import Constraint, weighted_update, weighted_update_batch
from repro.estimation.weighted_update import pairwise_sum


def test_single_constraint_is_satisfied_exactly():
    constraint = Constraint(indices=np.array([0, 1]), target=0.6)
    result = weighted_update(4, [constraint])
    assert result.estimate[[0, 1]].sum() == pytest.approx(0.6)
    assert result.converged


def test_marginal_constraints_reconstruct_product_distribution():
    # A 2x2 joint distribution constrained by its two marginals; weighted
    # update starting from uniform converges to the independent coupling.
    # Variables indexed as 2*a + b.
    row0 = Constraint(indices=np.array([0, 1]), target=0.3)
    row1 = Constraint(indices=np.array([2, 3]), target=0.7)
    col0 = Constraint(indices=np.array([0, 2]), target=0.4)
    col1 = Constraint(indices=np.array([1, 3]), target=0.6)
    result = weighted_update(4, [row0, row1, col0, col1], max_iterations=500)
    expected = np.array([0.3 * 0.4, 0.3 * 0.6, 0.7 * 0.4, 0.7 * 0.6])
    np.testing.assert_allclose(result.estimate, expected, atol=1e-4)


def test_convergence_flag_and_iteration_count():
    constraint = Constraint(indices=np.array([0]), target=0.5)
    result = weighted_update(2, [constraint], threshold=1e-12,
                             max_iterations=50)
    assert result.converged
    assert result.iterations <= 50


def test_non_convergence_when_iterations_exhausted():
    # An unattainable threshold exhausts the iteration budget.
    constraints = [Constraint(indices=np.array([0, 1]), target=0.5),
                   Constraint(indices=np.array([1, 2]), target=0.4)]
    result = weighted_update(3, constraints, threshold=-1.0, max_iterations=3)
    assert not result.converged
    assert result.iterations == 3


def test_history_tracking():
    constraints = [Constraint(indices=np.array([0, 1]), target=0.5),
                   Constraint(indices=np.array([1, 2]), target=0.5)]
    result = weighted_update(3, constraints, track_history=True,
                             max_iterations=20)
    assert len(result.change_history) == result.iterations
    # Change should shrink over sweeps.
    assert result.change_history[-1] <= result.change_history[0] + 1e-12


def test_zero_target_zeroes_entries():
    constraints = [Constraint(indices=np.array([0, 1]), target=0.0),
                   Constraint(indices=np.array([2, 3]), target=1.0)]
    result = weighted_update(4, constraints)
    assert result.estimate[0] == pytest.approx(0.0, abs=1e-12)
    assert result.estimate[2:].sum() == pytest.approx(1.0)


def test_initial_vector_respected():
    constraint = Constraint(indices=np.array([0, 1, 2, 3]), target=1.0)
    skewed = np.array([0.7, 0.1, 0.1, 0.1])
    result = weighted_update(4, [constraint], initial=skewed)
    # The constraint is already satisfied, so the skew is preserved.
    np.testing.assert_allclose(result.estimate, skewed)


def test_estimate_stays_non_negative():
    rng = np.random.default_rng(0)
    constraints = [Constraint(indices=rng.choice(8, size=3, replace=False),
                              target=float(rng.random())) for _ in range(6)]
    result = weighted_update(8, constraints, max_iterations=50)
    assert (result.estimate >= 0).all()


def test_invalid_inputs_rejected():
    with pytest.raises(ValueError):
        weighted_update(0, [Constraint(indices=np.array([0]), target=0.1)])
    with pytest.raises(ValueError):
        weighted_update(4, [])
    with pytest.raises(ValueError):
        Constraint(indices=np.array([]), target=0.5)
    with pytest.raises(ValueError):
        weighted_update(4, [Constraint(indices=np.array([0]), target=0.5)],
                        initial=np.zeros(3))


# ----------------------------------------------------------------------
# Batched kernel: every row bitwise equal to the sequential reference
# ----------------------------------------------------------------------
BATCH_HEIGHTS = (1, 2, 3, 17, 64)


def assert_rows_match_reference(size, index_sets, targets, rng, **controls):
    """Batches of every height, drawn from ``targets`` in a permuted
    order, reproduce :func:`weighted_update` on each row bit for bit."""
    expected = np.array([
        weighted_update(size, [Constraint(idx, target)
                               for idx, target in zip(index_sets, row)],
                        **controls).estimate
        for row in targets])
    for height in BATCH_HEIGHTS:
        rows = rng.permutation(len(targets))[:height]
        got = weighted_update_batch(size, index_sets, targets[rows],
                                    **controls)
        assert got.shape == (height, size)
        assert np.array_equal(got, expected[rows]), f"height {height}"


def lambda_targets(dimension, n_rows, rng):
    """Clipped pair answers of a noisy product distribution, plus the
    simplex normalisation — the shape Algorithm 2 feeds the kernel."""
    marginals = rng.uniform(0.05, 0.95, (n_rows, dimension))
    pairs = [(a, b) for a in range(dimension)
             for b in range(a + 1, dimension)]
    targets = np.ones((n_rows, len(pairs) + 1))
    for column, (a, b) in enumerate(pairs):
        noise = rng.normal(0.0, 0.05, n_rows)
        targets[:, column] = np.maximum(
            0.0, marginals[:, a] * marginals[:, b] + noise)
    return targets


def generic_index_sets(rng, size=64):
    """Random index sets plus a set nested inside a zero-target set (its
    sum is exactly 0 after the first update, so the skip branch runs)
    and one set repeating an index."""
    sets = [rng.choice(size, size=rng.integers(1, 40), replace=False)
            for _ in range(12)]
    outer = rng.choice(size, size=10, replace=False)
    sets += [outer, outer[:4], np.array([3, 5, 3, 9])]
    return sets


def generic_targets(n_sets, n_rows, rng):
    targets = rng.random((n_rows, n_sets))
    targets[:, -3] = 0.0  # the outer set: zeroes its entries
    return targets


@pytest.mark.parametrize("dimension", [3, 4, 5, 6, 7, 8])
def test_batch_rows_bitwise_match_reference_lambda_sets(dimension):
    rng = np.random.default_rng(100 + dimension)
    assert_rows_match_reference(1 << dimension,
                                lambda_constraint_index_sets(dimension),
                                lambda_targets(dimension, 64, rng), rng)


def test_batch_rows_bitwise_match_reference_generic_sets():
    rng = np.random.default_rng(7)
    index_sets = generic_index_sets(rng)
    assert_rows_match_reference(64, index_sets,
                                generic_targets(len(index_sets), 64, rng),
                                rng)


def test_batch_rows_bitwise_match_reference_zero_targets():
    rng = np.random.default_rng(8)
    index_sets = lambda_constraint_index_sets(4)
    targets = lambda_targets(4, 64, rng)
    targets[::3, :-1] = 0.0          # every pair answer zero
    targets[1::3, rng.integers(0, 6)] = 0.0
    assert_rows_match_reference(16, index_sets, targets, rng)


@pytest.mark.parametrize("dimension", [3, 5])
def test_batch_rows_bitwise_match_reference_until_max_iterations(dimension):
    # An unattainable threshold: every row runs all sweeps.
    rng = np.random.default_rng(9)
    assert_rows_match_reference(1 << dimension,
                                lambda_constraint_index_sets(dimension),
                                lambda_targets(dimension, 64, rng), rng,
                                threshold=-1.0, max_iterations=7)
    index_sets = generic_index_sets(rng)
    assert_rows_match_reference(64, index_sets,
                                generic_targets(len(index_sets), 64, rng),
                                rng, threshold=-1.0, max_iterations=7)


def test_batch_empty_and_shape_checks():
    index_sets = lambda_constraint_index_sets(3)
    assert weighted_update_batch(8, index_sets,
                                 np.ones((0, 4))).shape == (0, 8)
    with pytest.raises(ValueError, match="n_problems"):
        weighted_update_batch(8, index_sets, np.ones(4))
    with pytest.raises(ValueError, match="targets per problem"):
        weighted_update_batch(8, index_sets, np.ones((2, 3)))


def test_pairwise_sum_matches_numpy_sum():
    # Every branch: the short left fold, the eight-accumulator block
    # with a ragged tail, and recursive halving above 128 terms.
    rng = np.random.default_rng(10)
    for n in list(range(0, 40)) + [127, 128, 129, 255, 256, 300, 1000]:
        values = rng.random((n, 3)) * 10.0 ** rng.integers(-8, 8, (n, 3))
        for column in values.T:
            column = np.ascontiguousarray(column)
            assert pairwise_sum(column.tolist()) == column.sum(), n
        if n:
            assert np.array_equal(pairwise_sum(values),
                                  [np.ascontiguousarray(column).sum()
                                   for column in values.T]), n
