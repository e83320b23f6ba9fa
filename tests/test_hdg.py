"""Tests for the HDG mechanism."""

import numpy as np
import pytest

from repro.baselines import Uniform
from repro.core import HDG, IHDG, TDG
from repro.metrics import mean_absolute_error
from repro.queries import RangeQuery, answer_query, answer_workload


@pytest.fixture
def fitted_hdg(small_dataset):
    return HDG(epsilon=2.0, granularities=(8, 4), seed=0).fit(small_dataset)


def test_fit_builds_all_grids_and_matrices(fitted_hdg, small_dataset):
    d = small_dataset.n_attributes
    assert len(fitted_hdg.grids_1d) == d
    assert len(fitted_hdg.grids_2d) == d * (d - 1) // 2
    assert len(fitted_hdg.response_matrices) == d * (d - 1) // 2
    for matrix in fitted_hdg.response_matrices.values():
        assert matrix.shape == (small_dataset.domain_size,
                                small_dataset.domain_size)
        assert matrix.sum() == pytest.approx(1.0, abs=1e-4)
        assert (matrix >= 0).all()


def test_guideline_granularities_used_by_default(small_dataset):
    mechanism = HDG(epsilon=1.0, seed=0).fit(small_dataset)
    assert mechanism.chosen_g1 is not None and mechanism.chosen_g2 is not None
    assert mechanism.chosen_g1 >= mechanism.chosen_g2
    assert small_dataset.domain_size % mechanism.chosen_g1 == 0


def test_invalid_explicit_granularities_rejected():
    from repro.datasets import Dataset
    dataset = Dataset(np.zeros((10, 2), dtype=int), 16)
    with pytest.raises(ValueError, match="at least g2"):
        HDG(epsilon=1.0, granularities=(2, 8)).fit(dataset)


def test_answers_2d_queries_reasonably(fitted_hdg, small_dataset, workload_2d):
    truths = answer_workload(small_dataset, workload_2d)
    estimates = fitted_hdg.answer_workload(workload_2d)
    assert mean_absolute_error(estimates, truths) < 0.1


def test_beats_uniform_and_tdg_on_correlated_data(small_dataset, workload_2d):
    truths = answer_workload(small_dataset, workload_2d)
    hdg = HDG(epsilon=2.0, granularities=(8, 4), seed=3).fit(small_dataset)
    tdg = TDG(epsilon=2.0, granularity=4, seed=3).fit(small_dataset)
    uni = Uniform().fit(small_dataset)
    mae_hdg = mean_absolute_error(hdg.answer_workload(workload_2d), truths)
    mae_tdg = mean_absolute_error(tdg.answer_workload(workload_2d), truths)
    mae_uni = mean_absolute_error(uni.answer_workload(workload_2d), truths)
    assert mae_hdg < mae_uni
    assert mae_hdg < mae_tdg


def test_full_domain_query_close_to_one(fitted_hdg, small_dataset):
    c = small_dataset.domain_size
    query = RangeQuery.from_dict({0: (0, c - 1), 1: (0, c - 1)})
    assert fitted_hdg.answer(query) == pytest.approx(1.0, abs=0.05)


def test_one_dimensional_query_uses_1d_grid(fitted_hdg, small_dataset):
    c = small_dataset.domain_size
    query = RangeQuery.from_dict({1: (0, c // 2 - 1)})
    estimate = fitted_hdg.answer(query)
    truth = answer_query(small_dataset, query)
    assert estimate == pytest.approx(truth, abs=0.1)


def test_lambda_query_estimation(fitted_hdg, small_dataset, workload_3d):
    truths = answer_workload(small_dataset, workload_3d)
    estimates = fitted_hdg.answer_workload(workload_3d)
    assert np.isfinite(estimates).all()
    # λ=3 estimates remain informative (clearly better than always-zero /
    # uniform guessing on this correlated dataset).
    uni = Uniform().fit(small_dataset)
    mae_uni = mean_absolute_error(uni.answer_workload(workload_3d), truths)
    assert mean_absolute_error(estimates, truths) < mae_uni


def test_estimate_with_history(fitted_hdg, workload_3d):
    answer, history = fitted_hdg.estimate_with_history(workload_3d[0])
    assert isinstance(answer, float)
    assert len(history) >= 1


def test_sigma_controls_user_split(small_dataset):
    low = HDG(epsilon=1.0, granularities=(8, 4), sigma=0.2, seed=0)
    high = HDG(epsilon=1.0, granularities=(8, 4), sigma=0.8, seed=0)
    low.fit(small_dataset)
    high.fit(small_dataset)
    # Both still answer queries sensibly.
    query = RangeQuery.from_dict({0: (0, 15), 1: (0, 15)})
    assert 0.0 <= low.answer(query) <= 1.2
    assert 0.0 <= high.answer(query) <= 1.2


def test_max_entropy_estimation_method(small_dataset, workload_3d):
    mechanism = HDG(epsilon=2.0, granularities=(8, 4), seed=0,
                    estimation_method="max_entropy").fit(small_dataset)
    estimates = mechanism.answer_workload(workload_3d)
    assert np.isfinite(estimates).all()


def test_ihdg_skips_postprocess(small_dataset):
    mechanism = IHDG(epsilon=1.0, granularities=(8, 4), seed=0).fit(small_dataset)
    assert mechanism.postprocess is False
    assert len(mechanism.response_matrices) == \
        small_dataset.n_attributes * (small_dataset.n_attributes - 1) // 2


def test_reproducible_with_seed(small_dataset, workload_2d):
    first = HDG(epsilon=1.0, granularities=(8, 4), seed=11).fit(small_dataset)
    second = HDG(epsilon=1.0, granularities=(8, 4), seed=11).fit(small_dataset)
    np.testing.assert_allclose(first.answer_workload(workload_2d),
                               second.answer_workload(workload_2d))


def test_matrix_iteration_history_recorded(fitted_hdg):
    assert len(fitted_hdg.matrix_iteration_history) == len(fitted_hdg.grids_2d)
    for history in fitted_hdg.matrix_iteration_history.values():
        assert len(history) >= 1
