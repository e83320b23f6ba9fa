"""Tests for the Uni and MSW baselines."""

import json

import numpy as np
import pytest

from repro.baselines import MSW, Uniform
from repro.datasets import (Dataset, generate_normal, generate_uniform,
                            make_dataset)
from repro.metrics import mean_absolute_error
from repro.queries import RangeQuery, WorkloadGenerator, answer_workload


# ----------------------------------------------------------------------
# Uni
# ----------------------------------------------------------------------
def test_uniform_answer_is_query_volume(small_dataset):
    mechanism = Uniform().fit(small_dataset)
    c = small_dataset.domain_size
    query = RangeQuery.from_dict({0: (0, c // 2 - 1), 1: (0, c // 4 - 1)})
    assert mechanism.answer(query) == pytest.approx(0.5 * 0.25)


def test_uniform_never_touches_data(small_dataset):
    mechanism = Uniform()
    # fit only records metadata; answering is purely combinatorial.
    mechanism.fit(small_dataset)
    query = RangeQuery.from_dict({0: (0, small_dataset.domain_size - 1)})
    assert mechanism.answer(query) == pytest.approx(1.0)


def test_uniform_is_exact_on_uniform_data(rng):
    dataset = generate_uniform(50_000, 3, 16, rng=rng)
    generator = WorkloadGenerator(3, 16, rng=np.random.default_rng(0))
    queries = generator.random_workload(30, 2, 0.5)
    truths = answer_workload(dataset, queries)
    mechanism = Uniform().fit(dataset)
    estimates = mechanism.answer_workload(queries)
    assert mean_absolute_error(estimates, truths) < 0.02


# ----------------------------------------------------------------------
# MSW
# ----------------------------------------------------------------------
def test_msw_builds_one_distribution_per_attribute(small_dataset):
    mechanism = MSW(epsilon=1.0, seed=0).fit(small_dataset)
    assert len(mechanism.distributions) == small_dataset.n_attributes
    for distribution in mechanism.distributions.values():
        assert distribution.shape == (small_dataset.domain_size,)
        assert distribution.sum() == pytest.approx(1.0, abs=1e-5)
        assert (distribution >= 0).all()


def test_msw_product_rule(small_dataset):
    mechanism = MSW(epsilon=1.0, seed=0).fit(small_dataset)
    query = RangeQuery.from_dict({0: (0, 15), 1: (0, 7)})
    expected = (mechanism.distributions[0][:16].sum()
                * mechanism.distributions[1][:8].sum())
    assert mechanism.answer(query) == pytest.approx(expected)


def test_msw_accurate_on_independent_data(rng):
    dataset = generate_normal(40_000, 3, 32, covariance=0.0, rng=rng)
    generator = WorkloadGenerator(3, 32, rng=np.random.default_rng(1))
    queries = generator.random_workload(30, 2, 0.5)
    truths = answer_workload(dataset, queries)
    mechanism = MSW(epsilon=2.0, seed=0).fit(dataset)
    estimates = mechanism.answer_workload(queries)
    assert mean_absolute_error(estimates, truths) < 0.05


def test_msw_loses_correlations():
    # On strongly correlated data MSW's independence assumption biases the
    # aligned-corner query: the truth is far above the product of marginals.
    dataset = generate_normal(60_000, 2, 32, covariance=0.95,
                              rng=np.random.default_rng(2))
    mechanism = MSW(epsilon=3.0, seed=0).fit(dataset)
    query = RangeQuery.from_dict({0: (0, 15), 1: (0, 15)})
    from repro.queries import answer_query
    truth = answer_query(dataset, query)
    estimate = mechanism.answer(query)
    assert truth - estimate > 0.1


def test_msw_single_attribute_query(small_dataset):
    mechanism = MSW(epsilon=1.0, seed=0).fit(small_dataset)
    query = RangeQuery.from_dict({2: (0, 15)})
    from repro.queries import answer_query
    truth = answer_query(small_dataset, query)
    assert mechanism.answer(query) == pytest.approx(truth, abs=0.1)


def test_msw_reproducible(small_dataset, workload_2d):
    first = MSW(epsilon=1.0, seed=5).fit(small_dataset)
    second = MSW(epsilon=1.0, seed=5).fit(small_dataset)
    np.testing.assert_allclose(first.answer_workload(workload_2d),
                               second.answer_workload(workload_2d))


# ----------------------------------------------------------------------
# Sharded collection: partial_fit / merge / finalize
# ----------------------------------------------------------------------
def test_msw_fit_is_partial_fit_plus_finalize(small_dataset):
    """One batch through the shard path draws the same noise in the same
    order as fit: the distributions match bit for bit."""
    fitted = MSW(1.0, seed=5).fit(small_dataset)
    streamed = MSW(1.0, seed=5).partial_fit(small_dataset).finalize()
    assert fitted.distributions.keys() == streamed.distributions.keys()
    for attribute, distribution in fitted.distributions.items():
        assert np.array_equal(distribution, streamed.distributions[attribute])


def test_msw_merge_adds_report_counts_exactly(small_dataset):
    halves = np.array_split(small_dataset.values, 2)
    shards = [MSW(1.0, seed=index).partial_fit(
        Dataset(part, small_dataset.domain_size))
        for index, part in enumerate(halves)]
    merged = MSW(1.0).load_shard_state(
        json.loads(json.dumps(shards[0].shard_state())))
    merged.merge(MSW(1.0).load_shard_state(shards[1].shard_state()))
    for attribute in range(small_dataset.n_attributes):
        expected = (shards[0]._accumulators[attribute].supports
                    + shards[1]._accumulators[attribute].supports)
        assert np.array_equal(merged._accumulators[attribute].supports,
                              expected)
    merged.finalize()
    assert merged.population == small_dataset.n_users
    for distribution in merged.distributions.values():
        assert distribution.sum() == pytest.approx(1.0)


def test_msw_attribute_without_reports_is_uniform():
    """Two users over four attributes: two attributes get no report."""
    dataset = Dataset(np.zeros((2, 4), dtype=np.int64), 8)
    mechanism = MSW(1.0, seed=0).partial_fit(dataset).finalize()
    uniform = [attribute for attribute, distribution
               in mechanism.distributions.items()
               if np.array_equal(distribution, np.full(8, 1 / 8))]
    assert len(uniform) == 2


def test_uniform_shards_carry_only_the_schema(small_dataset):
    shard = Uniform(1.0).partial_fit(small_dataset)
    state = shard.shard_state()
    assert state == {"mechanism": "Uni", "epsilon": 1.0,
                     "n_attributes": small_dataset.n_attributes,
                     "domain_size": small_dataset.domain_size,
                     "total_reports": small_dataset.n_users}
    merged = Uniform(1.0).load_shard_state(state).merge(
        Uniform(1.0).partial_fit(small_dataset)).finalize()
    assert merged.population == 2 * small_dataset.n_users
    query = RangeQuery.from_dict({0: (0, 7), 1: (8, 15)})
    assert merged.answer(query) == Uniform().fit(small_dataset).answer(query)


@pytest.mark.slow
def test_stream_msw_matches_fit_msw_accuracy():
    """Stream MSW (10 ingest batches, one EM per attribute at finalize)
    is as accurate as one-shot MSW at the paper's scale: n=10^6, d=6,
    c=64, ε=1, λ=2 on ``normal``.

    Margin: over 8 seeds the per-run MAE spread (standard deviation) was
    0.0006 for fit and 0.0010 for stream around a mean of 0.062 (MSW's
    error here is mostly its independence bias), so the difference of
    two 5-seed means has a standard error of about 0.0005.  The bound
    0.002 is four of those.
    """
    from repro.serving import QueryService

    n, d, c = 1_000_000, 6, 64
    dataset = make_dataset("normal", n, d, c, rng=np.random.default_rng(0))
    queries = WorkloadGenerator(d, c, rng=np.random.default_rng(1)) \
        .random_workload(200, 2, 0.5)
    truths = answer_workload(dataset, queries)
    fit_mae, stream_mae = [], []
    for seed in range(5):
        fitted = MSW(1.0, seed=seed).fit(dataset)
        fit_mae.append(mean_absolute_error(
            fitted.answer_workload(queries), truths))
        service = QueryService("MSW", 1.0, seed=seed, domain_size=c)
        for batch in np.array_split(dataset.values, 10):
            service.ingest(batch)
        service.refinalize()
        stream_mae.append(mean_absolute_error(service.query(queries), truths))
    assert abs(np.mean(stream_mae) - np.mean(fit_mae)) < 0.002, \
        (fit_mae, stream_mae)
