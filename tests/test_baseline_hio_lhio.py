"""Tests for the HIO and LHIO baselines."""

import numpy as np
import pytest

from repro.baselines import HIO, LHIO, Uniform
from repro.datasets import Dataset
from repro.metrics import mean_absolute_error
from repro.queries import RangeQuery, WorkloadGenerator, answer_workload


@pytest.fixture
def hio(tiny_dataset):
    return HIO(epsilon=2.0, branching=4, seed=0).fit(tiny_dataset)


@pytest.fixture
def lhio(small_dataset):
    return LHIO(epsilon=2.0, branching=4, seed=0).fit(small_dataset)


# ----------------------------------------------------------------------
# HIO
# ----------------------------------------------------------------------
def test_hio_group_partition_covers_all_users(hio, tiny_dataset):
    levels = hio.hierarchy.n_levels ** tiny_dataset.n_attributes
    assert hio._group_offsets.shape == (levels + 1,)
    assert hio._group_offsets[-1] == tiny_dataset.n_users


def test_hio_answers_are_finite(hio, tiny_dataset):
    generator = WorkloadGenerator(tiny_dataset.n_attributes,
                                  tiny_dataset.domain_size,
                                  rng=np.random.default_rng(0))
    queries = generator.random_workload(10, 2, 0.5)
    answers = hio.answer_workload(queries)
    assert np.isfinite(answers).all()


def test_hio_full_domain_query_positive(hio, tiny_dataset):
    c = tiny_dataset.domain_size
    query = RangeQuery.from_dict({0: (0, c - 1)})
    # The full-domain query decomposes to the all-root level, whose group
    # still carries noise, so only a loose check is possible.
    assert -2.0 < hio.answer(query) < 4.0


def test_hio_noisier_than_lhio(small_dataset, workload_2d):
    # The curse of dimensionality: HIO's (h+1)^d groups are far smaller than
    # LHIO's C(d,2)*(h+1)^2 groups, so its error is much larger.
    truths = answer_workload(small_dataset, workload_2d)
    hio = HIO(epsilon=1.0, branching=4, seed=0).fit(small_dataset)
    lhio = LHIO(epsilon=1.0, branching=4, seed=0).fit(small_dataset)
    mae_hio = mean_absolute_error(hio.answer_workload(workload_2d), truths)
    mae_lhio = mean_absolute_error(lhio.answer_workload(workload_2d), truths)
    assert mae_lhio < mae_hio


def test_hio_lazy_levels_cached(hio, tiny_dataset):
    c = tiny_dataset.domain_size
    query = RangeQuery.from_dict({0: (1, c - 2), 1: (1, c - 2), 2: (1, c - 2)})
    first = hio.answer(query)
    state = hio.rng.bit_generator.state
    second = hio.answer(query)
    # Lazy noisy lookups are memoised: answering again repeats the bits
    # and draws nothing.
    assert first == second
    assert hio.rng.bit_generator.state == state


def test_hio_refuses_domains_past_int64_interval_codes():
    # A level's intervals are indexed as int64, so c^d >= 2^63 is refused
    # rather than answered from wrapped indices.
    dataset = Dataset(np.zeros((4, 7), dtype=np.int64), 1024)
    with pytest.raises(ValueError, match="below 2\\^63"):
        HIO(1.0, seed=0).fit(dataset)


# ----------------------------------------------------------------------
# LHIO
# ----------------------------------------------------------------------
def test_lhio_builds_one_hierarchy_per_pair(lhio, small_dataset):
    d = small_dataset.n_attributes
    assert len(lhio._pairs) == d * (d - 1) // 2


def test_lhio_levels_have_expected_shapes(lhio):
    hierarchy = lhio.hierarchy
    pair = next(iter(lhio._pairs.values()))
    for (l1, l2), values in pair.levels.items():
        assert values.shape == (hierarchy.nodes_at_level(l1),
                                hierarchy.nodes_at_level(l2))


def test_lhio_consistency_levels_agree(lhio):
    # After constrained inference each coarser level equals the aggregation
    # of the leaf level along both axes.
    hierarchy = lhio.hierarchy
    pair = next(iter(lhio._pairs.values()))
    h = hierarchy.height
    leaf = pair.levels[(h, h)]
    root = pair.levels[(0, 0)]
    assert root[0, 0] == pytest.approx(leaf.sum(), abs=1e-6)


def test_lhio_beats_uniform_on_correlated_data(small_dataset, workload_2d):
    truths = answer_workload(small_dataset, workload_2d)
    lhio = LHIO(epsilon=2.0, seed=1).fit(small_dataset)
    uni = Uniform().fit(small_dataset)
    mae_lhio = mean_absolute_error(lhio.answer_workload(workload_2d), truths)
    mae_uni = mean_absolute_error(uni.answer_workload(workload_2d), truths)
    assert mae_lhio < mae_uni


def test_lhio_consistency_improves_over_no_consistency(small_dataset, workload_2d):
    truths = answer_workload(small_dataset, workload_2d)
    maes_with, maes_without = [], []
    for seed in range(3):
        with_ci = LHIO(epsilon=0.5, seed=seed, consistency=True).fit(small_dataset)
        without_ci = LHIO(epsilon=0.5, seed=seed, consistency=False).fit(small_dataset)
        maes_with.append(mean_absolute_error(with_ci.answer_workload(workload_2d),
                                             truths))
        maes_without.append(mean_absolute_error(
            without_ci.answer_workload(workload_2d), truths))
    assert np.mean(maes_with) <= np.mean(maes_without) * 1.1


def test_lhio_higher_dimensional_queries(lhio, small_dataset, workload_3d):
    estimates = lhio.answer_workload(workload_3d)
    assert np.isfinite(estimates).all()


def test_lhio_single_attribute_query(lhio, small_dataset):
    query = RangeQuery.from_dict({0: (0, small_dataset.domain_size // 2 - 1)})
    from repro.queries import answer_query
    truth = answer_query(small_dataset, query)
    assert lhio.answer(query) == pytest.approx(truth, abs=0.25)


def test_lhio_requires_two_attributes(rng):
    from repro.datasets import Dataset
    dataset = Dataset(rng.integers(0, 8, size=(100, 1)), 8)
    with pytest.raises(ValueError):
        LHIO(epsilon=1.0).fit(dataset)
