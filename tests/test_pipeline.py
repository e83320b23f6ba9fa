"""Tests for the shard-mergeable aggregation pipeline.

The pipeline's contract has an exact half and a statistical half:

* **Exact** — support-count accumulators add across shards, and
  ``fit(data)`` is byte-for-byte ``partial_fit(data); finalize()``.
* **Statistical** — merging K independently-perturbed shards yields
  estimates with the same distribution as one-shot collection over the
  concatenated population, so accuracy against ground truth matches up
  to sampling noise.
"""

from __future__ import annotations

import json
import threading

import numpy as np
import pytest

from repro.core import HDG, TDG
from repro.datasets import Dataset, make_dataset
from repro.experiments import ExperimentConfig, run_experiment
from repro.experiments.cache import memoized_dataset, memoized_workload
from repro.experiments.executor import fit_sharded
from repro.frequency_oracles import (GeneralizedRandomizedResponse,
                                     OptimizedLocalHash, SquareWave,
                                     SupportAccumulator)
from repro.mechanisms import MECHANISMS, shard_seed
from repro.metrics import mean_absolute_error
from repro.queries import WorkloadGenerator, answer_workload


def _split(dataset: Dataset, n_shards: int) -> list[Dataset]:
    return [Dataset(part, dataset.domain_size)
            for part in np.array_split(dataset.values, n_shards)]


# ----------------------------------------------------------------------
# SupportAccumulator algebra
# ----------------------------------------------------------------------
def test_accumulator_merge_adds_counts_exactly():
    a = SupportAccumulator(np.array([1.0, 2.0, 3.0]), 6)
    b = SupportAccumulator(np.array([0.5, 0.0, 4.0]), 5)
    merged = a.copy().merge(b)
    assert merged.equals(SupportAccumulator(np.array([1.5, 2.0, 7.0]), 11))
    # The originals are untouched.
    assert a.n_reports == 6 and b.n_reports == 5


def test_accumulator_merge_rejects_shape_mismatch():
    a = SupportAccumulator(np.zeros(3), 0)
    with pytest.raises(ValueError):
        a.merge(SupportAccumulator(np.zeros(4), 0))


def test_accumulator_serialization_roundtrip():
    a = SupportAccumulator(np.array([1.0, 0.25, 9.0]), 10)
    restored = SupportAccumulator.from_dict(a.to_dict())
    assert restored.equals(a)


@pytest.mark.parametrize("n_parts", [2, 3, 5])
def test_oracle_accumulators_sum_exactly_over_shards(rng, n_parts):
    """Exact-equality test for the support-count accumulators."""
    values = rng.integers(0, 16, size=3_000)
    oracle = OptimizedLocalHash(1.0, 16, rng=np.random.default_rng(0))
    parts = np.array_split(values, n_parts)
    accumulators = [oracle.accumulate(part) for part in parts]
    merged = accumulators[0].copy()
    for accumulator in accumulators[1:]:
        merged.merge(accumulator)
    expected = np.sum([acc.supports for acc in accumulators], axis=0)
    assert np.array_equal(merged.supports, expected)
    assert merged.n_reports == values.size


# ----------------------------------------------------------------------
# Oracle accumulate/estimate split
# ----------------------------------------------------------------------
@pytest.mark.parametrize("factory", [
    lambda rng: GeneralizedRandomizedResponse(1.0, 12, rng=rng),
    lambda rng: OptimizedLocalHash(1.0, 12, rng=rng, mode="fast"),
    lambda rng: OptimizedLocalHash(1.0, 12, rng=rng, mode="user"),
    lambda rng: SquareWave(1.0, 12, rng=rng),
])
def test_split_api_matches_one_shot_estimates(factory):
    values = np.random.default_rng(3).integers(0, 12, size=2_000)
    one_shot = factory(np.random.default_rng(42)).estimate_frequencies(values)
    oracle = factory(np.random.default_rng(42))
    split = oracle.estimate_from_accumulator(oracle.accumulate(values))
    assert np.array_equal(one_shot, split)


def test_estimate_from_empty_accumulator_rejected():
    oracle = OptimizedLocalHash(1.0, 8, rng=np.random.default_rng(0))
    with pytest.raises(ValueError):
        oracle.estimate_from_accumulator(SupportAccumulator.empty(8))


# ----------------------------------------------------------------------
# Mechanism-level partial_fit / merge / finalize
# ----------------------------------------------------------------------
def test_fit_is_partial_fit_plus_finalize_tdg(small_dataset):
    one_shot = TDG(epsilon=1.0, seed=11).fit(small_dataset)
    sharded = TDG(epsilon=1.0, seed=11).partial_fit(small_dataset).finalize()
    for pair in one_shot.grids:
        assert np.array_equal(one_shot.grids[pair].frequencies,
                              sharded.grids[pair].frequencies)


def test_fit_is_partial_fit_plus_finalize_hdg(small_dataset):
    one_shot = HDG(epsilon=1.0, seed=11).fit(small_dataset)
    sharded = HDG(epsilon=1.0, seed=11).partial_fit(small_dataset).finalize()
    for attribute in one_shot.grids_1d:
        assert np.array_equal(one_shot.grids_1d[attribute].frequencies,
                              sharded.grids_1d[attribute].frequencies)
    for pair in one_shot.response_matrices:
        assert np.array_equal(one_shot.response_matrices[pair],
                              sharded.response_matrices[pair])


@pytest.mark.parametrize("mechanism_cls", [TDG, HDG])
def test_merged_accumulators_equal_sum_of_shards(small_dataset, mechanism_cls):
    """merge() is exact count addition on every grid's row of the
    layer arrays."""
    n = small_dataset.n_users
    shards = _split(small_dataset, 2)
    fitted = [mechanism_cls(1.0, seed=s).partial_fit(shard, total_users=n)
              for s, shard in enumerate(shards)]
    merged = mechanism_cls(1.0, seed=9).merge(fitted[0]).merge(fitted[1])

    for dimension, layer in merged._layers.items():
        parts = [shard._layers[dimension] for shard in fitted]
        assert np.array_equal(layer.supports,
                              parts[0].supports + parts[1].supports)
        assert np.array_equal(layer.n_reports,
                              parts[0].n_reports + parts[1].n_reports)
        assert (layer.n_reports > 0).all()
    assert merged.population == n


@pytest.mark.parametrize("n_shards", [2, 4])
def test_sharded_estimates_statistically_match_single_shot(n_shards):
    """merge(partial_fit(a), partial_fit(b)) ~ fit(concat(a, b)).

    Both paths are unbiased estimators of the same binned distribution,
    so their accuracy against ground truth must agree up to sampling
    noise.  Granularities are pinned so the comparison is like-for-like.
    """
    rng = np.random.default_rng(5)
    dataset = make_dataset("normal", 40_000, 3, 16, rng=rng)
    generator = WorkloadGenerator(3, 16, rng=np.random.default_rng(6))
    queries = generator.random_workload(40, 2, 0.5)
    truths = answer_workload(dataset, queries)

    single_maes, sharded_maes = [], []
    for seed in range(3):
        single = HDG(1.0, granularities=(8, 4), seed=seed).fit(dataset)
        single_maes.append(mean_absolute_error(
            single.answer_workload(queries), truths))

        shard_mechs = [
            HDG(1.0, granularities=(8, 4), seed=100 + 977 * (seed * n_shards + i))
            .partial_fit(shard, total_users=dataset.n_users)
            for i, shard in enumerate(_split(dataset, n_shards))]
        merged = shard_mechs[0]
        for other in shard_mechs[1:]:
            merged.merge(other)
        merged.finalize()
        sharded_maes.append(mean_absolute_error(
            merged.answer_workload(queries), truths))

    single_mae = np.mean(single_maes)
    sharded_mae = np.mean(sharded_maes)
    # Same estimator distribution: averaged MAEs agree within a loose factor.
    assert sharded_mae < 2.0 * single_mae + 0.01
    assert single_mae < 2.0 * sharded_mae + 0.01


def test_incremental_batches_accumulate_on_one_mechanism(small_dataset):
    shards = _split(small_dataset, 3)
    mechanism = HDG(1.0, seed=0)
    for shard in shards:
        mechanism.partial_fit(shard, total_users=small_dataset.n_users)
    assert mechanism.population == small_dataset.n_users
    mechanism.finalize()
    assert mechanism.is_fitted


def test_partial_fit_accepts_single_user_batches():
    """Tiny (even 1-user) batches must ingest once granularities are known."""
    rng = np.random.default_rng(0)
    mechanism = HDG(1.0, granularities=(8, 4), seed=0)
    for _ in range(5):
        batch = Dataset(rng.integers(0, 16, size=(1, 3)), 16)
        mechanism.partial_fit(batch, total_users=5)
    assert mechanism.population == 5
    mechanism.finalize()
    assert mechanism.is_fitted


def test_merge_rejects_epsilon_mismatch(tiny_dataset):
    a = TDG(1.0, seed=0).partial_fit(tiny_dataset)
    b = TDG(2.0, seed=1).partial_fit(tiny_dataset)
    with pytest.raises(ValueError, match="privacy budgets"):
        a.merge(b)


def test_merge_rejects_granularity_mismatch(tiny_dataset):
    a = TDG(1.0, granularity=4, seed=0).partial_fit(tiny_dataset)
    b = TDG(1.0, granularity=8, seed=1).partial_fit(tiny_dataset)
    with pytest.raises(ValueError, match="granularity"):
        a.merge(b)


def test_merge_rejects_mechanism_type_mismatch(tiny_dataset):
    a = TDG(1.0, seed=0).partial_fit(tiny_dataset)
    b = HDG(1.0, seed=1).partial_fit(tiny_dataset)
    with pytest.raises(TypeError):
        a.merge(b)


def test_merge_after_finalize_rejected(tiny_dataset):
    a = TDG(1.0, seed=0).partial_fit(tiny_dataset).finalize()
    b = TDG(1.0, seed=1).partial_fit(tiny_dataset)
    with pytest.raises(RuntimeError):
        a.merge(b)


def test_finalize_without_batches_rejected():
    with pytest.raises(RuntimeError):
        HDG(1.0, seed=0).finalize()


def test_baselines_report_no_sharding_support(tiny_dataset):
    """HIO and LHIO draw noise at query time; they have no sharded path."""
    for name in ("HIO", "LHIO"):
        mechanism = MECHANISMS[name](1.0, seed=0)
        assert not mechanism.supports_sharding
        with pytest.raises(NotImplementedError):
            mechanism.partial_fit(tiny_dataset)


def test_mechanism_single_use_after_finalize(tiny_dataset):
    mechanism = TDG(1.0, seed=0).partial_fit(tiny_dataset).finalize()
    with pytest.raises(RuntimeError):
        mechanism.partial_fit(tiny_dataset)
    with pytest.raises(RuntimeError):
        mechanism.finalize()


def test_sharded_collection_end_to_end(small_dataset, workload_2d):
    n = small_dataset.n_users
    shards = [HDG(1.0, seed=i).partial_fit(shard, total_users=n)
              for i, shard in enumerate(_split(small_dataset, 2))]
    merged = shards[0].merge(shards[1])
    assert merged.population == n
    merged.finalize()
    truths = answer_workload(small_dataset, workload_2d)
    mae = mean_absolute_error(merged.answer_workload(workload_2d), truths)
    assert mae < 0.15


@pytest.mark.parametrize("mechanism", ["TDG", "HDG"])
def test_shard_state_json_roundtrip(tiny_dataset, mechanism):
    factory = MECHANISMS[mechanism]
    collector = factory(1.0, seed=3).partial_fit(tiny_dataset)
    state = json.loads(json.dumps(collector.shard_state()))
    restored = factory(1.0).load_shard_state(state)
    assert restored.shard_state() == collector.shard_state()
    # The restored collector finalises into a working mechanism.
    assert restored.finalize().is_fitted


def test_shard_states_rebuild_the_merged_estimate(tiny_dataset):
    """Pre-merge shard states, moved as documents and merged in order,
    finalise to the same counts as merging the live shards."""
    n = tiny_dataset.n_users
    shards = [TDG(1.0, seed=i).partial_fit(part, total_users=n)
              for i, part in enumerate(_split(tiny_dataset, 3))]
    states = [json.loads(json.dumps(shard.shard_state())) for shard in shards]
    live = shards[0]
    for shard in shards[1:]:
        live.merge(shard)
    live.finalize()
    rebuilt = TDG(1.0).load_shard_state(states[0])
    for state in states[1:]:
        rebuilt.merge(TDG(1.0).load_shard_state(state))
    rebuilt.finalize()
    for pair in live.grids:
        assert np.array_equal(live.grids[pair].frequencies,
                              rebuilt.grids[pair].frequencies)


# ----------------------------------------------------------------------
# fit_sharded: the executor's sharded collection
# ----------------------------------------------------------------------
def _shard_config(dataset: Dataset, n_shards: int) -> ExperimentConfig:
    return ExperimentConfig(n_users=dataset.n_users,
                            n_attributes=dataset.n_attributes,
                            domain_size=dataset.domain_size,
                            n_shards=n_shards)


def test_fit_sharded_runs_one_thread_per_shard(tiny_dataset, monkeypatch):
    """Both shard threads must be inside partial_fit at the same time."""
    barrier = threading.Barrier(2, timeout=30)
    threads = set()

    class SynchronisedTDG(TDG):
        def _partial_fit(self, dataset, total_users):
            threads.add(threading.current_thread().name)
            barrier.wait()
            super()._partial_fit(dataset, total_users)

    monkeypatch.setitem(MECHANISMS, "TDG", SynchronisedTDG)
    mechanism = fit_sharded("TDG", 0, {}, tiny_dataset,
                            _shard_config(tiny_dataset, 2))
    assert isinstance(mechanism, SynchronisedTDG) and mechanism.is_fitted
    assert len(threads) == 2
    assert mechanism.population == tiny_dataset.n_users


def test_shard_seed_never_collides_with_base():
    assert shard_seed(0, 0) != 0
    assert len({shard_seed(0, i) for i in range(100)}) == 100


def test_fit_sharded_deterministic_for_fixed_seeds(tiny_dataset):
    config = _shard_config(tiny_dataset, 3)
    first = fit_sharded("HDG", 50, {}, tiny_dataset, config)
    second = fit_sharded("HDG", 50, {}, tiny_dataset, config)
    for pair in first.response_matrices:
        assert np.array_equal(first.response_matrices[pair],
                              second.response_matrices[pair])


def test_fit_sharded_matches_hand_written_protocol_loop():
    """Oracle: run_experiment(n_shards=3) == array_split -> partial_fit ->
    ordered merge -> finalize, written out by hand."""
    config = ExperimentConfig(dataset="normal", n_users=6_000, n_attributes=3,
                              domain_size=16, n_queries=20,
                              methods=("Uni", "TDG", "CALM", "HDG"), seed=4,
                              n_shards=3)
    result = run_experiment(config)
    dataset = memoized_dataset(config, 0)
    queries = memoized_workload(config, 0)
    truths = answer_workload(dataset, queries)
    for position, method in enumerate(config.methods):
        if method == "Uni":
            continue
        method_seed = config.seed + position
        shards = [MECHANISMS[method](config.epsilon,
                                     seed=shard_seed(method_seed, index))
                  for index in range(config.n_shards)]
        for shard, part in zip(shards, np.array_split(dataset.values, 3)):
            shard.partial_fit(Dataset(part, dataset.domain_size),
                              total_users=dataset.n_users)
        merged = shards[0]
        for shard in shards[1:]:
            merged.merge(shard)
        merged.finalize()
        estimates = merged.answer_workload(queries)
        assert result.mae_of(method) == mean_absolute_error(estimates, truths)


def test_run_experiment_non_shardable_falls_back_to_fit():
    """HIO and LHIO have no partial_fit and ignore n_shards: same MAE as
    1.  Uni shards, but collects nothing, so its MAE stays equal too;
    MSW shards like TDG and draws shard-seeded noise."""
    config = ExperimentConfig(dataset="normal", n_users=4_000, n_attributes=3,
                              domain_size=16, n_queries=10,
                              methods=("Uni", "HIO", "LHIO", "MSW", "TDG"),
                              seed=2)
    single = run_experiment(config)
    sharded = run_experiment(config.with_overrides(n_shards=3))
    for method in ("Uni", "HIO", "LHIO"):
        assert sharded.mae_of(method) == single.mae_of(method)
    for method in ("MSW", "TDG"):
        assert sharded.mae_of(method) != single.mae_of(method)


# ----------------------------------------------------------------------
# Runner integration
# ----------------------------------------------------------------------
def test_run_experiment_with_shards():
    config = ExperimentConfig(dataset="normal", n_users=8_000, n_attributes=3,
                              domain_size=16, epsilon=1.0, query_dimension=2,
                              volume=0.5, n_queries=15, n_repeats=1,
                              methods=("Uni", "HDG"), seed=0, n_shards=2)
    result = run_experiment(config)
    assert set(result.methods) == {"Uni", "HDG"}
    # Uni shards too; it collects nothing, so its answers do not move.
    assert result.methods["Uni"].mae.mean >= 0
    assert result.methods["HDG"].mae.mean < 0.1


def test_run_experiment_sharded_is_deterministic():
    config = ExperimentConfig(dataset="normal", n_users=6_000, n_attributes=3,
                              domain_size=16, epsilon=1.0, query_dimension=2,
                              volume=0.5, n_queries=10, n_repeats=1,
                              methods=("HDG",), seed=1, n_shards=3)
    first = run_experiment(config)
    second = run_experiment(config)
    assert first.mae_of("HDG") == pytest.approx(second.mae_of("HDG"))


def test_config_validates_shard_fields():
    config = ExperimentConfig(n_shards=0)
    with pytest.raises(ValueError, match="n_shards"):
        config.validate()
    config = ExperimentConfig(n_users=10, n_shards=11)
    with pytest.raises(ValueError, match="n_shards"):
        config.validate()
