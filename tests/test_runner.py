"""Tests for the experiment runner."""

import numpy as np
import pytest

from repro.core import HDG
from repro.experiments import (ExperimentConfig, run_experiment,
                               sweep_parameter)
from repro.mechanisms import build_mechanism


TINY = ExperimentConfig(dataset="normal", n_users=5_000, n_attributes=3,
                        domain_size=16, epsilon=1.0, query_dimension=2,
                        volume=0.5, n_queries=15, n_repeats=1,
                        methods=("Uni", "TDG", "HDG"), seed=0)


def test_build_mechanism_by_name():
    for name in ("Uni", "MSW", "CALM", "HIO", "LHIO", "TDG", "HDG", "ITDG", "IHDG"):
        mechanism = build_mechanism(name, 1.0, seed=0)
        assert mechanism.epsilon == 1.0


def test_build_mechanism_with_explicit_granularities():
    mechanism = build_mechanism("HDG(8,4)", 1.0, seed=0)
    assert isinstance(mechanism, HDG)
    assert mechanism.granularities == (8, 4)


def test_build_mechanism_unknown_name():
    with pytest.raises(ValueError):
        build_mechanism("NOPE", 1.0)


def test_run_experiment_returns_all_methods():
    result = run_experiment(TINY)
    assert set(result.methods) == {"Uni", "TDG", "HDG"}
    for method_result in result.methods.values():
        assert method_result.mae.mean >= 0
        assert method_result.per_query_errors.shape == (TINY.n_queries,)


def test_run_experiment_respects_mechanism_kwargs():
    config = TINY.with_overrides(methods=("HDG",),
                                 mechanism_kwargs={"HDG": {"granularities": (8, 2)}})
    result = run_experiment(config)
    assert "HDG" in result.methods


def test_run_experiment_with_repeats():
    config = TINY.with_overrides(n_repeats=2, methods=("Uni",))
    result = run_experiment(config)
    assert result.methods["Uni"].mae.n_runs == 2


def test_run_experiment_custom_workload_factory():
    calls = []

    def factory(config, dataset, repeat):
        calls.append(repeat)
        from repro.queries import WorkloadGenerator
        generator = WorkloadGenerator(config.n_attributes, config.domain_size,
                                      rng=np.random.default_rng(0))
        return generator.random_workload(5, 2, 0.5)

    config = TINY.with_overrides(methods=("Uni",))
    result = run_experiment(config, workload_factory=factory)
    assert calls == [0]
    assert result.methods["Uni"].per_query_errors.shape == (5,)


def test_sweep_parameter_series_and_table():
    sweep = sweep_parameter(TINY.with_overrides(methods=("Uni", "HDG")),
                            "epsilon", [0.5, 1.0])
    series = sweep.series()
    assert set(series) == {"Uni", "HDG"}
    assert len(series["HDG"]) == 2
    table = sweep.format_table()
    assert "epsilon" in table
    assert "HDG" in table


def test_sweep_parameter_with_transform():
    def transform(config, value):
        return config.with_overrides(dataset_kwargs={"covariance": value})

    sweep = sweep_parameter(TINY.with_overrides(methods=("Uni",)),
                            "covariance", [0.0, 0.5],
                            config_transform=transform)
    assert len(sweep.results) == 2


def test_results_are_deterministic_for_fixed_seed():
    first = run_experiment(TINY)
    second = run_experiment(TINY)
    for method in TINY.methods:
        assert first.mae_of(method) == pytest.approx(second.mae_of(method))
