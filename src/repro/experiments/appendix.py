"""The paper's appendix experiments that are more than one sweep.

Most appendix figures (11-14, 16, 19-28) are parameter sweeps over panels
like the main-body ones, run by :func:`~repro.experiments.runner.sweep_panels`
from the rows of ``benchmarks/reproduce_figures.py``; Figures 11-14 take
their workloads from the factories below (module-level functions, so a
sweep with ``n_jobs > 1`` can send them to worker processes).  The
drivers here build
more than a sweep: error histograms (Figures 9-10), a σ sweep per ε
(Figure 15) and the convergence traces of Algorithms 1 and 2 (Figures
17-18).
"""

from __future__ import annotations

import numpy as np

from ..core import HDG, TDG
from ..datasets import make_dataset
from ..metrics import absolute_errors, error_histogram
from ..queries import WorkloadGenerator, answer_workload
from .config import ExperimentConfig
from .runner import sweep_parameter


def figure_9_10_error_distribution(datasets=("ipums", "bfive", "normal", "laplace"),
                                   query_dimensions=(2, 4), n_users=100_000,
                                   n_attributes=6, domain_size=64, epsilon=1.0,
                                   volume=0.5, n_queries=200, n_bins=20,
                                   seed=0) -> dict:
    """Figures 9-10: per-query standard-error histograms of TDG and HDG."""
    results = {}
    for dataset_name in datasets:
        for dimension in query_dimensions:
            rng = np.random.default_rng(seed)
            dataset = make_dataset(dataset_name, n_users, n_attributes,
                                   domain_size, rng=rng)
            generator = WorkloadGenerator(n_attributes, domain_size,
                                          rng=np.random.default_rng(seed + 1))
            queries = generator.random_workload(n_queries, dimension, volume)
            truths = answer_workload(dataset, queries)
            panel = {}
            for label, mechanism in (("TDG", TDG(epsilon, seed=seed)),
                                     ("HDG", HDG(epsilon, seed=seed))):
                mechanism.fit(dataset)
                errors = absolute_errors(mechanism.answer_workload(queries), truths)
                counts, edges = error_histogram(errors, n_bins=n_bins)
                panel[label] = {"errors": errors, "histogram": counts,
                                "bin_edges": edges}
            results[(dataset_name, dimension)] = panel
    return results


def _generator(config: ExperimentConfig, repeat: int) -> WorkloadGenerator:
    return WorkloadGenerator(config.n_attributes, config.domain_size,
                             rng=np.random.default_rng(config.seed + repeat))


def full_marginal_workload(config: ExperimentConfig, dataset, repeat: int):
    """Figure 11's workload: every full 2-D marginal (point) query."""
    return _generator(config, repeat).full_marginal_workload()


def full_range_workload(config: ExperimentConfig, dataset, repeat: int):
    """Figure 12's workload: every 2-D range query of volume ω."""
    return _generator(config, repeat).full_2d_range_workload(config.volume)


def zero_count_workload(config: ExperimentConfig, dataset, repeat: int):
    """Figure 13's workload: λ-D queries whose true answer is 0."""
    return _generator(config, repeat).count_conditioned_workload(
        dataset, config.n_queries, config.query_dimension, config.volume,
        zero_count=True)


def nonzero_count_workload(config: ExperimentConfig, dataset, repeat: int):
    """Figure 14's workload: λ-D queries whose true answer is not 0."""
    return _generator(config, repeat).count_conditioned_workload(
        dataset, config.n_queries, config.query_dimension, config.volume,
        zero_count=False)


def figure_15_user_split(datasets=("ipums", "bfive", "normal", "laplace"),
                         sigmas=(0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9),
                         epsilons=(0.2, 0.6, 1.0, 1.4, 1.8), n_users=100_000,
                         n_attributes=6, domain_size=64, volume=0.5,
                         n_queries=200, n_repeats=1, seed=0) -> dict:
    """Figure 15: HDG accuracy as the 1-D/2-D user split σ varies."""
    results = {}
    for dataset in datasets:
        per_epsilon = {}
        for epsilon in epsilons:
            config = ExperimentConfig(dataset=dataset, n_users=n_users,
                                      n_attributes=n_attributes,
                                      domain_size=domain_size, epsilon=epsilon,
                                      volume=volume, query_dimension=2,
                                      n_queries=n_queries, n_repeats=n_repeats,
                                      methods=("HDG",), seed=seed)

            def transform(base: ExperimentConfig, sigma: float) -> ExperimentConfig:
                kwargs = dict(base.mechanism_kwargs)
                kwargs["HDG"] = {"sigma": sigma}
                return base.with_overrides(mechanism_kwargs=kwargs)

            per_epsilon[epsilon] = sweep_parameter(config, "sigma", list(sigmas),
                                                   config_transform=transform)
        results[dataset] = per_epsilon
    return results


def figure_17_convergence_matrix(datasets=("ipums", "bfive", "normal", "laplace"),
                                 epsilons=(0.2, 0.6, 1.0, 1.4, 1.8),
                                 n_users=100_000, n_attributes=6, domain_size=64,
                                 max_iterations=50, seed=0) -> dict:
    """Figure 17: per-sweep change of Algorithm 1 (response-matrix building)."""
    results = {}
    for dataset_name in datasets:
        rng = np.random.default_rng(seed)
        dataset = make_dataset(dataset_name, n_users, n_attributes, domain_size,
                               rng=rng)
        per_epsilon = {}
        for epsilon in epsilons:
            mechanism = HDG(epsilon, seed=seed, matrix_iterations=max_iterations,
                            convergence_threshold=0.0)
            mechanism.fit(dataset)
            histories = list(mechanism.matrix_iteration_history.values())
            max_len = max(len(h) for h in histories)
            padded = np.zeros((len(histories), max_len))
            for row, history in enumerate(histories):
                padded[row, :len(history)] = history
            per_epsilon[epsilon] = padded.mean(axis=0)
        results[dataset_name] = per_epsilon
    return results


def figure_18_convergence_query(datasets=("ipums", "bfive", "normal", "laplace"),
                                epsilons=(0.2, 0.6, 1.0, 1.4, 1.8),
                                query_dimension=4, n_users=100_000,
                                n_attributes=6, domain_size=64, volume=0.5,
                                n_queries=20, max_iterations=100,
                                seed=0) -> dict:
    """Figure 18: per-sweep change of Algorithm 2 (λ-D query estimation)."""
    results = {}
    for dataset_name in datasets:
        rng = np.random.default_rng(seed)
        dataset = make_dataset(dataset_name, n_users, n_attributes, domain_size,
                               rng=rng)
        generator = WorkloadGenerator(n_attributes, domain_size,
                                      rng=np.random.default_rng(seed + 1))
        queries = generator.random_workload(n_queries, query_dimension, volume)
        per_epsilon = {}
        for epsilon in epsilons:
            mechanism = HDG(epsilon, seed=seed,
                            estimation_iterations=max_iterations)
            mechanism.fit(dataset)
            histories = []
            for query in queries:
                _, history = mechanism.estimate_with_history(query)
                histories.append(history)
            max_len = max(len(h) for h in histories) if histories else 1
            padded = np.zeros((len(histories), max_len))
            for row, history in enumerate(histories):
                padded[row, :len(history)] = history
            per_epsilon[epsilon] = padded.mean(axis=0)
        results[dataset_name] = per_epsilon
    return results
