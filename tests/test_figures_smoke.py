"""Smoke tests for the per-figure reproduction drivers (tiny scale).

These do not validate the paper's numbers (the claims of
``benchmarks/reproduce_figures.py`` do, at larger scale); they check that
every driver runs end to end and returns series of the right shape.
"""

import numpy as np
import pytest

from repro.experiments import appendix, figures

TINY = dict(n_users=4_000, n_attributes=3, domain_size=16, n_queries=8,
            n_repeats=1, seed=0)
TINY_METHODS = ("Uni", "TDG", "HDG")


def test_figure_1_driver():
    results = figures.figure_1_vary_epsilon(datasets=("normal",),
                                            epsilons=(0.5, 1.0),
                                            query_dimensions=(2,),
                                            methods=TINY_METHODS, **TINY)
    sweep = results[("normal", 2)]
    series = sweep.series()
    assert set(series) == set(TINY_METHODS)
    assert len(series["HDG"]) == 2


def test_figure_2_driver():
    results = figures.figure_2_vary_volume(datasets=("normal",),
                                           volumes=(0.3, 0.7),
                                           query_dimensions=(2,),
                                           methods=TINY_METHODS, **TINY)
    assert len(results[("normal", 2)].values) == 2


def test_figure_3_driver():
    kwargs = {k: v for k, v in TINY.items() if k != "domain_size"}
    results = figures.figure_3_vary_domain(datasets=("normal",),
                                           domain_sizes=(16, 32),
                                           query_dimensions=(2,),
                                           methods=TINY_METHODS, **kwargs)
    assert len(results[("normal", 2)].values) == 2


def test_figure_4_driver():
    kwargs = {k: v for k, v in TINY.items() if k != "n_attributes"}
    results = figures.figure_4_vary_attributes(datasets=("normal",),
                                               attribute_counts=(3, 4),
                                               query_dimensions=(2,),
                                               methods=TINY_METHODS, **kwargs)
    assert len(results[("normal", 2)].values) == 2


def test_figure_5_driver():
    results = figures.figure_5_vary_query_dimension(datasets=("normal",),
                                                    query_dimensions=(2, 3),
                                                    methods=TINY_METHODS, **TINY)
    assert len(results["normal"].values) == 2


def test_figure_6_driver():
    kwargs = {k: v for k, v in TINY.items() if k != "n_users"}
    results = figures.figure_6_vary_population(datasets=("normal",),
                                               populations=(2_000, 4_000),
                                               query_dimensions=(2,),
                                               methods=TINY_METHODS, **kwargs)
    assert len(results[("normal", 2)].values) == 2


def test_figure_7_driver():
    results = figures.figure_7_guideline(datasets=("normal",),
                                         epsilons=(1.0,),
                                         combinations=((8, 2), (8, 4)), **TINY)
    series = results["normal"].series()
    assert "HDG" in series and "HDG(8,4)" in series


def test_figure_8_driver():
    results = figures.figure_8_component_ablation(datasets=("normal",),
                                                  epsilons=(1.0,),
                                                  query_dimensions=(2,), **TINY)
    series = results[("normal", 2)].series()
    assert set(series) == {"ITDG", "IHDG", "TDG", "HDG"}


def test_table_2_driver():
    table = figures.table_2_granularities(epsilons=(1.0,), settings=[(6, 6.0)])
    assert table[(6, 6.0, 1.0)] == (16, 4)


def test_format_figure_results():
    results = figures.figure_1_vary_epsilon(datasets=("normal",),
                                            epsilons=(1.0,),
                                            query_dimensions=(2,),
                                            methods=("Uni",), **TINY)
    text = figures.format_figure_results(results, "Figure 1")
    assert "Figure 1" in text and "Uni" in text


# ----------------------------------------------------------------------
# Appendix drivers
# ----------------------------------------------------------------------
def test_error_distribution_driver():
    results = appendix.figure_9_10_error_distribution(datasets=("normal",),
                                                      query_dimensions=(2,),
                                                      n_users=4_000,
                                                      n_attributes=3,
                                                      domain_size=16,
                                                      n_queries=10, seed=0)
    panel = results[("normal", 2)]
    assert set(panel) == {"TDG", "HDG"}
    assert panel["HDG"]["errors"].shape == (10,)


def test_full_marginal_driver():
    results = appendix.figure_11_full_marginals(datasets=("normal",),
                                                epsilons=(1.0,),
                                                methods=("Uni", "HDG"),
                                                n_users=4_000, n_attributes=3,
                                                domain_size=8, seed=0)
    assert len(results["normal"].values) == 1


def test_full_range_driver():
    results = appendix.figure_12_full_range(datasets=("normal",),
                                            epsilons=(1.0,),
                                            methods=("Uni", "HDG"),
                                            n_users=4_000, n_attributes=3,
                                            domain_size=8, volume=0.5, seed=0)
    assert len(results["normal"].values) == 1


def test_count_conditioned_driver():
    results = appendix.figure_13_14_count_conditioned(datasets=("normal",),
                                                      query_dimensions=(3,),
                                                      zero_count=False,
                                                      methods=("Uni", "HDG"),
                                                      n_users=4_000,
                                                      n_attributes=3,
                                                      domain_size=16,
                                                      n_queries=5, seed=0)
    assert len(results["normal"].values) == 1


def test_user_split_driver():
    results = appendix.figure_15_user_split(datasets=("normal",),
                                            sigmas=(0.3, 0.6),
                                            epsilons=(1.0,), n_users=4_000,
                                            n_attributes=3, domain_size=16,
                                            n_queries=8, seed=0)
    assert len(results["normal"][1.0].values) == 2


def test_convergence_drivers():
    matrix = appendix.figure_17_convergence_matrix(datasets=("normal",),
                                                   epsilons=(1.0,),
                                                   n_users=4_000,
                                                   n_attributes=3,
                                                   domain_size=16,
                                                   max_iterations=5, seed=0)
    assert len(matrix["normal"][1.0]) == 5
    query = appendix.figure_18_convergence_query(datasets=("normal",),
                                                 epsilons=(1.0,),
                                                 query_dimension=3,
                                                 n_users=4_000,
                                                 n_attributes=3,
                                                 domain_size=16,
                                                 n_queries=3,
                                                 max_iterations=10, seed=0)
    assert len(query["normal"][1.0]) >= 1


def test_covariance_driver():
    results = appendix.figure_28_covariance(datasets=("normal",),
                                            covariances=(0.0,),
                                            epsilons=(1.0,),
                                            query_dimensions=(2,),
                                            methods=("Uni", "HDG"),
                                            n_users=4_000, n_attributes=3,
                                            domain_size=16, n_queries=8,
                                            seed=0)
    assert ("normal", 0.0, 2) in results
