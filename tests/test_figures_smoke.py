"""Smoke tests for the paper's figure sweeps and drivers (tiny scale).

These do not validate the paper's numbers (the claims of
``benchmarks/reproduce_figures.py`` do, at larger scale); they check that
each figure's panel sweep, with the settings its row spells out, runs end
to end and returns panels and series of the right shape.
"""

import sys
import warnings
from pathlib import Path

import pytest

from repro.experiments import (DEFAULT_METHODS, METHODS_WITHOUT_HIO,
                               ExperimentConfig, appendix, figures,
                               sweep_panels, sweep_parameter)

ROOT = Path(__file__).resolve().parents[1]

TINY = dict(n_users=4_000, n_attributes=3, domain_size=16, n_queries=8,
            n_repeats=1, seed=0)
TINY_METHODS = ("Uni", "TDG", "HDG")


@pytest.fixture(scope="module")
def script():
    sys.path.insert(0, str(ROOT / "benchmarks"))
    try:
        import reproduce_figures
    finally:
        sys.path.remove(str(ROOT / "benchmarks"))
    return reproduce_figures


def _without(*keys: str) -> dict:
    return {k: v for k, v in TINY.items() if k not in keys}


def test_figure_1_driver():
    results = sweep_panels("epsilon", (0.5, 1.0),
                           {"dataset": ("normal",), "query_dimension": (2,)},
                           methods=TINY_METHODS, volume=0.5, **TINY)
    sweep = results[("normal", 2)]
    series = sweep.series()
    assert set(series) == set(TINY_METHODS)
    assert len(series["HDG"]) == 2


def test_figure_2_driver():
    results = sweep_panels("volume", (0.3, 0.7),
                           {"dataset": ("normal",), "query_dimension": (2,)},
                           methods=TINY_METHODS, epsilon=1.0, **TINY)
    assert len(results[("normal", 2)].values) == 2


def test_figure_3_driver():
    results = sweep_panels("domain_size", (16, 32),
                           {"dataset": ("normal",), "query_dimension": (2,)},
                           methods=TINY_METHODS, epsilon=1.0, volume=0.5,
                           **_without("domain_size"))
    assert len(results[("normal", 2)].values) == 2


def test_figure_4_driver():
    results = sweep_panels("n_attributes", (3, 4),
                           {"dataset": ("normal",), "query_dimension": (2,)},
                           methods=TINY_METHODS, epsilon=1.0, volume=0.5,
                           **_without("n_attributes"))
    assert len(results[("normal", 2)].values) == 2


def test_figure_5_driver():
    results = sweep_panels("query_dimension", (2, 3), {"dataset": ("normal",)},
                           methods=TINY_METHODS, epsilon=1.0, volume=0.5,
                           **TINY)
    assert len(results["normal"].values) == 2


def test_figure_6_driver():
    results = sweep_panels("n_users", (2_000, 4_000),
                           {"dataset": ("normal",), "query_dimension": (2,)},
                           methods=TINY_METHODS, epsilon=1.0, volume=0.5,
                           **_without("n_users"))
    assert len(results[("normal", 2)].values) == 2


def test_figure_7_driver(script):
    results = sweep_panels("epsilon", (1.0,), {"dataset": ("normal",)},
                           methods=script._guideline(((8, 2), (8, 4))),
                           query_dimension=2, volume=0.5, **TINY)
    series = results["normal"].series()
    assert "HDG" in series and "HDG(8,4)" in series


def test_figure_8_driver():
    results = sweep_panels("epsilon", (1.0,),
                           {"dataset": ("normal",), "query_dimension": (2,)},
                           methods=("ITDG", "IHDG", "TDG", "HDG"), volume=0.5,
                           **TINY)
    series = results[("normal", 2)].series()
    assert set(series) == {"ITDG", "IHDG", "TDG", "HDG"}


def test_table_2_driver():
    table = figures.table_2_granularities(epsilons=(1.0,), settings=[(6, 6.0)])
    assert table[(6, 6.0, 1.0)] == (16, 4)


def test_format_figure_results():
    results = sweep_panels("epsilon", (1.0,),
                           {"dataset": ("normal",), "query_dimension": (2,)},
                           methods=("Uni",), **TINY)
    text = figures.format_figure_results(results, "Figure 1")
    assert "Figure 1" in text and "Uni" in text


def test_panel_keys_are_tuples_or_bare_datasets_in_panel_order():
    """Renderers print panels in dict order: datasets outer, λ inner."""
    two_axes = sweep_panels("epsilon", (1.0,),
                            {"dataset": ("laplace", "normal"),
                             "query_dimension": (3, 2)},
                            methods=("Uni",), **TINY)
    assert list(two_axes) == [("laplace", 3), ("laplace", 2),
                              ("normal", 3), ("normal", 2)]
    for (dataset, dimension), sweep in two_axes.items():
        [result] = sweep.results
        assert (result.config.dataset, result.config.query_dimension) == (
            dataset, dimension)
    one_axis = sweep_panels("epsilon", (1.0,),
                            {"dataset": ("normal", "laplace")},
                            methods=("Uni",), **TINY)
    assert list(one_axis) == ["normal", "laplace"]
    text = figures.format_figure_results(two_axes, "order")
    panels = [line for line in text.splitlines() if line.startswith("-- panel")]
    assert panels == [f"-- panel {key} --" for key in two_axes]


def test_panel_sweep_matches_one_sweep_per_panel():
    """A panel's sweep is the sweep of its own config."""
    results = sweep_panels("epsilon", (0.5, 1.0), {"dataset": ("laplace",)},
                           methods=TINY_METHODS, **TINY)
    alone = sweep_parameter(ExperimentConfig(dataset="laplace",
                                             methods=TINY_METHODS, **TINY),
                            "epsilon", [0.5, 1.0])
    assert results["laplace"].values == alone.values == [0.5, 1.0]
    assert results["laplace"].series() == alone.series()


def test_figure_rows_put_datasets_outermost(script):
    """The sweep rows' panels at quick scale, without running a sweep."""
    shapes = {row.id: row.quick.get("panels") for row in script.FIGURES
              if row.call is sweep_panels}
    assert shapes["fig01_vary_epsilon"] == {"dataset": ("ipums", "normal"),
                                            "query_dimension": (2, 4)}
    assert shapes["fig05_vary_query_dim"] == {"dataset": ("ipums", "normal")}
    assert all(list(panels)[0] == "dataset" for panels in shapes.values())


# ----------------------------------------------------------------------
# Appendix drivers and workloads
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
    results = sweep_panels("epsilon", (1.0,), {"dataset": ("normal",)},
                           workload_factory=appendix.full_marginal_workload,
                           methods=("Uni", "HDG"), query_dimension=2,
                           n_queries=1, n_users=4_000, n_attributes=3,
                           domain_size=8, seed=0)
    assert len(results["normal"].values) == 1


def test_full_range_driver():
    results = sweep_panels("epsilon", (1.0,), {"dataset": ("normal",)},
                           workload_factory=appendix.full_range_workload,
                           methods=("Uni", "HDG"), query_dimension=2,
                           n_queries=1, n_users=4_000, n_attributes=3,
                           domain_size=8, volume=0.5, seed=0)
    assert len(results["normal"].values) == 1


def test_count_conditioned_driver():
    results = sweep_panels("query_dimension", (3,), {"dataset": ("normal",)},
                           workload_factory=appendix.nonzero_count_workload,
                           methods=("Uni", "HDG"), epsilon=1.0, volume=0.7,
                           n_users=4_000, n_attributes=3, domain_size=16,
                           n_queries=5, seed=0)
    assert len(results["normal"].values) == 1


def test_appendix_workloads_go_to_worker_processes():
    """The appendix factories are module-level functions: a parallel
    sweep sends them to its workers (no closure fallback warning) and
    matches the in-process sweep."""
    settings = dict(workload_factory=appendix.zero_count_workload,
                    methods=("Uni", "HDG"), volume=0.3, n_users=4_000,
                    n_attributes=3, domain_size=16, n_queries=5, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parallel = sweep_panels("query_dimension", (2, 3),
                                {"dataset": ("normal",)}, n_jobs=2,
                                **settings)
    alone = sweep_panels("query_dimension", (2, 3), {"dataset": ("normal",)},
                         **settings)
    assert parallel["normal"].series() == alone["normal"].series()


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


def test_covariance_driver(script):
    results = script._covariance(datasets=("normal",), covariances=(0.0,),
                                 query_dimensions=(2,), parameter="epsilon",
                                 values=(1.0,), methods=("Uni", "HDG"),
                                 n_users=4_000, n_attributes=3,
                                 domain_size=16, n_queries=8, seed=0)
    assert ("normal", 0.0, 2) in results
    [result] = results[("normal", 0.0, 2)].results
    assert result.config.dataset_kwargs == {"covariance": 0.0}


def test_guideline_d_and_new_dataset_rows_nest_their_panels(script):
    """Figures 16 and 19-21 are several panel sweeps, keyed by d and by
    sub-figure; Figure 21 leaves HIO out like Figure 4."""
    guideline = script._guideline_d(attribute_counts=(3, 4),
                                    parameter="epsilon", values=(1.0,),
                                    panels={"dataset": ("normal",)},
                                    methods=("Uni",), **_without("n_attributes"))
    assert list(guideline) == [3, 4]
    assert guideline[4]["normal"].results[0].config.n_attributes == 4
    new = script._new_datasets(epsilons=(1.0,), volumes=(0.5,),
                               attribute_counts=(3,),
                               panels={"dataset": ("normal",),
                                       "query_dimension": (2,)}, **TINY)
    assert list(new) == ["fig19_epsilon", "fig20_volume", "fig21_attributes"]
    assert tuple(new["fig19_epsilon"][("normal", 2)].series()) == DEFAULT_METHODS
    assert tuple(new["fig21_attributes"][("normal", 2)].series()) == (
        METHODS_WITHOUT_HIO)
