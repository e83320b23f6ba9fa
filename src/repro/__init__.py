"""repro — reproduction of "Answering Multi-Dimensional Range Queries under
Local Differential Privacy" (Yang et al., VLDB 2020).

The package implements the paper's contributions — the TDG and HDG grid
mechanisms with the granularity guideline — together with every substrate
and baseline its evaluation depends on: LDP frequency oracles (GRR, OLH,
Square Wave), the Uni/MSW/CALM/HIO/LHIO baselines, dataset generators,
query workloads, post-processing, metrics and a per-figure experiment
harness.  Collection is shard-mergeable: TDG, HDG and CALM support
``partial_fit`` / ``merge`` / ``finalize``, and :mod:`repro.mechanisms`
registers every mechanism by its paper name.
Fitted estimators snapshot and restore bitwise
(``save_state``/``load_state``), and :mod:`repro.serving` serves them as
a long-lived HTTP query service with incremental ingest
(``repro serve``).  Beyond range queries, the typed query IR
(:mod:`repro.queries`) adds marginal, point, predicate-count and top-k
queries, all compiled by a workload planner onto the same batched
answering primitives.

Quickstart
----------
>>> import numpy as np
>>> from repro import HDG, WorkloadGenerator, answer_workload, make_dataset
>>> data = make_dataset("normal", 50_000, 4, 32, rng=np.random.default_rng(0))
>>> queries = WorkloadGenerator(4, 32, rng=np.random.default_rng(1)).random_workload(20, 2, 0.5)
>>> mechanism = HDG(epsilon=1.0, seed=0).fit(data)
>>> estimates = mechanism.answer_workload(queries)
>>> truths = answer_workload(data, queries)
"""

from ._version import __version__, package_version
from .baselines import CALM, HIO, LHIO, MSW, Uniform
from .core import (HDG, IHDG, ITDG, TDG, Grid1D, Grid2D, RangeQueryMechanism,
                   build_response_matrix, choose_granularities_hdg,
                   choose_granularity_tdg, estimate_lambda_query)
from .datasets import Dataset, available_datasets, make_dataset
from .experiments import ExperimentConfig, run_experiment, sweep_parameter
from .frequency_oracles import (GeneralizedRandomizedResponse, OptimizedLocalHash,
                                SquareWave, SupportAccumulator)
from .mechanisms import MECHANISMS, build_mechanism
from .metrics import absolute_errors, mean_absolute_error
from .queries import (MarginalQuery, PointQuery, Predicate,
                      PredicateCountQuery, QueryPlanner, RangeQuery, TopKQuery,
                      WorkloadGenerator, answer_query, answer_workload,
                      evaluate_query, evaluate_workload)
from .serving import QueryService, restore_mechanism

__all__ = [
    "CALM",
    "Dataset",
    "ExperimentConfig",
    "GeneralizedRandomizedResponse",
    "Grid1D",
    "Grid2D",
    "HDG",
    "HIO",
    "IHDG",
    "ITDG",
    "LHIO",
    "MECHANISMS",
    "MSW",
    "MarginalQuery",
    "OptimizedLocalHash",
    "PointQuery",
    "Predicate",
    "PredicateCountQuery",
    "QueryPlanner",
    "QueryService",
    "RangeQuery",
    "TopKQuery",
    "RangeQueryMechanism",
    "SquareWave",
    "SupportAccumulator",
    "TDG",
    "Uniform",
    "WorkloadGenerator",
    "__version__",
    "absolute_errors",
    "answer_query",
    "answer_workload",
    "available_datasets",
    "build_mechanism",
    "build_response_matrix",
    "choose_granularities_hdg",
    "choose_granularity_tdg",
    "estimate_lambda_query",
    "evaluate_query",
    "evaluate_workload",
    "make_dataset",
    "mean_absolute_error",
    "package_version",
    "restore_mechanism",
    "run_experiment",
    "sweep_parameter",
]
