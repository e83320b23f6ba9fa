"""Query model: typed IR, workload generation, planning and exact answering.

The package is the logical query layer of the library:

:mod:`repro.queries.range_query`
    The paper's λ-D range query (:class:`RangeQuery`).
:mod:`repro.queries.ir`
    The typed IR extending it — :class:`MarginalQuery`,
    :class:`PointQuery`, :class:`PredicateCountQuery`,
    :class:`TopKQuery` — plus the typed result classes.
:mod:`repro.queries.planner`
    :class:`QueryPlanner`, which validates a workload against the fitted
    schema into a :class:`QueryPlan`.
:mod:`repro.queries.compiler`
    :class:`CompiledPlan` and :class:`PlanCache` — the one place every
    IR kind lowers onto range primitives: a plan frozen into fused
    NumPy index arrays (grouped gathers in, one vectorised reassembly
    out), so all mechanisms answer mixed workloads through one stack,
    and the bounded LRU that reuses compiled plans across requests.
:mod:`repro.queries.workload`
    Random/exhaustive/mixed workload generation.
:mod:`repro.queries.ground_truth`
    Exact (non-private) answers used as the evaluation baseline.
"""

from .compiler import CompiledPlan, PlanCache, top_k_cells
from .ground_truth import (answer_query, answer_query_from_joint,
                           answer_workload, evaluate_query, evaluate_workload)
from .ir import (QUERY_KINDS, DistributionResult, MarginalQuery, PointQuery,
                 PredicateCountQuery, Query, QueryResult, ScalarResult,
                 TopKQuery, TopKResult, query_kind, validate_query_kinds)
from .planner import QueryPlan, QueryPlanner
from .range_query import Predicate, RangeQuery
from .workload import WorkloadGenerator

__all__ = [
    "CompiledPlan",
    "DistributionResult",
    "MarginalQuery",
    "PlanCache",
    "PointQuery",
    "Predicate",
    "PredicateCountQuery",
    "QUERY_KINDS",
    "Query",
    "QueryPlan",
    "QueryPlanner",
    "QueryResult",
    "RangeQuery",
    "ScalarResult",
    "TopKQuery",
    "TopKResult",
    "WorkloadGenerator",
    "answer_query",
    "answer_query_from_joint",
    "answer_workload",
    "evaluate_query",
    "evaluate_workload",
    "query_kind",
    "top_k_cells",
    "validate_query_kinds",
]
