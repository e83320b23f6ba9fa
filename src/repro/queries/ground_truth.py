"""Exact (non-private) query answering used as the evaluation baseline.

The utility metric in the paper compares each mechanism's estimate against
the true query answer computed directly on the raw dataset; this module
provides that ground truth, vectorised over numpy so full workloads of
hundreds of queries stay cheap even for millions of records.

Range workloads keep the flat float-vector interface
(:func:`answer_workload`); the typed IR kinds — marginal, point, count,
top-k — are evaluated through :func:`evaluate_query` /
:func:`evaluate_workload`, which return the same typed result objects
the mechanisms' compiled path produces so estimates and truths can be
scored pairwise (:func:`repro.metrics.result_error`).
"""

from __future__ import annotations

import numpy as np

from ..datasets import Dataset
from .ir import (DistributionResult, MarginalQuery, PointQuery,
                 PredicateCountQuery, QueryResult, ScalarResult, TopKQuery,
                 TopKResult, query_kind)
from .range_query import RangeQuery


def answer_query(dataset: Dataset, query: RangeQuery) -> float:
    """Exact answer of one range query: fraction of matching records."""
    mask = np.ones(dataset.n_users, dtype=bool)
    for predicate in query.predicates:
        column = dataset.column(predicate.attribute)
        mask &= (column >= predicate.low) & (column <= predicate.high)
    return float(mask.mean())


def answer_workload(dataset: Dataset, queries: list[RangeQuery]) -> np.ndarray:
    """Exact answers for a list of range queries.

    Typed IR workloads (marginal/point/count/top-k results are not
    scalars) go through :func:`evaluate_workload` instead.
    """
    for position, query in enumerate(queries):
        if not isinstance(query, RangeQuery):
            raise TypeError(
                f"answer_workload only takes range queries; query {position} "
                f"is a {query_kind(query)} query — use evaluate_workload for "
                "typed IR workloads")
    return np.array([answer_query(dataset, q) for q in queries])


def evaluate_query(dataset: Dataset, query) -> QueryResult:
    """Exact typed answer of one IR query (any kind).

    The result mirrors what the mechanisms' compiled path produces for
    the same query, with two ground-truth extras: a count query with no
    explicit population is scaled by the dataset's own size, and a
    top-k result carries the full true marginal table so estimated
    selections can be scored cell-by-cell.
    """
    if isinstance(query, RangeQuery):
        return ScalarResult(query, answer_query(dataset, query))
    if isinstance(query, PointQuery):
        return ScalarResult(query, answer_query(dataset, query.as_range()))
    if isinstance(query, PredicateCountQuery):
        population = (query.population if query.population is not None
                      else dataset.n_users)
        fraction = answer_query(dataset, query.as_range())
        return ScalarResult(query, fraction * population,
                            population=population)
    if isinstance(query, MarginalQuery):
        return DistributionResult(query, dataset.marginal_table(query.attributes))
    if isinstance(query, TopKQuery):
        # Deferred import: the compiler imports this module's siblings.
        from .compiler import top_k_cells
        table = dataset.marginal_table(query.attributes)
        cells, values = top_k_cells(table, query.k)
        return TopKResult(query, cells, values, distribution=table)
    raise TypeError(f"cannot evaluate {type(query).__name__} exactly")


def evaluate_workload(dataset: Dataset, queries: list) -> list[QueryResult]:
    """Exact typed answers for a mixed IR workload."""
    return [evaluate_query(dataset, query) for query in queries]


def answer_query_from_joint(joint: np.ndarray, query: RangeQuery,
                            attribute_order: tuple[int, ...]) -> float:
    """Answer a query from an exact joint distribution table.

    ``joint`` is an array whose axes correspond, in order, to the
    attributes listed in ``attribute_order``; unrestricted attributes are
    summed out.  Used by tests to cross-check the record-level path.
    """
    index = []
    for attribute in attribute_order:
        if attribute in query.attributes:
            low, high = query.interval(attribute)
            index.append(slice(low, high + 1))
        else:
            index.append(slice(None))
    return float(joint[tuple(index)].sum())
