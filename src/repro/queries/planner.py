"""Workload planner: compiles typed IR queries onto range primitives.

The :class:`QueryPlanner` is the compiler layer between the logical
query surface (:mod:`repro.queries.ir`) and the mechanisms' physical
primitives (batched range answering over 1-D/2-D grid estimates).  A
workload is *planned* once — every query is validated against the
fitted schema, checked against the answering mechanism's declared
capabilities, and lowered onto :class:`~repro.queries.RangeQuery`
primitives — and the resulting :class:`QueryPlan` reassembles the
primitive answers into typed results:

========  =====================================  ========================
Kind      Lowering                               Combiner
========  =====================================  ========================
range     itself (one primitive)                 identity
point     one degenerate width-1 range           identity
count     one range                              ``× population``
marginal  ``c^λ`` width-1 cells, row-major       reshape to the λ-D table
topk      the full marginal's cells              Norm-Sub, then arg-top-k
========  =====================================  ========================

Because every lowering lands on range primitives, all nine mechanisms
answer every query type through one answering path.  A table query
(marginal, top-k) is lowered to its attribute tuple and cell count
only: :mod:`repro.queries.compiler` turns the ``c^λ`` cells straight
into index arrays, and :attr:`LoweredQuery.ranges` builds the per-cell
:class:`~repro.queries.RangeQuery` list only when something reads it.

Mechanisms do not interpret a :class:`QueryPlan` per request:
:mod:`repro.queries.compiler` lowers a plan once into fused NumPy index
arrays (:class:`~repro.queries.compiler.CompiledPlan`), which is what
mechanisms answer, and caches the result across requests in a bounded
LRU (:class:`~repro.queries.compiler.PlanCache`).  The planner remains
the validation and lowering authority; :meth:`QueryPlan.assemble` is the
interpreted reassembly the compiled one is tested against
(``tests/test_plan_compiler.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..postprocess.norm_sub import norm_sub
from .ir import (QUERY_KINDS, DistributionResult, MarginalQuery, PointQuery,
                 PredicateCountQuery, Query, QueryResult, ScalarResult,
                 TopKQuery, TopKResult, query_kind)
from .range_query import RangeQuery

#: Capability set granting every query kind (the library-wide default:
#: all nine mechanisms answer ranges, so the planner can lower anything).
ALL_QUERY_KINDS = frozenset(QUERY_KINDS)


def top_k_cells(values: np.ndarray, k: int) -> tuple[tuple[tuple[int, ...], ...],
                                                     np.ndarray]:
    """Deterministic top-k selection over a marginal table.

    Returns the ``k`` largest cells (as value tuples) and their
    frequencies, sorted by descending frequency with ties broken by
    row-major cell order — stable, so snapshot-restored estimators
    reproduce the selection bit-for-bit.
    """
    flat = values.ravel()
    k = min(int(k), flat.size)
    order = np.argsort(-flat, kind="stable")[:k]
    cells = np.stack(np.unravel_index(order, values.shape), axis=1)
    return tuple(map(tuple, cells.tolist())), flat[order].astype(float)


@dataclass
class LoweredQuery:
    """One planned query: its primitives plus the reassembly step.

    A scalar query (range, point, count) lowers to its one range
    ``primitive``.  A table query (marginal, top-k) lowers to the
    ``c^λ`` width-1 cells of ``table_attributes`` in row-major order,
    kept as the attribute tuple and ``domain_size`` alone: the compiler
    turns them into index arrays, and :attr:`ranges` builds the
    per-cell range list only when it is read.
    """

    query: Query
    combine: Callable[[np.ndarray], QueryResult]
    primitive: RangeQuery | None = None
    table_attributes: tuple[int, ...] = ()
    domain_size: int = 0

    @property
    def n_primitives(self) -> int:
        """Number of range primitives the query lowers to."""
        if self.primitive is not None:
            return 1
        return self.domain_size ** len(self.table_attributes)

    @property
    def ranges(self) -> list[RangeQuery]:
        """The query's range primitives, built on every read."""
        if self.primitive is not None:
            return [self.primitive]
        return MarginalQuery(self.table_attributes).to_ranges(
            self.domain_size)


@dataclass
class QueryPlan:
    """A compiled workload: flat primitives plus per-query reassembly.

    ``ranges`` is the concatenation of every lowered query's primitives
    in workload order; :meth:`assemble` slices a flat answer vector back
    into one typed result per original query.
    """

    lowered: list[LoweredQuery]

    @property
    def queries(self) -> list[Query]:
        """The original workload, in order."""
        return [entry.query for entry in self.lowered]

    @property
    def ranges(self) -> list[RangeQuery]:
        """Every primitive range of the plan, in lowering order."""
        return [primitive for entry in self.lowered
                for primitive in entry.ranges]

    @property
    def n_primitives(self) -> int:
        """Total number of range primitives the plan executes."""
        return sum(entry.n_primitives for entry in self.lowered)

    def assemble(self, answers: np.ndarray) -> list[QueryResult]:
        """Slice flat primitive answers into typed per-query results."""
        answers = np.asarray(answers, dtype=float)
        if answers.shape != (self.n_primitives,):
            raise ValueError(
                f"plan expects {self.n_primitives} primitive answers, got "
                f"shape {answers.shape}")
        results = []
        start = 0
        for entry in self.lowered:
            stop = start + entry.n_primitives
            results.append(entry.combine(answers[start:stop]))
            start = stop
        return results


class QueryPlanner:
    """Validates and lowers typed workloads for one fitted schema.

    Parameters
    ----------
    domain_size:
        Per-attribute domain size ``c`` of the fitted data.
    n_attributes:
        Attribute count ``d`` of the fitted data.
    population:
        Collected population, used to scale
        :class:`~repro.queries.PredicateCountQuery` answers whose
        ``population`` field is unset.  None is allowed as long as every
        count query carries its own population.
    """

    def __init__(self, domain_size: int, n_attributes: int,
                 population: int | None = None):
        if domain_size < 2:
            raise ValueError("domain_size must be >= 2")
        if n_attributes < 1:
            raise ValueError("n_attributes must be >= 1")
        self.domain_size = int(domain_size)
        self.n_attributes = int(n_attributes)
        self.population = population if population is None else int(population)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, query: Query, position: int | None = None) -> None:
        """Check one query against the fitted schema; raise ValueError.

        ``position`` (the query's index in its workload) is woven into
        the message so mixed-workload errors name the offending query.
        """
        where = f"query {position} ({query_kind(query)})" if position is not None \
            else f"{query_kind(query)} query"
        if isinstance(query, (RangeQuery, PredicateCountQuery)):
            intervals = [(p.attribute, p.low, p.high) for p in query.predicates]
        elif isinstance(query, PointQuery):
            intervals = [(a, v, v) for a, v in query.assignment]
        elif isinstance(query, (MarginalQuery, TopKQuery)):
            intervals = [(a, 0, 0) for a in query.attributes]
        else:
            raise TypeError(f"cannot plan {type(query).__name__}; known "
                            f"kinds: {', '.join(QUERY_KINDS)}")
        for attribute, low, high in intervals:
            if attribute >= self.n_attributes:
                raise ValueError(
                    f"{where} references attribute {attribute} but the fitted "
                    f"dataset only has {self.n_attributes} attributes")
            if high >= self.domain_size:
                raise ValueError(
                    f"{where} interval [{low}, {high}] exceeds the fitted "
                    f"domain size {self.domain_size}")

    def resolve_population(self, query: PredicateCountQuery,
                           position: int | None = None) -> int:
        """The scale a count query's fractional answer is multiplied by."""
        if query.population is not None:
            return query.population
        if self.population is not None:
            return self.population
        where = f"count query {position}" if position is not None \
            else "count query"
        raise ValueError(
            f"{where} has no population: the answering mechanism reports no "
            "collected population (restored from a pre-population snapshot?) "
            "and the query does not carry its own — set "
            "PredicateCountQuery.population explicitly")

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def lower(self, query: Query,
              position: int | None = None) -> LoweredQuery:
        """Lower one validated query to primitives plus its combiner."""
        if isinstance(query, RangeQuery):
            return LoweredQuery(query,
                                lambda a, q=query: ScalarResult(q, float(a[0])),
                                primitive=query)
        if isinstance(query, PointQuery):
            return LoweredQuery(query,
                                lambda a, q=query: ScalarResult(q, float(a[0])),
                                primitive=query.as_range())
        if isinstance(query, PredicateCountQuery):
            population = self.resolve_population(query, position)
            return LoweredQuery(
                query,
                lambda a, q=query, n=population: ScalarResult(
                    q, float(a[0]) * n, population=n),
                primitive=query.as_range())
        if isinstance(query, MarginalQuery):
            shape = (self.domain_size,) * query.dimension

            def combine_marginal(a, q=query, s=shape):
                """Reshape the flat cell answers into the λ-D table."""
                return DistributionResult(q, np.asarray(a, dtype=float).reshape(s))

            return LoweredQuery(query, combine_marginal,
                                table_attributes=query.attributes,
                                domain_size=self.domain_size)
        if isinstance(query, TopKQuery):
            shape = (self.domain_size,) * query.dimension

            def combine_topk(a, q=query, s=shape):
                """Norm-Sub the estimated table, then take the arg-top-k."""
                table = norm_sub(np.asarray(a, dtype=float).reshape(s))
                cells, values = top_k_cells(table, q.k)
                return TopKResult(q, cells, values)

            return LoweredQuery(query, combine_topk,
                                table_attributes=query.attributes,
                                domain_size=self.domain_size)
        raise TypeError(f"cannot plan {type(query).__name__}; known kinds: "
                        f"{', '.join(QUERY_KINDS)}")

    def plan(self, queries,
             capabilities: frozenset[str] = ALL_QUERY_KINDS) -> QueryPlan:
        """Validate and lower a whole workload into one :class:`QueryPlan`.

        ``capabilities`` is the answering mechanism's declared set of
        supported query kinds; queries outside it are rejected with an
        error naming the query's position and kind.
        """
        lowered = []
        for position, query in enumerate(queries):
            kind = query_kind(query)
            if kind not in capabilities:
                raise ValueError(
                    f"query {position} is a {kind} query, which this "
                    f"mechanism does not support (capabilities: "
                    f"{', '.join(sorted(capabilities))})")
            self.validate(query, position)
            lowered.append(self.lower(query, position))
        return QueryPlan(lowered)
