"""Workload planner: validates typed IR workloads against a fitted schema.

The :class:`QueryPlanner` is the gate between the logical query surface
(:mod:`repro.queries.ir`) and the answering mechanisms.  A workload is
*planned* once: every query is checked against the fitted schema
(``d`` attributes, domain size ``c``), and every count query's
population is resolved.  The resulting :class:`QueryPlan` is the
validated workload itself — the queries, their count populations and
``c``.

How each query kind lowers onto range primitives and how its answers
reassemble into typed results is :mod:`repro.queries.compiler`'s
business alone: :class:`~repro.queries.compiler.CompiledPlan` freezes a
plan into fused NumPy index arrays, which is what mechanisms answer,
and :class:`~repro.queries.compiler.PlanCache` keeps compiled plans
across requests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ir import Query, query_kind


@dataclass(frozen=True)
class QueryPlan:
    """A validated workload for one fitted schema.

    ``populations[i]`` is the scale query ``i``'s fractional answer is
    multiplied by: set for count queries (the query's own population,
    else the mechanism's), None for every other kind.  ``domain_size``
    is the ``c`` the queries were validated against.
    """

    queries: list[Query]
    populations: list[int | None]
    domain_size: int


class QueryPlanner:
    """Validates typed workloads for one fitted schema.

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

    def validate(self, query: Query, position: int | None = None) -> None:
        """Check one query against the fitted schema; raise ValueError.

        ``position`` (the query's index in its workload) is woven into
        the message so mixed-workload errors name the offending query.
        """
        self._check(query, query_kind(query), position)

    def _check(self, query: Query, kind: str, position: int | None) -> None:
        if kind == "range" or kind == "count":
            intervals = [(p.attribute, p.low, p.high) for p in query.predicates]
        elif kind == "point":
            intervals = [(a, v, v) for a, v in query.assignment]
        else:
            intervals = [(a, 0, 0) for a in query.attributes]
        for attribute, low, high in intervals:
            if attribute < self.n_attributes and high < self.domain_size:
                continue
            where = (f"query {position} ({kind})" if position is not None
                     else f"{kind} query")
            if attribute >= self.n_attributes:
                raise ValueError(
                    f"{where} references attribute {attribute} but the fitted "
                    f"dataset only has {self.n_attributes} attributes")
            raise ValueError(
                f"{where} interval [{low}, {high}] exceeds the fitted "
                f"domain size {self.domain_size}")

    def plan(self, queries) -> QueryPlan:
        """Validate a whole workload into one :class:`QueryPlan`.

        Every kind lowers onto range primitives, so every mechanism
        answers every kind; a query outside the schema is rejected with
        an error naming its position and kind.
        """
        queries = list(queries)
        populations: list[int | None] = []
        for position, query in enumerate(queries):
            kind = query_kind(query)
            self._check(query, kind, position)
            if kind != "count":
                populations.append(None)
            elif query.population is not None:
                populations.append(query.population)
            elif self.population is not None:
                populations.append(self.population)
            else:
                raise ValueError(
                    f"count query {position} has no population: the "
                    "answering mechanism reports no collected population "
                    "(restored from a pre-population snapshot?) and the "
                    "query does not carry its own — set "
                    "PredicateCountQuery.population explicitly")
        return QueryPlan(queries, populations, self.domain_size)
