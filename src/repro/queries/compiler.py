"""Plan compiler: the fused NumPy execution layout of every workload.

:class:`~repro.queries.QueryPlanner` lowers a workload — plain ranges
or any mix of the five query kinds — onto range primitives: one
:class:`~repro.queries.RangeQuery` per scalar query, and the ``c^λ``
row-major cells of each marginal/top-k table, kept as its attribute
tuple and cell count.  :class:`CompiledPlan` walks that plan *once*
and freezes everything answering needs into NumPy index arrays:

* **execution groups** — primitives partitioned by dimension and
  attribute signature up front: one :class:`SingleGroup` per queried
  attribute (positions + endpoint arrays), one :class:`PairGroup` per
  attribute pair, and for λ > 2 primitives the flattened C(λ,2)
  sub-pair layout plus the per-λ Weighted-Update constraint structure
  (:class:`MultiDimGroup`) — so a pair-decomposable mechanism answers
  the whole workload with one vectorised gather per group and one
  batched Algorithm-2 iteration per distinct λ, no per-primitive
  Python.  A table's cells join these groups as one index block, never
  as per-cell objects; mechanisms without pair decomposition read
  :attr:`CompiledPlan.flat_ranges`, built on first read;
* **reassembly arrays** — scalar results (range, point, count) become
  one fancy-indexed gather with a precomputed scale vector (count
  queries fold their population in); marginal/top-k tables keep their
  precomputed slices and shapes.

Compiled plans are cached across requests by :class:`PlanCache`, a
thread-safe bounded LRU keyed by the fitted schema plus the workload
itself, with hit/miss/eviction counters the serving tier surfaces in
its health document.

Every kernel a group runs (``Grid1D.answer_ranges``,
``Grid2D.answer_ranges``, ``weighted_update_batch``) is
elementwise-independent, and evaluates a one-row group on Python
scalars in the same fold order as a larger group, so a primitive's
answer does not depend on the workload it arrives in.
``tests/test_plan_compiler.py`` pins the compiled answers bitwise to
the per-query scalar reference in ``tests/oracles.py`` for all five
query kinds across all nine mechanisms.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from threading import Lock

import numpy as np

from ..postprocess.norm_sub import norm_sub
from .ir import (DistributionResult, MarginalQuery, PointQuery,
                 PredicateCountQuery, Query, QueryResult, ScalarResult,
                 TopKQuery, TopKResult)
from .planner import QueryPlan, top_k_cells
from .range_query import RangeQuery

__all__ = ["CompiledPlan", "MultiDimGroup", "PairGroup", "PlanCache",
           "SingleGroup"]


# ----------------------------------------------------------------------
# Execution groups
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SingleGroup:
    """All 1-D primitives of one attribute, as endpoint arrays.

    ``positions`` indexes into the flat primitive-answer vector (or the
    sub-answer vector when the group feeds a λ > 2 decomposition).
    """

    attribute: int
    positions: np.ndarray
    lows: np.ndarray
    highs: np.ndarray


@dataclass(frozen=True)
class PairGroup:
    """All 2-D primitives of one (sorted) attribute pair.

    Primitives keep plan order within the group; the mechanism resolves
    grid orientation once per group instead of once per primitive.
    """

    key: tuple[int, int]
    positions: np.ndarray
    row_lows: np.ndarray
    row_highs: np.ndarray
    col_lows: np.ndarray
    col_highs: np.ndarray


@dataclass(frozen=True)
class MultiDimGroup:
    """All λ-D primitives (λ > 2) of one dimension.

    ``sub_index_matrix`` has one row per primitive holding the indices
    of its C(λ,2) sub-answers (in
    :meth:`~repro.queries.RangeQuery.pairwise_subqueries` order) inside
    the flat sub-answer vector; ``index_sets`` is Algorithm 2's
    constraint structure for this λ, precompiled once.
    """

    dimension: int
    positions: np.ndarray
    sub_index_matrix: np.ndarray
    index_sets: list[np.ndarray] = field(repr=False)


@lru_cache(maxsize=16)
def _cell_block(domain_size: int, dimension: int) -> np.ndarray:
    """The ``c^λ`` cells of a λ-D table as a ``(λ, c^λ)`` int64 array.

    Column ``n`` is the ``n``-th cell in row-major order — the order of
    :meth:`~repro.queries.MarginalQuery.cells`.  Cached and read-only:
    every table of the same shape shares it.
    """
    cells = np.indices((domain_size,) * dimension,
                       dtype=np.int64).reshape(dimension, -1)
    cells.flags.writeable = False
    return cells


def _group_columns(key, rows: dict, blocks: dict) -> np.ndarray:
    """Group ``key``'s ``(width, n)`` columns: scalar rows, then table blocks.

    ``rows[key]`` holds one tuple per scalar primitive; each of
    ``blocks[key]`` is a ``(width, n)`` array of table cells.  A group
    without table blocks is built from its rows alone, with no
    concatenation.
    """
    parts = blocks.get(key)
    if not parts:
        return np.asarray(rows[key], dtype=np.int64).T
    if key in rows:
        parts = [np.asarray(rows[key], dtype=np.int64).T, *parts]
    return parts[0] if len(parts) == 1 else np.concatenate(parts, axis=1)


# ----------------------------------------------------------------------
# Reassembly layout
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _ScalarLayout:
    """Vectorised reassembly of every scalar-valued query in the plan."""

    result_positions: list[int]
    queries: list[Query]
    primitive_indices: np.ndarray
    scales: np.ndarray
    populations: list[int | None]


@dataclass(frozen=True)
class _TableLayout:
    """One marginal/top-k query's slice of the primitive answers."""

    result_position: int
    query: Query
    start: int
    stop: int
    shape: tuple[int, ...]
    top_k: int | None


class CompiledPlan:
    """A :class:`~repro.queries.QueryPlan` frozen into fused index arrays.

    Build with :meth:`from_plan`; mechanisms execute the groups through
    their vectorised primitives and hand the flat answer vector to
    :meth:`assemble`.  Mechanisms without pair decomposition run their
    kernel over :attr:`flat_ranges` — the plan's primitive list,
    materialised on first read instead of per call.
    """

    def __init__(self, plan: QueryPlan,
                 single_groups: list[SingleGroup],
                 pair_groups: list[PairGroup],
                 multi_pair_groups: list[PairGroup],
                 multi_dim_groups: list[MultiDimGroup],
                 n_sub_entries: int, scalars: _ScalarLayout,
                 tables: list[_TableLayout]):
        self.plan = plan
        self.n_primitives = plan.n_primitives
        self.n_queries = len(plan.lowered)
        self.single_groups = single_groups
        self.pair_groups = pair_groups
        self.multi_pair_groups = multi_pair_groups
        self.multi_dim_groups = multi_dim_groups
        self.n_sub_entries = n_sub_entries
        self._scalars = scalars
        self._tables = tables

    @cached_property
    def flat_ranges(self) -> list[RangeQuery]:
        """The plan's primitive list, built on first read and kept.

        Only mechanisms without pair decomposition (Uni, MSW, HIO, and
        LHIO with lazy levels) read it; the grouped executor never does.
        """
        return self.plan.ranges

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_plan(cls, plan: QueryPlan, domain_size: int,
                  population: int | None = None) -> "CompiledPlan":
        """Compile a validated plan into its fused execution layout.

        ``domain_size`` shapes marginal/top-k tables (a λ-attribute
        marginal's primitives reshape to ``(c,) * λ``); ``population``
        is the fallback scale for count queries that carry none of
        their own — the same value the planner resolved at lowering
        time, so compiled count answers match the combiner's exactly.

        A scalar query's one primitive is filed row by row; a table's
        ``c^λ`` cells join the same groups as one row-major index block
        (:func:`_cell_block`), with no per-cell Python.
        """
        domain_size = int(domain_size)
        singles: dict[int, list[tuple[int, int, int]]] = {}
        pairs: dict[tuple[int, int], list[tuple[int, int, int, int, int]]] = {}
        multi_pairs: dict[tuple[int, int],
                          list[tuple[int, int, int, int, int]]] = {}
        multis_by_dim: dict[int, tuple[list[int], list[list[int]]]] = {}
        # Table cells, as (width, n) int64 column blocks per group key.
        single_blocks: dict[int, list[np.ndarray]] = {}
        pair_blocks: dict[tuple[int, int], list[np.ndarray]] = {}
        multi_pair_blocks: dict[tuple[int, int], list[np.ndarray]] = {}
        multi_dim_blocks: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        index = 0
        n_sub = 0

        scalar_positions: list[int] = []
        scalar_queries: list[Query] = []
        scalar_primitives: list[int] = []
        scalar_scales: list[float] = []
        scalar_populations: list[int | None] = []
        tables: list[_TableLayout] = []

        for result_position, entry in enumerate(plan.lowered):
            query = entry.query
            primitive = entry.primitive
            start = index
            if primitive is not None:
                index += 1
                predicates = primitive.predicates
                if len(predicates) == 1:
                    predicate = predicates[0]
                    singles.setdefault(predicate.attribute, []).append(
                        (start, predicate.low, predicate.high))
                elif len(predicates) == 2:
                    first, second = predicates
                    pairs.setdefault((first.attribute, second.attribute),
                                     []).append(
                        (start, first.low, first.high, second.low, second.high))
                else:
                    sub_indices = []
                    # Same lexicographic-by-position order as
                    # pairwise_subqueries (Algorithm 2's constraint order).
                    for i in range(len(predicates)):
                        for j in range(i + 1, len(predicates)):
                            multi_pairs.setdefault(
                                (predicates[i].attribute,
                                 predicates[j].attribute), []).append(
                                (n_sub, predicates[i].low, predicates[i].high,
                                 predicates[j].low, predicates[j].high))
                            sub_indices.append(n_sub)
                            n_sub += 1
                    positions, rows = multis_by_dim.setdefault(
                        len(predicates), ([], []))
                    positions.append(start)
                    rows.append(sub_indices)
            else:
                attributes = entry.table_attributes
                cells = _cell_block(domain_size, len(attributes))
                n_cells = cells.shape[1]
                index += n_cells
                positions = np.arange(start, index, dtype=np.int64)
                if len(attributes) == 1:
                    single_blocks.setdefault(attributes[0], []).append(
                        np.stack([positions, cells[0], cells[0]]))
                elif len(attributes) == 2:
                    pair_blocks.setdefault(attributes, []).append(
                        np.stack([positions, cells[0], cells[0],
                                  cells[1], cells[1]]))
                else:
                    # Cell ``n``'s C(λ,2) sub-answers sit contiguously at
                    # n_sub + n·C(λ,2) + k, k in pairwise_subqueries order.
                    n_pairs = len(attributes) * (len(attributes) - 1) // 2
                    sub_index_matrix = (
                        n_sub + n_pairs * np.arange(n_cells, dtype=np.int64)
                    )[:, None] + np.arange(n_pairs, dtype=np.int64)
                    k = 0
                    for i in range(len(attributes)):
                        for j in range(i + 1, len(attributes)):
                            multi_pair_blocks.setdefault(
                                (attributes[i], attributes[j]), []).append(
                                np.stack([sub_index_matrix[:, k],
                                          cells[i], cells[i],
                                          cells[j], cells[j]]))
                            k += 1
                    multi_dim_blocks.setdefault(len(attributes), []).append(
                        (positions, sub_index_matrix))
                    n_sub += n_cells * n_pairs

            if isinstance(query, (RangeQuery, PointQuery)):
                scalar_positions.append(result_position)
                scalar_queries.append(query)
                scalar_primitives.append(start)
                scalar_scales.append(1.0)
                scalar_populations.append(None)
            elif isinstance(query, PredicateCountQuery):
                scale = (query.population if query.population is not None
                         else population)
                assert scale is not None, \
                    "planner resolved the population at lowering time"
                scalar_positions.append(result_position)
                scalar_queries.append(query)
                scalar_primitives.append(start)
                scalar_scales.append(float(scale))
                scalar_populations.append(int(scale))
            elif isinstance(query, MarginalQuery):
                tables.append(_TableLayout(result_position, query, start, index,
                                           (domain_size,) * query.dimension,
                                           None))
            elif isinstance(query, TopKQuery):
                tables.append(_TableLayout(result_position, query, start, index,
                                           (domain_size,) * query.dimension,
                                           int(query.k)))
            else:  # pragma: no cover - planner rejects unknown kinds first
                raise TypeError(f"cannot compile {type(query).__name__}")

        from ..core.query_estimation import lambda_constraint_index_sets

        def single_group(attribute) -> SingleGroup:
            columns = _group_columns(attribute, singles, single_blocks)
            return SingleGroup(attribute, columns[0], columns[1], columns[2])

        def pair_group(key, rows, blocks) -> PairGroup:
            columns = _group_columns(key, rows, blocks)
            return PairGroup(key, columns[0], columns[1], columns[2],
                             columns[3], columns[4])

        multi_dims = []
        for dimension in {**multis_by_dim, **multi_dim_blocks}:
            parts = multi_dim_blocks.get(dimension, [])
            if dimension in multis_by_dim:
                positions, rows = multis_by_dim[dimension]
                parts = [(np.asarray(positions, dtype=np.int64),
                          np.asarray(rows, dtype=np.int64)), *parts]
            positions, rows = parts[0] if len(parts) == 1 else (
                np.concatenate([block for block, _ in parts]),
                np.concatenate([block for _, block in parts]))
            multi_dims.append(MultiDimGroup(
                dimension, positions, rows,
                lambda_constraint_index_sets(dimension)))

        return cls(
            plan=plan,
            single_groups=[single_group(attribute)
                           for attribute in {**singles, **single_blocks}],
            pair_groups=[pair_group(key, pairs, pair_blocks)
                         for key in {**pairs, **pair_blocks}],
            multi_pair_groups=[
                pair_group(key, multi_pairs, multi_pair_blocks)
                for key in {**multi_pairs, **multi_pair_blocks}],
            multi_dim_groups=multi_dims,
            n_sub_entries=n_sub,
            scalars=_ScalarLayout(scalar_positions, scalar_queries,
                                  np.asarray(scalar_primitives,
                                             dtype=np.int64),
                                  np.asarray(scalar_scales, dtype=float),
                                  scalar_populations),
            tables=tables)

    # ------------------------------------------------------------------
    # Reassembly
    # ------------------------------------------------------------------
    def assemble(self, answers: np.ndarray) -> list[QueryResult]:
        """Typed results from the flat primitive answers, in one gather.

        Scalar queries (range, point, count) are gathered and scaled as
        one vectorised pass; marginal tables reshape precomputed
        slices; top-k queries run Norm-Sub + arg-top-k per query (that
        is the query's actual post-processing, not interpretation
        overhead).
        """
        answers = np.asarray(answers, dtype=float)
        if answers.shape != (self.n_primitives,):
            raise ValueError(
                f"plan expects {self.n_primitives} primitive answers, got "
                f"shape {answers.shape}")
        results: list[QueryResult | None] = [None] * self.n_queries
        scalars = self._scalars
        if scalars.queries:
            values = answers[scalars.primitive_indices] * scalars.scales
            for position, query, value, scale in zip(
                    scalars.result_positions, scalars.queries, values,
                    scalars.populations):
                results[position] = ScalarResult(query, float(value),
                                                 population=scale)
        for table in self._tables:
            block = answers[table.start:table.stop].reshape(table.shape)
            if table.top_k is None:
                results[table.result_position] = DistributionResult(
                    table.query, block)
            else:
                estimate = norm_sub(block)
                cells, values = top_k_cells(estimate, table.top_k)
                results[table.result_position] = TopKResult(
                    table.query, cells, values)
        return results  # type: ignore[return-value]


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------
class PlanCache:
    """Thread-safe bounded LRU of compiled plans with usage counters.

    Mechanisms key it by ``(n_attributes, domain_size, population,
    *queries)``: IR queries are frozen dataclasses with tuple fields, so
    a workload hashes as it is, and refits or population changes (which
    alter count-query scaling) miss instead of serving a stale plan.
    The serving tier's answer cache is the same LRU
    (:class:`~repro.serving.AnswerCache`).  ``capacity=0`` disables
    caching (every lookup is a counted miss, ``put`` is a no-op).

    ``get``/``put`` are guarded by one lock; compilation itself runs
    outside it, so concurrent misses may compile the same plan twice —
    the second ``put`` wins, both plans answer identically, and
    ``hits + misses`` always equals the number of lookups.
    """

    def __init__(self, capacity: int = 8):
        if capacity < 0:
            raise ValueError("capacity must be >= 0 (0 disables caching)")
        self.capacity = int(capacity)
        self._lock = Lock()
        self._entries: OrderedDict = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def values(self) -> list:
        """The cached values, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def get(self, key: tuple):
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return value

    def put(self, key: tuple, value) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Counters for health documents and the concurrency tests."""
        with self._lock:
            return {"size": len(self._entries), "capacity": self.capacity,
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions}
