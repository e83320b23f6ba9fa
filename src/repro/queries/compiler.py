"""Plan compiler: the fused NumPy execution layout of every workload.

:class:`~repro.queries.QueryPlanner` lowers a workload — plain ranges
or any mix of the five query kinds — onto range primitives: one
:class:`~repro.queries.RangeQuery` per scalar query, and the ``c^λ``
row-major cells of each marginal/top-k table, kept as its attribute
tuple and cell count.  :class:`CompiledPlan` walks that plan *once*
and freezes everything answering needs into NumPy index arrays:

* **execution blocks** — a fixed number of arrays whatever the
  workload: an :class:`AttributeBlock` with every 1-D row and a
  :class:`PairBlock` with every 2-D row (the λ = 2 primitives and the
  C(λ,2) sub-pairs of the λ > 2 ones, keyed by :func:`pair_slot`),
  plus per distinct λ > 2 the Weighted-Update layout
  (:class:`MultiDimGroup`).  A pair-decomposable mechanism answers
  each block with one gather over its stacked grid tables and each λ
  with one batched Algorithm-2 call, no per-primitive Python.  A
  table's cells join the blocks as index arrays, never as per-cell
  objects; mechanisms without pair decomposition read
  :attr:`CompiledPlan.flat_ranges`, built on first read;
* **reassembly arrays** — scalar results (range, point, count) become
  one fancy-indexed gather with a precomputed scale vector (count
  queries fold their population in); marginal/top-k tables keep their
  precomputed slices and shapes.

Compiled plans are cached across requests by :class:`PlanCache`, a
thread-safe bounded LRU keyed by the fitted schema plus the workload
itself, with hit/miss/eviction counters the serving tier surfaces in
its health document.

Every kernel a block runs (the stacked gathers of
:mod:`repro.core.prefix_sum`, ``weighted_update_batch``) is
elementwise-independent, and evaluates a small block on Python scalars
in the same fold order as a larger one, so a primitive's answer does
not depend on the workload it arrives in.
``tests/test_plan_compiler.py`` pins the compiled answers bitwise to
the per-query scalar reference in ``tests/oracles.py`` for all five
query kinds across all nine mechanisms.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from threading import Lock
from typing import NamedTuple

import numpy as np

from ..postprocess.norm_sub import norm_sub
from .ir import (DistributionResult, MarginalQuery, PointQuery,
                 PredicateCountQuery, Query, QueryResult, ScalarResult,
                 TopKQuery, TopKResult)
from .planner import QueryPlan, top_k_cells
from .range_query import RangeQuery

__all__ = ["AttributeBlock", "CompiledPlan", "MultiDimGroup", "PairBlock",
           "PlanCache", "pair_slot"]


# ----------------------------------------------------------------------
# Execution blocks
# ----------------------------------------------------------------------
def pair_slot(first: int, second: int) -> int:
    """Slot of attribute pair ``first < second`` in a stack of pair tables.

    Colex order — (0, 1), (0, 2), (1, 2), (0, 3), ... — numbers the
    C(d,2) pairs of any ``d`` densely from 0, so a plan is compiled
    without knowing ``d``.
    """
    return second * (second - 1) // 2 + first


class AttributeBlock(NamedTuple):
    """Every 1-D primitive of a plan, one row each.

    Row ``k`` asks attribute ``attributes[k]`` for ``[lows[k],
    highs[k]]``; its answer goes to ``positions[k]`` of the answer
    vector.
    """

    positions: np.ndarray
    attributes: np.ndarray
    lows: np.ndarray
    highs: np.ndarray


class PairBlock(NamedTuple):
    """Every 2-D rectangle of a plan, one row each.

    The rows are the λ = 2 primitives and the C(λ,2) sub-pairs of the
    λ > 2 primitives.  Row ``k`` asks pair slot ``pairs[k]``
    (:func:`pair_slot`) for rows ``[row_lows[k], row_highs[k]]`` of the
    pair's first attribute and columns ``[col_lows[k], col_highs[k]]``
    of its second.  ``positions`` index the answers-plus-sub-answers
    vector: a primitive's own position, or ``n_primitives`` plus the
    sub-answer's index.
    """

    positions: np.ndarray
    pairs: np.ndarray
    row_lows: np.ndarray
    row_highs: np.ndarray
    col_lows: np.ndarray
    col_highs: np.ndarray


def _table_rows(tables: list[tuple[int, int]], domain_size: int,
                dimension: int) -> list[np.ndarray]:
    """The rows of λ = ``dimension`` tables, as one ``(width, n)`` part.

    ``tables`` holds each table's first position and its attribute or
    pair slot.  Every table's cells are the same row-major block, each
    axis's value as both the low and the high endpoint.
    """
    if not tables:
        return []
    starts, keys = np.array(tables, dtype=np.int64).T
    cells = np.repeat(_cell_block(domain_size, dimension), 2, axis=0)
    n_cells = cells.shape[1]
    return [np.concatenate([
        (starts[:, None] + np.arange(n_cells)).reshape(1, -1),
        np.repeat(keys, n_cells)[None], np.tile(cells, len(tables))])]


@lru_cache(maxsize=None)
def _empty_block(cls):
    """The empty block of ``cls``, shared and read-only."""
    columns = np.empty((len(cls._fields), 0), dtype=np.int64)
    columns.flags.writeable = False
    return cls(*columns)


def _block(cls, rows: list[tuple], parts: list[np.ndarray]):
    """A block of ``cls`` from scalar rows, then ``(width, n)`` table parts."""
    if rows:
        parts = [np.array(rows, dtype=np.int64).T, *parts]
    if not parts:
        return _empty_block(cls)
    return cls(*(parts[0] if len(parts) == 1
                 else np.concatenate(parts, axis=1)))


@dataclass(frozen=True)
class MultiDimGroup:
    """All λ-D primitives (λ > 2) of one dimension.

    ``sub_index_matrix`` has one row per primitive holding the positions
    of its C(λ,2) sub-answers (in
    :meth:`~repro.queries.RangeQuery.pairwise_subqueries` order) in the
    answers-plus-sub-answers vector; ``index_sets`` is Algorithm 2's
    constraint structure for this λ (shared and read-only).
    """

    dimension: int
    positions: np.ndarray
    sub_index_matrix: np.ndarray
    index_sets: tuple[np.ndarray, ...] = field(repr=False)


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

    Build with :meth:`from_plan`; pair-decomposable mechanisms answer
    the :attr:`singles` and :attr:`pairs` blocks with one gather each,
    combine the :attr:`multi_dim_groups`, and hand the flat answer
    vector to :meth:`assemble`.  Mechanisms without pair decomposition
    run their kernel over :attr:`flat_ranges` — the plan's primitive
    list, materialised on first read instead of per call.
    """

    def __init__(self, plan: QueryPlan, n_primitives: int,
                 singles: AttributeBlock, pairs: PairBlock,
                 multi_dim_groups: list[MultiDimGroup],
                 n_sub_entries: int, scalars: _ScalarLayout,
                 tables: list[_TableLayout]):
        self.plan = plan
        self.n_primitives = n_primitives
        self.n_queries = len(plan.lowered)
        self.singles = singles
        self.pairs = pairs
        self.multi_dim_groups = multi_dim_groups
        self.n_sub_entries = n_sub_entries
        self._scalars = scalars
        self._tables = tables

    @cached_property
    def flat_ranges(self) -> list[RangeQuery]:
        """The plan's primitive list, built on first read and kept.

        Only mechanisms without pair decomposition (Uni, MSW, HIO, and
        LHIO with lazy levels) read it; the block executor never does.
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

        A scalar query's primitive is filed as one row (or C(λ,2)
        sub-pair rows); a table's ``c^λ`` cells join the same blocks as
        one row-major index block (:func:`_cell_block`), with no
        per-cell Python.
        """
        domain_size = int(domain_size)
        n_primitives = plan.n_primitives
        single_rows: list[tuple[int, int, int, int]] = []
        pair_rows: list[tuple[int, int, int, int, int, int]] = []
        # 1-D and 2-D tables as (first position, attribute or pair slot);
        # λ > 2 table cells as (width, n) int64 column blocks.
        single_tables: list[tuple[int, int]] = []
        pair_tables: list[tuple[int, int]] = []
        pair_parts: list[np.ndarray] = []
        multis_by_dim: dict[int, tuple[list[int], list[list[int]]]] = {}
        multi_dim_blocks: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
        index = 0
        sub = n_primitives  # position of the next sub-answer

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
                    single_rows.append((start, predicate.attribute,
                                        predicate.low, predicate.high))
                elif len(predicates) == 2:
                    first, second = predicates
                    pair_rows.append(
                        (start, pair_slot(first.attribute, second.attribute),
                         first.low, first.high, second.low, second.high))
                else:
                    sub_positions = []
                    # Same lexicographic-by-position order as
                    # pairwise_subqueries (Algorithm 2's constraint order).
                    for i, first in enumerate(predicates):
                        for second in predicates[i + 1:]:
                            pair_rows.append(
                                (sub, pair_slot(first.attribute,
                                                second.attribute),
                                 first.low, first.high, second.low,
                                 second.high))
                            sub_positions.append(sub)
                            sub += 1
                    positions, rows = multis_by_dim.setdefault(
                        len(predicates), ([], []))
                    positions.append(start)
                    rows.append(sub_positions)
            else:
                attributes = entry.table_attributes
                index += domain_size ** len(attributes)
                if len(attributes) == 1:
                    single_tables.append((start, attributes[0]))
                elif len(attributes) == 2:
                    pair_tables.append((start, pair_slot(*attributes)))
                else:
                    cells = _cell_block(domain_size, len(attributes))
                    n_cells = cells.shape[1]
                    positions = np.arange(start, index, dtype=np.int64)
                    # Cell ``n``'s C(λ,2) sub-answers sit contiguously at
                    # sub + n·C(λ,2) + k, k in pairwise_subqueries order.
                    n_pairs = len(attributes) * (len(attributes) - 1) // 2
                    sub_index_matrix = (
                        sub + n_pairs * np.arange(n_cells, dtype=np.int64)
                    )[:, None] + np.arange(n_pairs, dtype=np.int64)
                    k = 0
                    for i in range(len(attributes)):
                        for j in range(i + 1, len(attributes)):
                            pair_parts.append(np.stack([
                                sub_index_matrix[:, k],
                                np.full(n_cells, pair_slot(attributes[i],
                                                           attributes[j])),
                                cells[i], cells[i], cells[j], cells[j]]))
                            k += 1
                    multi_dim_blocks.setdefault(len(attributes), []).append(
                        (positions, sub_index_matrix))
                    sub += n_cells * n_pairs

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
            n_primitives=n_primitives,
            singles=_block(AttributeBlock, single_rows,
                           _table_rows(single_tables, domain_size, 1)),
            pairs=_block(PairBlock, pair_rows,
                         [*_table_rows(pair_tables, domain_size, 2),
                          *pair_parts]),
            multi_dim_groups=multi_dims,
            n_sub_entries=sub - n_primitives,
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
