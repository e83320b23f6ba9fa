"""Reference implementations the library is tested against.

The library answers every workload one way: a compiled plan through
vectorised prefix-sum lookups, grouped node gathers and the batched
Weighted Update.  The loops below are the straightforward code those
kernels replaced.  They live here, outside the library, as oracles for
the differential suites and as the baseline
``benchmarks/bench_query_throughput.py`` times the compiled path
against:

* per-cell grid loops (:func:`grid1d_range_loop`,
  :func:`grid2d_range_loop`);
* per-user perturbation loops of GRR and Square Wave;
* the per-grid collection, Phase 2 and Algorithm 1 the layer arrays
  replaced (:func:`partial_fit_loop`, :func:`phase2_loop`,
  :func:`response_matrix_loop`): one OLH object and two binomial calls
  per grid, one Norm-Sub call per grid, a :class:`GridView` per grid
  and attribute, and one ``c x c`` matrix per pair.  The layer arrays
  must match them bitwise;
* the per-view Phase-2 consistency pass
  (:func:`enforce_attribute_consistency_loop`);
* per-query mechanism answering: :func:`scalar_answer` (one primitive
  at a time through the scalar lookups; bitwise equal to the compiled
  path for every mechanism but LHIO, whose scalar path sums its levels
  in another order) and :func:`loop_answer` (the per-cell, slice-sum,
  per-combination and per-node loops; within 1e-9);
* HIO's bucketed loop (:func:`hio_bucketed_answers`): lazy intervals
  one by one through a dict memo, each materialised level's bucket in
  one gather.  HIO's array path must match it bitwise, RNG stream
  included.
* typed workloads interpreted query by query: :func:`reference_ranges`
  lowers each IR query to its range primitives and
  :func:`reference_assemble` slices the flat answers back into typed
  results, the reference :class:`~repro.queries.CompiledPlan` is
  compared against (:func:`interpreted_results` chains both around one
  of the answer oracles above).

Run per query, in workload order, so mechanisms that draw lazy noise
(HIO, LHIO) consume their RNG stream in the order a one-query-at-a-time
caller would.
"""

from __future__ import annotations

import weakref
from itertools import product

import numpy as np

from repro.baselines import HIO, LHIO, MSW, Uniform
from repro.core import HDG, TDG, estimate_lambda_query
from repro.frequency_oracles import OptimizedLocalHash, olh_variance
from repro.postprocess import norm_sub
from repro.queries import (DistributionResult, MarginalQuery, PointQuery,
                           Predicate, PredicateCountQuery, RangeQuery,
                           ScalarResult, TopKQuery, TopKResult, top_k_cells)


# ----------------------------------------------------------------------
# Grids
# ----------------------------------------------------------------------
def grid1d_range_loop(grid, low: int, high: int) -> float:
    """1-D answer cell by cell, uniformity assumption inside cells."""
    if not 0 <= low <= high < grid.domain_size:
        raise ValueError(f"invalid interval [{low}, {high}]")
    frequencies = grid.frequencies
    answer = 0.0
    for cell in range(low // grid.cell_width, high // grid.cell_width + 1):
        cell_low, cell_high = grid.cell_bounds(cell)
        overlap = min(high, cell_high) - max(low, cell_low) + 1
        answer += frequencies[cell] * overlap / grid.cell_width
    return float(answer)


def grid2d_range_loop(grid, interval_row: tuple[int, int],
                      interval_col: tuple[int, int],
                      response_matrix: np.ndarray | None = None) -> float:
    """2-D answer cell by cell: uniform shares (TDG) or response-matrix
    mass (HDG) for partially covered cells."""
    row_low, row_high = interval_row
    col_low, col_high = interval_col
    for low, high in ((row_low, row_high), (col_low, col_high)):
        if not 0 <= low <= high < grid.domain_size:
            raise ValueError(f"invalid interval [{low}, {high}]")
    width = grid.cell_width
    frequencies = grid.frequencies
    answer = 0.0
    for row in range(row_low // width, row_high // width + 1):
        for col in range(col_low // width, col_high // width + 1):
            c_row_low, c_row_high, c_col_low, c_col_high = \
                grid.cell_bounds(row, col)
            r_lo, r_hi = max(row_low, c_row_low), min(row_high, c_row_high)
            k_lo, k_hi = max(col_low, c_col_low), min(col_high, c_col_high)
            overlap_rows = r_hi - r_lo + 1
            overlap_cols = k_hi - k_lo + 1
            if overlap_rows == width and overlap_cols == width:
                answer += frequencies[row, col]
            elif response_matrix is None:
                share = overlap_rows * overlap_cols / (width * width)
                answer += frequencies[row, col] * share
            else:
                answer += float(
                    response_matrix[r_lo:r_hi + 1, k_lo:k_hi + 1].sum())
    return float(answer)


# ----------------------------------------------------------------------
# Frequency oracles: per-user perturbation
# ----------------------------------------------------------------------
def grr_perturb_loop(oracle, values: np.ndarray) -> np.ndarray:
    """GRR reports one user at a time, from the draws ``perturb`` makes."""
    values = oracle._validate_values(values)
    n = values.size
    keep_draws = oracle.rng.random(n)
    offsets = oracle.rng.integers(1, oracle.domain_size, size=n)
    reports = np.empty(n, dtype=np.int64)
    for i in range(n):
        if keep_draws[i] < oracle.p:
            reports[i] = values[i]
        else:
            reports[i] = (values[i] + offsets[i]) % oracle.domain_size
    return reports


def square_wave_perturb_loop(oracle, values: np.ndarray) -> np.ndarray:
    """Square Wave report positions one user at a time, with scalar
    arithmetic, from the same three uniform batches ``perturb`` draws."""
    values = oracle._validate_values(values)
    positions = oracle._input_positions()[values]
    n = values.size
    delta = oracle.delta
    window_mass = 2.0 * delta * oracle.p
    window_draws = oracle.rng.random(n)
    within_offsets = oracle.rng.uniform(-delta, delta, size=n)
    outside_draws = oracle.rng.random(n)
    domain_lo, domain_hi = -delta, 1.0 + delta
    reports = np.empty(n)
    for i in range(n):
        position = positions[i]
        left_len = max(position - delta - domain_lo, 0.0)
        right_len = max(domain_hi - (position + delta), 0.0)
        u = outside_draws[i] * (left_len + right_len)
        if u < left_len:
            outside = domain_lo + u
        else:
            outside = position + delta + (u - left_len)
        if window_draws[i] < window_mass:
            reports[i] = position + within_offsets[i]
        else:
            reports[i] = outside
    return reports


# ----------------------------------------------------------------------
# Phase 1: per-grid collection
# ----------------------------------------------------------------------
def partial_fit_loop(mechanism, dataset, total_users=None):
    """``mechanism.partial_fit(dataset)`` grid by grid: a fresh OLH
    oracle per non-empty group and, in fast mode, its two binomial
    calls, added into the layer's rows."""
    if mechanism._n_attributes is None:
        mechanism._n_attributes = dataset.n_attributes
        mechanism._domain_size = dataset.domain_size
    mechanism._ensure_layout(total_users or dataset.n_users)
    for layer, groups in zip(mechanism._layers.values(),
                             mechanism._split_users(dataset)):
        for index, ((key, grid), members) in enumerate(
                zip(layer.grids.items(), groups)):
            if members.size == 0:
                continue
            oracle = OptimizedLocalHash(mechanism.epsilon, layer.n_cells,
                                        rng=mechanism.rng,
                                        mode=mechanism.oracle_mode)
            values = (dataset.column(key) if layer.dimension == 1
                      else dataset.columns(key))
            cells = grid.cell_index(values[members])
            if oracle.mode == "user":
                supports = oracle.accumulate(cells).supports
            else:
                true_counts = np.bincount(cells, minlength=layer.n_cells)
                supports = (
                    oracle.rng.binomial(true_counts, oracle.p)
                    + oracle.rng.binomial(cells.size - true_counts,
                                          oracle.q_support)).astype(float)
            layer.supports[index] += supports
            layer.n_reports[index] += cells.size
    mechanism._n_reports = (mechanism._n_reports or 0) + dataset.n_users
    return mechanism


# ----------------------------------------------------------------------
# Phase 2: per-grid Norm-Sub, per-view consistency
# ----------------------------------------------------------------------
class GridView:
    """One grid's cells as seen from one attribute: ``frequencies``
    (updated in place), the attribute's ``axis`` and how many of its
    cells fall in one consistency bucket."""

    def __init__(self, frequencies, axis: int, cells_per_bucket: int):
        self.frequencies = frequencies
        self.axis = axis
        self.cells_per_bucket = cells_per_bucket

    def grouped(self, n_buckets: int) -> np.ndarray:
        """A writable ``(buckets, cells_per_bucket, other)`` view."""
        moved = np.moveaxis(self.frequencies, self.axis, 0)
        if moved.shape[0] != n_buckets * self.cells_per_bucket:
            raise ValueError("cells do not split into the buckets")
        return moved.reshape(n_buckets, self.cells_per_bucket, -1)

    def bucket_totals(self, n_buckets: int) -> np.ndarray:
        return self.grouped(n_buckets).sum(axis=(1, 2))

    def cells_contributing(self) -> int:
        other = self.frequencies.size // self.frequencies.shape[self.axis]
        return self.cells_per_bucket * other

    def apply_adjustment(self, bucket_deltas: np.ndarray) -> None:
        grouped = self.grouped(bucket_deltas.shape[0])
        grouped += (bucket_deltas / (self.cells_per_bucket
                                     * grouped.shape[2]))[:, None, None]


def enforce_attribute_consistency_loop(views, n_buckets: int) -> np.ndarray:
    """One reduction and one adjustment pass per view."""
    if not views:
        raise ValueError("need at least one grid view")
    totals = np.stack([view.bucket_totals(n_buckets) for view in views])
    weights = np.array([1.0 / view.cells_contributing() for view in views])
    weights = weights / weights.sum()
    consensus = weights @ totals
    for view, current in zip(views, totals):
        view.apply_adjustment(consensus - current)
    return consensus


def enforce_attribute_consistency_by_shape(views, n_buckets: int
                                           ) -> np.ndarray:
    """The per-view pass with views of one grouped shape summed as one
    ``np.stack``: the reductions the layer arrays must reproduce."""
    if not views:
        raise ValueError("need at least one grid view")
    grouped = [view.grouped(n_buckets) for view in views]
    totals = np.empty((len(views), n_buckets))
    by_shape: dict[tuple[int, ...], list[int]] = {}
    for position, cells in enumerate(grouped):
        by_shape.setdefault(cells.shape, []).append(position)
    for members in by_shape.values():
        if len(members) == 1:
            totals[members[0]] = grouped[members[0]].sum(axis=(1, 2))
        else:
            stacked = np.stack([grouped[position] for position in members])
            totals[members] = stacked.sum(axis=(2, 3))
    weights = np.array([1.0 / view.cells_contributing() for view in views])
    weights = weights / weights.sum()
    consensus = weights @ totals
    for view, cells, current in zip(views, grouped, totals):
        cells += ((consensus - current)
                  / (view.cells_per_bucket * cells.shape[2]))[:, None, None]
    return consensus


def phase2_loop(n_attributes, singles, pair_grids, pairs, rounds=3,
                enforce=enforce_attribute_consistency_by_shape):
    """:func:`repro.core.run_phase2` grid by grid, in place: one
    :func:`norm_sub` call per grid, and per attribute a :class:`GridView`
    of each grid holding it (1-D grid first, then pair order)."""
    n_buckets = pair_grids.shape[1]
    grids = [*(singles if singles is not None else ()), *pair_grids]

    def norm_sub_all():
        for grid in grids:
            grid[...] = norm_sub(grid)

    for _ in range(rounds):
        norm_sub_all()
        for attribute in range(n_attributes):
            views = []
            if singles is not None:
                views.append(GridView(singles[attribute], 0,
                                      singles.shape[1] // n_buckets))
            for grid, pair in zip(pair_grids, pairs):
                if attribute in pair:
                    views.append(GridView(grid, pair.index(attribute), 1))
            if len(views) >= 2:
                enforce(views, n_buckets)
    norm_sub_all()


# ----------------------------------------------------------------------
# Algorithm 1: one pair at a time
# ----------------------------------------------------------------------
def response_matrix_loop(row, col, pair, domain_size, threshold=1e-7,
                         max_iterations=100):
    """Algorithm 1 on one ``c x c`` matrix from the pair's 1-D and 2-D
    frequencies: ``(matrix, iterations, converged, change_history)``."""
    c = int(domain_size)
    matrix = np.full((c, c), 1.0 / (c * c))

    def rescale(targets, rows_per_block, cols_per_block):
        g_rows, g_cols = c // rows_per_block, c // cols_per_block
        blocked = matrix.reshape(g_rows, rows_per_block, g_cols,
                                 cols_per_block)
        sums = blocked.sum(axis=(1, 3))
        ratios = np.ones_like(targets)
        nonzero = sums != 0.0
        ratios[nonzero] = targets[nonzero] / sums[nonzero]
        blocked *= ratios.reshape(g_rows, 1, g_cols, 1)

    history, converged, iterations = [], False, 0
    for iterations in range(1, max_iterations + 1):
        before = matrix.copy()
        rescale(row.reshape(-1, 1), c // row.size, c)
        rescale(col.reshape(1, -1), c, c // col.size)
        rescale(pair, c // pair.shape[0], c // pair.shape[0])
        change = float(np.abs(matrix - before).sum())
        history.append(change)
        if change < threshold:
            converged = True
            break
    return matrix, iterations, converged, history


# ----------------------------------------------------------------------
# Mechanisms: one query at a time
# ----------------------------------------------------------------------
def scalar_answer(mechanism, query: RangeQuery) -> float:
    """One range through the mechanism's scalar lookups, alone."""
    return _answer(mechanism, query, loops=False)


def loop_answer(mechanism, query: RangeQuery) -> float:
    """One range through the per-cell/per-node/per-combination loops."""
    return _answer(mechanism, query, loops=True)


def scalar_answers(mechanism, queries) -> np.ndarray:
    return np.array([scalar_answer(mechanism, query) for query in queries])


def loop_answers(mechanism, queries) -> np.ndarray:
    return np.array([loop_answer(mechanism, query) for query in queries])


def _answer(mechanism, query: RangeQuery, loops: bool) -> float:
    if isinstance(mechanism, Uniform):
        return query.volume(mechanism._domain_size)
    if isinstance(mechanism, MSW):
        return _msw_answer(mechanism, query, loops)
    if isinstance(mechanism, HIO):
        return _hio_answer(mechanism, query, loops)
    if isinstance(mechanism, (TDG, HDG, LHIO)):
        return _pairwise_answer(mechanism, query, loops)
    raise TypeError(f"no reference for {type(mechanism).__name__}")


def _msw_answer(mechanism, query: RangeQuery, loops: bool) -> float:
    """Product of the per-attribute 1-D interval masses."""
    answer = 1.0
    for predicate in query.predicates:
        distribution = mechanism.distributions[predicate.attribute]
        if loops:
            answer *= float(
                distribution[predicate.low:predicate.high + 1].sum())
        else:
            prefix = np.concatenate(([0.0], np.cumsum(distribution)))
            answer *= float(prefix[predicate.high + 1] - prefix[predicate.low])
    return answer


def _hio_answer(mechanism, query: RangeQuery, loops: bool) -> float:
    """Sum over every combination of the d-dim expansion's nodes."""
    if not loops:
        return mechanism._answer_query(query)
    return hio_reference(mechanism).loop(query)


#: The reference each fitted HIO instance is answered through, so its
#: lazy memo lives as long as the instance.
_HIO_REFERENCES: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()


def hio_reference(mechanism) -> "HIOReference":
    """The instance's reference answerer (one per instance)."""
    if mechanism not in _HIO_REFERENCES:
        _HIO_REFERENCES[mechanism] = HIOReference(mechanism)
    return _HIO_REFERENCES[mechanism]


def hio_bucketed_answers(mechanism, queries) -> np.ndarray:
    return np.array([hio_reference(mechanism).bucketed(query)
                     for query in queries])


class HIOReference:
    """HIO answered combination by combination over a fitted instance.

    Levels are materialised through the instance (its ``_materialized``
    dict and RNG); an over-limit interval is the group's true frequency
    (a boolean mask's mean) plus one Gaussian draw, memoised in a dict
    keyed by ``(level, node indices)``.  :meth:`bucketed` adds the lazy
    values one by one and each materialised level's bucket in one
    gather, in first-touch order: the library's array path must match
    it bitwise.  :meth:`loop` adds every combination one by one (within
    1e-9).
    """

    def __init__(self, mechanism):
        self.mechanism = mechanism
        self.lazy: dict[tuple, float] = {}

    def decompositions(self, query: RangeQuery) -> list:
        hierarchy = self.mechanism.hierarchy
        decompositions = []
        for attribute in range(self.mechanism._n_attributes):
            if attribute in query.attributes:
                low, high = query.interval(attribute)
            else:
                low, high = 0, hierarchy.domain_size - 1
            decompositions.append(hierarchy.decompose(low, high))
        return decompositions

    def materialized(self, level: tuple) -> np.ndarray:
        mechanism = self.mechanism
        if level not in mechanism._materialized:
            mechanism._materialized[level] = mechanism._materialize_level(level)
        return mechanism._materialized[level]

    def lazy_frequency(self, level: tuple, nodes: tuple) -> float:
        mechanism = self.mechanism
        members = mechanism._group_members(level)
        n_group = max(int(members.size), 1)
        if members.size == 0:
            true_frequency = 0.0
        else:
            mask = np.ones(members.size, dtype=bool)
            for axis, node in enumerate(nodes):
                column = mechanism._dataset.values[members, axis]
                mask &= (column >= node.low) & (column <= node.high)
            true_frequency = float(mask.mean())
        noise_std = float(np.sqrt(olh_variance(mechanism.epsilon, n_group)))
        return true_frequency + float(mechanism.rng.normal(0.0, noise_std))

    def interval_frequency(self, nodes: tuple) -> float:
        mechanism = self.mechanism
        level = tuple(node.level for node in nodes)
        if mechanism._level_size(level) <= mechanism.materialize_limit:
            flat = 0
            for node in nodes:
                flat = (flat * mechanism.hierarchy.nodes_at_level(node.level)
                        + node.index)
            return float(self.materialized(level)[flat])
        key = (level, tuple(node.index for node in nodes))
        if key not in self.lazy:
            self.lazy[key] = self.lazy_frequency(level, nodes)
        return self.lazy[key]

    def loop(self, query: RangeQuery) -> float:
        answer = 0.0
        for combination in product(*self.decompositions(query)):
            answer += self.interval_frequency(tuple(combination))
        return answer

    def bucketed(self, query: RangeQuery) -> float:
        mechanism = self.mechanism
        answer = 0.0
        buckets: dict[tuple, list[tuple]] = {}
        for combination in product(*self.decompositions(query)):
            level = tuple(node.level for node in combination)
            if mechanism._level_size(level) <= mechanism.materialize_limit:
                self.materialized(level)
                buckets.setdefault(level, []).append(
                    tuple(node.index for node in combination))
            else:
                answer += self.interval_frequency(tuple(combination))
        for level, index_tuples in buckets.items():
            indices = np.asarray(index_tuples, dtype=np.int64)
            flat = np.zeros(indices.shape[0], dtype=np.int64)
            for axis, one_dim_level in enumerate(level):
                flat = (flat * mechanism.hierarchy.nodes_at_level(one_dim_level)
                        + indices[:, axis])
            answer += float(mechanism._materialized[level][flat].sum())
        return answer


def _pairwise_answer(mechanism, query: RangeQuery, loops: bool) -> float:
    """1-D and 2-D directly, λ > 2 through Algorithm 2 on 2-D answers."""
    if query.dimension > 2:
        return estimate_lambda_query(
            query, lambda sub: _pairwise_answer(mechanism, sub, loops),
            method=mechanism.estimation_method,
            max_iterations=mechanism.estimation_iterations)
    if query.dimension == 1:
        (predicate,) = query.predicates
        if isinstance(mechanism, HDG):
            grid = mechanism.grids_1d[predicate.attribute]
            if loops:
                return grid1d_range_loop(grid, predicate.low, predicate.high)
            return grid.answer_range(predicate.low, predicate.high)
        # TDG and LHIO marginalise a pair containing the attribute.
        other = 0 if predicate.attribute != 0 else 1
        query = RangeQuery((predicate, Predicate(
            other, 0, mechanism._domain_size - 1)))
    first, second = query.predicates
    key = (first.attribute, second.attribute)
    interval_a, interval_b = (first.low, first.high), (second.low, second.high)
    pairs = (mechanism.grids_2d if isinstance(mechanism, HDG)
             else mechanism._pairs if isinstance(mechanism, LHIO)
             else mechanism.grids)
    if key not in pairs:
        key = (key[1], key[0])
        interval_a, interval_b = interval_b, interval_a
    if isinstance(mechanism, LHIO):
        return _lhio_pair(mechanism, pairs[key], interval_a, interval_b,
                          loops)
    matrix = (mechanism.response_matrices.get(key)
              if isinstance(mechanism, HDG) else None)
    if loops:
        return grid2d_range_loop(pairs[key], interval_a, interval_b, matrix)
    return pairs[key].answer_range(interval_a, interval_b,
                                   response_matrix=matrix)


def _lhio_pair(mechanism, pair_hierarchy, interval_a, interval_b,
               loops: bool) -> float:
    """Sum of the (row node, column node) combinations' frequencies:
    node by node, or one ``np.ix_`` gather per pair of node levels."""
    nodes_rows = mechanism.hierarchy.decompose(*interval_a)
    nodes_cols = mechanism.hierarchy.decompose(*interval_b)
    answer = 0.0
    if loops or pair_hierarchy.lazy_groups:
        for node_row in nodes_rows:
            for node_col in nodes_cols:
                answer += pair_hierarchy.frequency(
                    node_row, node_col, mechanism._dataset,
                    mechanism.epsilon, mechanism.rng)
        return answer
    rows_by_level: dict[int, list[int]] = {}
    cols_by_level: dict[int, list[int]] = {}
    for node in nodes_rows:
        rows_by_level.setdefault(node.level, []).append(node.index)
    for node in nodes_cols:
        cols_by_level.setdefault(node.level, []).append(node.index)
    for row_level, row_indices in rows_by_level.items():
        for col_level, col_indices in cols_by_level.items():
            values = pair_hierarchy.levels[(row_level, col_level)]
            answer += float(values[np.ix_(row_indices, col_indices)].sum())
    return answer


# ----------------------------------------------------------------------
# Typed workloads: interpreted lowering and reassembly
# ----------------------------------------------------------------------
def reference_ranges(queries, domain_size: int) -> list[RangeQuery]:
    """Every query's range primitives, in workload order.

    A range is itself; a point is its width-1 range; a count is its
    predicates' range; a marginal or top-k table is one width-1 range
    per cell, row-major over the sorted attributes.
    """
    ranges = []
    for query in queries:
        if isinstance(query, RangeQuery):
            ranges.append(query)
        elif isinstance(query, PointQuery):
            ranges.append(RangeQuery(tuple(
                Predicate(attribute, value, value)
                for attribute, value in query.assignment)))
        elif isinstance(query, PredicateCountQuery):
            ranges.append(RangeQuery(query.predicates))
        elif isinstance(query, (MarginalQuery, TopKQuery)):
            for cell in product(range(domain_size),
                                repeat=len(query.attributes)):
                ranges.append(RangeQuery(tuple(
                    Predicate(attribute, value, value)
                    for attribute, value in zip(query.attributes, cell))))
        else:
            raise TypeError(f"no reference for {type(query).__name__}")
    return ranges


def reference_assemble(queries, answers, domain_size: int,
                       population: int | None) -> list:
    """Typed results from flat primitive answers, one query at a time.

    Ranges and points take their one answer; a count scales it by its
    own population, else ``population``; a marginal reshapes its cells
    to the λ-D table; a top-k Norm-Subs that table and takes the
    arg-top-k.
    """
    answers = np.asarray(answers, dtype=float)
    results = []
    start = 0
    for query in queries:
        if isinstance(query, (MarginalQuery, TopKQuery)):
            dimension = len(query.attributes)
            stop = start + domain_size ** dimension
            table = answers[start:stop].reshape((domain_size,) * dimension)
            if isinstance(query, TopKQuery):
                cells, values = top_k_cells(norm_sub(table), query.k)
                results.append(TopKResult(query, cells, values))
            else:
                results.append(DistributionResult(query, table))
        else:
            stop = start + 1
            value = float(answers[start])
            if isinstance(query, PredicateCountQuery):
                scale = (query.population if query.population is not None
                         else population)
                results.append(ScalarResult(query, value * scale,
                                            population=scale))
            else:
                results.append(ScalarResult(query, value))
        start = stop
    if start != answers.size:
        raise ValueError(f"{start} primitives, {answers.size} answers")
    return results


def interpreted_results(mechanism, queries, answers=scalar_answers) -> list:
    """A typed workload answered primitive by primitive through
    ``answers`` (:func:`scalar_answers` or :func:`loop_answers`) and
    reassembled by :func:`reference_assemble`."""
    domain_size = mechanism._domain_size
    flat = answers(mechanism, reference_ranges(queries, domain_size))
    return reference_assemble(queries, flat, domain_size,
                              mechanism.population)
