"""Estimation of a λ-D range-query answer from its 2-D sub-answers.

Algorithm 2 of the paper: a λ-D query ``q`` (λ > 2) is split into its
``C(λ,2)`` associated 2-D queries; their (already estimated) answers are
then combined into an estimate of ``q``'s answer.  The combination works
over the ``2^λ`` "orthant" queries ``Q(q)`` obtained by either keeping or
complementing each attribute's interval: every 2-D answer is the sum of
the ``2^(λ-2)`` orthants in which both of its attributes keep their
interval, which gives one Weighted Update constraint per pair.  The final
answer is the orthant in which every attribute keeps its interval.

The alternative combiner from Appendix A.8 (Maximum Entropy, solved by
iterative proportional fitting) is exposed through ``method="max_entropy"``
for the ablation benchmark.

:class:`PairwiseBatchAnswering` is the compiled-plan executor built on
this: one gather for a plan's attribute block, one for its pair block
(direct λ = 2 primitives and λ > 2 sub-pairs together), then one
batched Algorithm-2 call per distinct λ over the memoized constraint
structure :func:`lambda_constraint_index_sets`.
"""

from __future__ import annotations

import math
import operator
from functools import lru_cache
from typing import Callable

import numpy as np

from ..estimation import (Constraint, max_entropy_estimate, weighted_update,
                          weighted_update_batch)
from ..estimation.weighted_update import ConstraintSets
from ..queries import RangeQuery
from ..queries.compiler import pair_slot

#: Signature of the callable that answers an associated 2-D sub-query.
PairAnswerFn = Callable[[RangeQuery], float]


def orthant_index(keep_mask: tuple[bool, ...]) -> int:
    """Index of an orthant in the 2^λ vector (bit i set = attribute i kept)."""
    index = 0
    for bit, keep in enumerate(keep_mask):
        if keep:
            index |= 1 << bit
    return index


def pair_constraint_indices(dimension: int, pos_a: int, pos_b: int) -> np.ndarray:
    """Orthant indices contributing to the 2-D answer of attributes at
    positions ``pos_a`` and ``pos_b`` (both intervals kept, others free)."""
    indices = []
    for mask in range(1 << dimension):
        if (mask >> pos_a) & 1 and (mask >> pos_b) & 1:
            indices.append(mask)
    return np.asarray(indices, dtype=np.int64)


def build_constraints(query: RangeQuery,
                      pair_answers: dict[tuple[int, int], float]) -> list[Constraint]:
    """Turn the 2-D sub-answers into Weighted Update constraints.

    ``pair_answers`` maps attribute-index pairs (as they appear in the
    query, sorted) to the estimated 2-D answers.  Targets are clipped at 0
    — negative 2-D answers would break the multiplicative update, and the
    mechanisms run Norm-Sub before reaching this point anyway.
    """
    attributes = query.attributes
    position = {attribute: pos for pos, attribute in enumerate(attributes)}
    constraints = []
    for (attr_a, attr_b), answer in pair_answers.items():
        indices = pair_constraint_indices(query.dimension,
                                          position[attr_a], position[attr_b])
        constraints.append(Constraint(indices=indices,
                                      target=max(0.0, float(answer))))
    return constraints


def estimate_lambda_query(query: RangeQuery, answer_pair: PairAnswerFn,
                          method: str = "weighted_update",
                          threshold: float = 1e-7,
                          max_iterations: int = 100,
                          track_history: bool = False):
    """Estimate a λ-D query's answer from a 2-D answering primitive.

    Parameters
    ----------
    query:
        The λ-D range query (λ >= 2).  For λ == 2 the 2-D primitive is
        called directly.
    answer_pair:
        Callable that returns the mechanism's estimate for any 2-D
        sub-query of ``query``.
    method:
        ``"weighted_update"`` (Algorithm 2, default) or ``"max_entropy"``
        (Appendix A.8).
    threshold, max_iterations:
        Convergence controls for the Weighted Update iteration.
    track_history:
        If True, also return the per-sweep change history (Figure 18).

    Returns
    -------
    float or (float, list[float])
        The estimated answer, plus the change history when requested.
    """
    if query.dimension < 2:
        raise ValueError("estimate_lambda_query requires a query with λ >= 2")
    if query.dimension == 2:
        answer = float(answer_pair(query))
        return (answer, []) if track_history else answer

    pair_answers: dict[tuple[int, int], float] = {}
    for sub_query in query.pairwise_subqueries():
        pair = sub_query.attributes
        pair_answers[pair] = float(answer_pair(sub_query))

    constraints = build_constraints(query, pair_answers)
    size = 1 << query.dimension
    target_index = size - 1  # every attribute keeps its interval
    # The orthants of Q(q) partition the population, so their answers sum to
    # 1; adding this normalisation constraint keeps the multiplicative update
    # on the probability simplex (matching the Maximum-Entropy formulation's
    # implicit normalisation).
    constraints.append(Constraint(indices=np.arange(size), target=1.0))

    if method == "weighted_update":
        result = weighted_update(size, constraints, threshold=threshold,
                                 max_iterations=max_iterations,
                                 track_history=track_history)
        answer = float(result.estimate[target_index])
        history = result.change_history
    elif method == "max_entropy":
        estimate = max_entropy_estimate(size, constraints,
                                        max_iterations=max_iterations * 5)
        answer = float(estimate[target_index])
        history = []
    else:
        raise ValueError(
            f"method must be 'weighted_update' or 'max_entropy', got {method!r}")

    return (answer, history) if track_history else answer


class PairwiseBatchAnswering:
    """Mixin: the compiled-plan executor of pair-decomposable mechanisms.

    Mechanisms that answer 1-D/2-D queries directly and λ > 2 queries by
    combining 2-D sub-answers (TDG, HDG, LHIO and their variants) mix
    this in.  :meth:`_answer_compiled` answers a
    :class:`~repro.queries.CompiledPlan`'s attribute block with one
    :meth:`_answer_attributes` call and its pair block — λ = 2
    primitives and the C(λ,2) sub-pairs of λ > 2 ones alike — with one
    :meth:`_answer_pairs` call, then combines every λ-D group's
    sub-answers with one Algorithm-2 call per distinct λ.

    Grid mechanisms answer the pair block with one gather over their
    stacked tables (:class:`~repro.core.prefix_sum.PrefixStack2D`).
    LHIO keeps the default :meth:`_answer_pairs`, which splits the block
    by pair and calls its hierarchy kernel :meth:`_fused_pair_ranges`.
    The defaults of the two call each other, so a mechanism overrides
    one.  The default :meth:`_answer_attributes` marginalises a pair;
    HDG answers from its fine-grained 1-D grids instead.

    Every query kind arrives here already lowered: a 2-D marginal's
    ``c²`` degenerate cells are rows of the pair block like any other —
    the mixin needs no per-kind code.
    """

    #: Combiner for λ > 2 queries; set by the mechanism constructor.
    estimation_method: str = "weighted_update"
    #: Iteration cap for Algorithm 2; set by the mechanism constructor.
    estimation_iterations: int = 100
    #: ``(sources, tables)`` of :meth:`_stacked`.
    _stack_cache: tuple | None = None

    def _stacked(self, sources: Callable[[], list], build: Callable):
        """The stacked tables ``build()`` makes, cached against ``sources()``.

        ``sources()`` lists the per-grid objects the tables derive from:
        each grid's prefix index, which the grid drops whenever its
        frequencies change (Phase 2, ``set_frequencies``) and which a
        re-fit or restore replaces with the grid, and HDG's response
        matrices.  The tables are rebuilt exactly when one of them is
        no longer the object they were built from.
        """
        cached = self._stack_cache
        current = sources()
        if (cached is None or len(cached[0]) != len(current)
                or not all(map(operator.is_, cached[0], current))):
            tables = build()
            cached = self._stack_cache = (sources(), tables)
        return cached[1]

    def _answer_attributes(self, attributes: np.ndarray, lows: np.ndarray,
                           highs: np.ndarray) -> np.ndarray:
        """Attribute block rows, as rows of pair ``(a, other)`` with the
        other attribute over its whole domain.

        ``other`` is 1 for ``a = 0`` (slot 0, the interval on the row
        axis) and 0 otherwise (slot ``a(a-1)/2``, the interval on the
        column axis).
        """
        first = attributes == 0
        top = self._domain_size - 1
        return self._answer_pairs(
            attributes * (attributes - 1) // 2,
            np.where(first, lows, 0), np.where(first, highs, top),
            np.where(first, 0, lows), np.where(first, top, highs))

    def _answer_pairs(self, pairs: np.ndarray, row_lows: np.ndarray,
                      row_highs: np.ndarray, col_lows: np.ndarray,
                      col_highs: np.ndarray) -> np.ndarray:
        """Pair block rows: split by pair slot, one
        :meth:`_fused_pair_ranges` call per pair."""
        answers = np.empty(len(pairs))
        for slot in np.unique(pairs).tolist():
            rows = np.flatnonzero(pairs == slot)
            answers[rows] = self._fused_pair_ranges(
                slot_pair(slot), row_lows[rows], row_highs[rows],
                col_lows[rows], col_highs[rows])
        return answers

    def _fused_pair_ranges(self, key: tuple[int, int], row_lows: np.ndarray,
                           row_highs: np.ndarray, col_lows: np.ndarray,
                           col_highs: np.ndarray) -> np.ndarray:
        """One attribute pair's rows, the pair in either attribute order.

        Answered as pair block rows.  LHIO overrides this with its
        hierarchy kernel, which the default :meth:`_answer_pairs` calls.
        """
        first, second = key
        if first > second:
            first, second = second, first
            row_lows, row_highs, col_lows, col_highs = \
                col_lows, col_highs, row_lows, row_highs
        return self._answer_pairs(
            np.full(len(row_lows), pair_slot(first, second)),
            *(np.asarray(bounds, dtype=np.int64) for bounds in
              (row_lows, row_highs, col_lows, col_highs)))

    def _pair_answer(self, query: RangeQuery) -> float:
        """One 2-D query, alone."""
        first, second = query.predicates
        return float(self._fused_pair_ranges(
            (first.attribute, second.attribute), np.array([first.low]),
            np.array([first.high]), np.array([second.low]),
            np.array([second.high]))[0])

    def _answer_compiled(self, compiled) -> np.ndarray:
        """Execute a compiled plan: one call per block, one Algorithm-2
        combination per distinct λ.

        The blocks write one answers-plus-sub-answers vector; its first
        ``n_primitives`` entries are the answers.  Every kernel is
        elementwise-independent, so a primitive's answer does not
        depend on the workload it arrives in.
        """
        values = np.empty(compiled.n_primitives + compiled.n_sub_entries)
        singles, pairs = compiled.singles, compiled.pairs
        if singles.positions.size:
            values[singles.positions] = self._answer_attributes(
                singles.attributes, singles.lows, singles.highs)
        if pairs.positions.size:
            values[pairs.positions] = self._answer_pairs(
                pairs.pairs, pairs.row_lows, pairs.row_highs, pairs.col_lows,
                pairs.col_highs)
        for group in compiled.multi_dim_groups:
            # The constraints of estimate_lambda_query: the clipped
            # pair answers plus the simplex normalisation to 1.
            targets = np.ones((group.positions.size, len(group.index_sets)))
            targets[:, :-1] = np.maximum(0.0, values[group.sub_index_matrix])
            values[group.positions] = self._combine(group, targets)
        return values[:compiled.n_primitives]

    def _combine(self, group, targets: np.ndarray) -> np.ndarray:
        """Algorithm 2's λ-D estimates for one group's target rows."""
        size = 1 << group.dimension
        if self.estimation_method == "weighted_update":
            estimates = weighted_update_batch(
                size, group.index_sets, targets,
                max_iterations=self.estimation_iterations)
            return estimates[:, size - 1]
        if self.estimation_method == "max_entropy":
            return np.array([
                max_entropy_estimate(
                    size, [Constraint(indices=indices, target=target)
                           for indices, target in zip(group.index_sets, row)],
                    max_iterations=self.estimation_iterations * 5)[size - 1]
                for row in targets])
        raise ValueError("method must be 'weighted_update' or 'max_entropy', "
                         f"got {self.estimation_method!r}")


#: A grid's current prefix-sum index: ``None`` once the grid dropped it.
grid_index = operator.attrgetter("_index")


def stack_grids(stack: type, grids: list, *matrices):
    """A ``stack`` (:class:`~repro.core.prefix_sum.PrefixStack1D` or
    ``PrefixStack2D``) of ``grids``' frequencies in list order.

    Each grid then answers through its view into the stack, so the
    stack is the only copy of the tables and a grid that drops its
    index no longer matches the stack's :func:`grid_index` sources.
    """
    built = stack([grid.frequencies for grid in grids], grids[0].cell_width,
                  *matrices)
    for grid, index in zip(grids, built.indexes):
        grid._index = index
    return built


def by_pair_slot(pairs: dict) -> list:
    """The values of ``pairs`` (keyed by attribute pair) in pair-slot
    order: the order of a stacked table."""
    return [pairs[pair]
            for pair in sorted(pairs, key=lambda pair: pair_slot(*pair))]


def slot_pair(slot: int) -> tuple[int, int]:
    """The attribute pair in :func:`~repro.queries.compiler.pair_slot`
    ``slot``: the inverse of ``second * (second - 1) // 2 + first``."""
    second = (1 + math.isqrt(8 * slot + 1)) // 2
    return slot - second * (second - 1) // 2, second


@lru_cache(maxsize=16)
def lambda_constraint_index_sets(dimension: int) -> ConstraintSets:
    """Algorithm 2's constraint index sets for a λ-D query.

    One set per attribute pair in the order
    :meth:`~repro.queries.RangeQuery.pairwise_subqueries` produces them
    (lexicographic by position), followed by the simplex normalisation
    over all ``2^λ`` orthants — the exact sweep order of
    :func:`estimate_lambda_query`.  Cached and read-only: every λ-D
    group of every plan shares one structure.
    """
    sets = [pair_constraint_indices(dimension, pos_a, pos_b)
            for pos_a in range(dimension)
            for pos_b in range(pos_a + 1, dimension)]
    sets.append(np.arange(1 << dimension, dtype=np.int64))
    return ConstraintSets(sets)
