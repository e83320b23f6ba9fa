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
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..estimation import (Constraint, max_entropy_estimate, weighted_update,
                          weighted_update_batch)
from ..queries import RangeQuery

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
    this in.  Grid mechanisms provide :meth:`_pair_grid` (the grid
    answering an attribute pair); LHIO replaces the fused hook
    :meth:`_fused_pair_ranges` (one attribute pair's 2-D endpoint
    arrays) instead.  :meth:`_fused_attribute_ranges` (one attribute's
    1-D endpoint arrays) is overridden by mechanisms that answer 1-D
    queries from anything but a pair.
    :meth:`_answer_compiled` runs a :class:`~repro.queries.CompiledPlan`'s
    groups through them — one vectorised lookup per attribute or pair
    group — and combines every λ-D group's C(λ,2) sub-answers with one
    Algorithm-2 call per distinct λ.

    Every query kind arrives here already lowered: a 2-D marginal's
    ``c²`` degenerate cells land in one pair group and are answered as
    one grouped corner-lookup batch — the mixin needs no per-kind code.
    """

    #: Combiner for λ > 2 queries; set by the mechanism constructor.
    estimation_method: str = "weighted_update"
    #: Iteration cap for Algorithm 2; set by the mechanism constructor.
    estimation_iterations: int = 100

    def _fused_attribute_ranges(self, attribute: int, lows: np.ndarray,
                                highs: np.ndarray) -> np.ndarray:
        """Vectorised answers for one attribute's 1-D endpoint arrays.

        The default marginalises a pair containing the attribute (the
        other attribute spans its full domain); HDG overrides it with
        its fine-grained 1-D grids.
        """
        other = 0 if attribute != 0 else 1
        return self._fused_pair_ranges(
            (attribute, other), lows, highs, np.zeros_like(lows),
            np.full_like(lows, self._domain_size - 1))

    def _pair_grid(self, key: tuple[int, int]):
        """The grid answering attribute pair ``key``.

        Returns ``(grid, response_index, transposed)``: the
        :class:`~repro.core.grid.Grid2D`, the summed-area table its
        partial cells draw on (``None`` for the uniformity rule), and
        whether ``key`` lists the grid's attributes in (column, row)
        order.
        """
        raise NotImplementedError

    def _fused_pair_ranges(self, key: tuple[int, int], row_lows: np.ndarray,
                           row_highs: np.ndarray, col_lows: np.ndarray,
                           col_highs: np.ndarray) -> np.ndarray:
        """Vectorised answers for one attribute pair's 2-D endpoint arrays."""
        grid, response_index, transposed = self._pair_grid(key)
        if transposed:
            row_lows, row_highs, col_lows, col_highs = \
                col_lows, col_highs, row_lows, row_highs
        return grid.answer_ranges(row_lows, row_highs, col_lows, col_highs,
                                  response_index=response_index)

    def _pair_answer(self, query: RangeQuery) -> float:
        """One 2-D query through the grid's one-row gather, alone."""
        first, second = query.predicates
        grid, response_index, transposed = self._pair_grid(
            (first.attribute, second.attribute))
        if transposed:
            first, second = second, first
        return grid.answer_range((first.low, first.high),
                                 (second.low, second.high),
                                 response_index=response_index)

    def _answer_compiled(self, compiled) -> np.ndarray:
        """Execute a compiled plan through the fused grouped gathers.

        Grouping by dimension and grid was done once at compile time;
        answering is one vectorised lookup per (attribute or pair) group
        plus one Algorithm-2 combination per distinct λ.  Every kernel
        is elementwise-independent, so a primitive's answer does not
        depend on the workload it arrives in.
        """
        answers = np.empty(compiled.n_primitives)
        for group in compiled.single_groups:
            answers[group.positions] = self._fused_attribute_ranges(
                group.attribute, group.lows, group.highs)
        for group in compiled.pair_groups:
            answers[group.positions] = self._fused_pair_ranges(
                group.key, group.row_lows, group.row_highs, group.col_lows,
                group.col_highs)
        if compiled.n_sub_entries:
            sub_answers = np.empty(compiled.n_sub_entries)
            for group in compiled.multi_pair_groups:
                sub_answers[group.positions] = self._fused_pair_ranges(
                    group.key, group.row_lows, group.row_highs, group.col_lows,
                    group.col_highs)
            for group in compiled.multi_dim_groups:
                # The constraints of estimate_lambda_query: the clipped
                # pair answers plus the simplex normalisation to 1.
                targets = np.ones((group.positions.size,
                                   len(group.index_sets)))
                targets[:, :-1] = np.maximum(
                    0.0, sub_answers[group.sub_index_matrix])
                answers[group.positions] = self._combine(group, targets)
        return answers

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


def lambda_constraint_index_sets(dimension: int) -> list[np.ndarray]:
    """Algorithm 2's constraint index sets for a λ-D query.

    One set per attribute pair in the order
    :meth:`~repro.queries.RangeQuery.pairwise_subqueries` produces them
    (lexicographic by position), followed by the simplex normalisation
    over all ``2^λ`` orthants — the exact sweep order of
    :func:`estimate_lambda_query`.
    """
    sets = [pair_constraint_indices(dimension, pos_a, pos_b)
            for pos_a in range(dimension)
            for pos_b in range(pos_a + 1, dimension)]
    sets.append(np.arange(1 << dimension, dtype=np.int64))
    return sets
