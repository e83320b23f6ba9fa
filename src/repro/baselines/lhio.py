"""LHIO baseline: Low-dimensional HIO (Section 3.4).

LHIO improves HIO by only building *pairwise* (2-D) hierarchies, in the
spirit of CALM: users are split into ``C(d,2)`` groups, one per attribute
pair, and each pair's group is further split into ``(h + 1)^2`` subgroups,
one per 2-dim level of the pair's 2-D hierarchy.  Every subgroup reports
its 2-dim interval via OLH.  Two post-processing steps then improve the
noisy hierarchy:

* Norm-Sub on every level (non-negativity), and
* Hay et al. constrained inference adapted to two dimensions (applied
  along the first attribute and then along the second), which removes the
  inconsistency between different levels of the same hierarchy — the step
  the paper identifies as the key improvement of LHIO over HIO.

A 2-D range query is answered by decomposing both intervals into the least
hierarchy nodes and summing the corresponding 2-dim interval frequencies;
a λ-D query (λ > 2) combines the associated 2-D answers with the same
Weighted Update estimation used by the grid approaches.

Implementation note: 2-dim levels larger than ``materialize_limit`` cells
(only reached for very large domains) are evaluated lazily like in HIO and
constrained inference is skipped for such hierarchies; at the paper's
default domain size every level is materialised and the protocol is exact.
"""

from __future__ import annotations

from itertools import combinations, product

import numpy as np

from ..core.base import RangeQueryMechanism
from ..core.query_estimation import (PairwiseBatchAnswering,
                                     estimate_lambda_query, slot_pair)
from ..datasets import Dataset
from ..frequency_oracles import OptimizedLocalHash, olh_variance
from ..postprocess import constrained_inference_2d, norm_sub
from ..protocol import partition_users
from .hierarchy import HierarchyNode, IntervalHierarchy


class _PairHierarchy:
    """Noisy 2-D hierarchy of one attribute pair (internal to LHIO)."""

    def __init__(self, pair: tuple[int, int], hierarchy: IntervalHierarchy):
        self.pair = pair
        self.hierarchy = hierarchy
        self.levels: dict[tuple[int, int], np.ndarray] = {}
        self.lazy_groups: dict[tuple[int, int], np.ndarray] = {}
        self.lazy_cache: dict[tuple, float] = {}

    def frequency(self, node_row: HierarchyNode, node_col: HierarchyNode,
                  dataset: Dataset, epsilon: float,
                  rng: np.random.Generator) -> float:
        level = (node_row.level, node_col.level)
        if level in self.levels:
            return float(self.levels[level][node_row.index, node_col.index])
        key = (level, node_row.index, node_col.index)
        if key not in self.lazy_cache:
            members = self.lazy_groups.get(level, np.array([], dtype=int))
            n_group = max(int(members.size), 1)
            if members.size == 0:
                true_frequency = 0.0
            else:
                rows = dataset.values[members, self.pair[0]]
                cols = dataset.values[members, self.pair[1]]
                mask = ((rows >= node_row.low) & (rows <= node_row.high)
                        & (cols >= node_col.low) & (cols <= node_col.high))
                true_frequency = float(mask.mean())
            noise_std = float(np.sqrt(olh_variance(epsilon, n_group)))
            self.lazy_cache[key] = true_frequency + float(rng.normal(0.0, noise_std))
        return self.lazy_cache[key]


class LHIO(PairwiseBatchAnswering, RangeQueryMechanism):
    """Low-dimensional HIO baseline.

    Parameters
    ----------
    epsilon:
        Per-user privacy budget.
    branching:
        Branching factor of the 1-D hierarchies (the paper uses 4).
    materialize_limit:
        Maximum 2-dim level size (cells) that is materialised with OLH.
    consistency:
        Whether to run Norm-Sub + constrained inference (the improvement
        over HIO); disable for ablation.
    oracle_mode:
        OLH execution mode for materialised levels.
    estimation_method:
        Combiner for λ > 2 queries (``"weighted_update"`` or ``"max_entropy"``).
    seed:
        Randomness seed.
    """

    name = "LHIO"

    #: Over-limit levels answer through a lazy noise cache fed by RNG
    #: draws, so concurrent answering must be serialized by the caller.
    answering_is_pure = False

    def __init__(self, epsilon: float, branching: int = 4,
                 materialize_limit: int = 1 << 16, consistency: bool = True,
                 oracle_mode: str = "fast",
                 estimation_method: str = "weighted_update",
                 seed: int | None = None):
        super().__init__(epsilon, seed)
        self.branching = int(branching)
        self.materialize_limit = int(materialize_limit)
        self.consistency = bool(consistency)
        self.oracle_mode = oracle_mode
        self.estimation_method = estimation_method
        self.hierarchy: IntervalHierarchy | None = None
        self._dataset: Dataset | None = None
        self._pairs: dict[tuple[int, int], _PairHierarchy] = {}

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _fit(self, dataset: Dataset) -> None:
        self._dataset = dataset
        d = dataset.n_attributes
        if d < 2:
            raise ValueError("LHIO requires at least 2 attributes")
        self.hierarchy = IntervalHierarchy(dataset.domain_size, self.branching)
        pairs = list(combinations(range(d), 2))
        pair_groups = partition_users(dataset.n_users, len(pairs), self.rng)
        levels_per_dim = self.hierarchy.n_levels
        level_list = list(product(range(levels_per_dim), repeat=2))

        self._pairs = {}
        for pair, group in zip(pairs, pair_groups):
            pair_hierarchy = _PairHierarchy(pair, self.hierarchy)
            subgroups = partition_users(max(group.size, 1), len(level_list), self.rng)
            for level, subgroup in zip(level_list, subgroups):
                members = group[subgroup] if group.size else np.array([], dtype=int)
                rows_n = self.hierarchy.nodes_at_level(level[0])
                cols_n = self.hierarchy.nodes_at_level(level[1])
                if rows_n * cols_n <= self.materialize_limit:
                    pair_hierarchy.levels[level] = self._collect_level(
                        dataset, pair, level, members, rows_n, cols_n)
                else:
                    pair_hierarchy.lazy_groups[level] = members
            if self.consistency and not pair_hierarchy.lazy_groups:
                self._postprocess_pair(pair_hierarchy)
            self._pairs[pair] = pair_hierarchy

    def _collect_level(self, dataset: Dataset, pair: tuple[int, int],
                       level: tuple[int, int], members: np.ndarray,
                       rows_n: int, cols_n: int) -> np.ndarray:
        assert self.hierarchy is not None
        if members.size == 0:
            return np.zeros((rows_n, cols_n))
        row_width = self.hierarchy.node_width(level[0])
        col_width = self.hierarchy.node_width(level[1])
        rows = dataset.values[members, pair[0]] // row_width
        cols = dataset.values[members, pair[1]] // col_width
        flat = rows * cols_n + cols
        oracle = OptimizedLocalHash(self.epsilon, max(rows_n * cols_n, 2),
                                    rng=self.rng, mode=self.oracle_mode)
        estimates = oracle.estimate_frequencies(flat)[:rows_n * cols_n]
        return estimates.reshape(rows_n, cols_n)

    def _postprocess_pair(self, pair_hierarchy: _PairHierarchy) -> None:
        assert self.hierarchy is not None
        for level, values in pair_hierarchy.levels.items():
            pair_hierarchy.levels[level] = norm_sub(values)
        heights = (self.hierarchy.height, self.hierarchy.height)
        pair_hierarchy.levels = constrained_inference_2d(
            pair_hierarchy.levels, self.hierarchy.branching, heights)

    # ------------------------------------------------------------------
    # Fitted-state serialization (snapshots; see docs/serving.md)
    #
    # At the paper's scale every 2-dim level is materialised and the
    # payload is the per-pair level arrays alone.  Hierarchies with
    # over-limit (lazy) levels additionally need the group membership,
    # the lazy-noise cache and the dataset (lazy lookups re-read raw
    # records); the RNG state travels in the base-class envelope so
    # restored lazy draws continue the exact same stream.
    # ------------------------------------------------------------------
    def _snapshot_config(self) -> dict:
        return {"branching": self.branching,
                "materialize_limit": self.materialize_limit,
                "consistency": self.consistency,
                "oracle_mode": self.oracle_mode,
                "estimation_method": self.estimation_method}

    def _state_payload(self) -> dict:
        dataset = None
        if self._has_lazy_levels():
            assert self._dataset is not None
            dataset = self._dataset.to_dict()
        return {
            "dataset": dataset,
            "pairs": {
                f"{a},{b}": {
                    "levels": {f"{l0},{l1}": values.tolist()
                               for (l0, l1), values
                               in pair_hierarchy.levels.items()},
                    "lazy_groups": {f"{l0},{l1}": members.tolist()
                                    for (l0, l1), members
                                    in pair_hierarchy.lazy_groups.items()},
                    "lazy_cache": [[list(level), row, col, value]
                                   for (level, row, col), value
                                   in pair_hierarchy.lazy_cache.items()],
                }
                for (a, b), pair_hierarchy in self._pairs.items()},
        }

    def _restore_state_payload(self, payload: dict) -> None:
        self.hierarchy = IntervalHierarchy(self._domain_size, self.branching)
        data = payload.get("dataset")
        self._dataset = Dataset.from_dict(data) if data is not None else None
        self._pairs = {}
        for key, entry in payload["pairs"].items():
            a, b = (int(part) for part in key.split(","))
            pair_hierarchy = _PairHierarchy((a, b), self.hierarchy)
            pair_hierarchy.levels = {
                tuple(int(part) for part in level_key.split(",")):
                    np.asarray(values, dtype=float)
                for level_key, values in entry["levels"].items()}
            pair_hierarchy.lazy_groups = {
                tuple(int(part) for part in level_key.split(",")):
                    np.asarray(members, dtype=np.int64)
                for level_key, members in entry["lazy_groups"].items()}
            pair_hierarchy.lazy_cache = {
                (tuple(int(part) for part in level), int(row), int(col)):
                    float(value)
                for level, row, col, value in entry["lazy_cache"]}
            self._pairs[(a, b)] = pair_hierarchy

    # ------------------------------------------------------------------
    # Answering (the block hooks of PairwiseBatchAnswering): each 2-D
    # lookup decomposes both intervals into their least hierarchy nodes
    # and sums the (row node, column node) combinations' frequencies;
    # λ = 1 queries are padded to pairs and λ > 2 queries combine their
    # C(λ,2) pair answers with Weighted Update.
    # ------------------------------------------------------------------
    def _has_lazy_levels(self) -> bool:
        return any(pair_hierarchy.lazy_groups
                   for pair_hierarchy in self._pairs.values())

    def _answer_compiled(self, compiled) -> np.ndarray:
        if not self._has_lazy_levels():
            return super()._answer_compiled(compiled)
        # Lazy levels draw noise on first touch; answering the primitives
        # strictly in plan order, one at a time, is the only order that
        # keeps the RNG stream of answering them one query at a time.
        answers = []
        for query in compiled.flat_ranges:
            if query.dimension == 1:
                predicate = query.predicates[0]
                answers.append(self._answer_attributes(
                    np.array([predicate.attribute]), np.array([predicate.low]),
                    np.array([predicate.high]))[0])
            elif query.dimension == 2:
                answers.append(self._pair_answer(query))
            else:
                answers.append(estimate_lambda_query(
                    query, self._pair_answer, method=self.estimation_method,
                    max_iterations=self.estimation_iterations))
        return np.array(answers, dtype=float)

    def _answer_pairs(self, pairs, row_lows, row_highs, col_lows,
                      col_highs) -> np.ndarray:
        """Pair block rows: split by pair slot, one
        :meth:`_fused_pair_ranges` call per pair."""
        answers = np.empty(len(pairs))
        for slot in np.unique(pairs).tolist():
            rows = np.flatnonzero(pairs == slot)
            answers[rows] = self._fused_pair_ranges(
                slot_pair(slot), row_lows[rows], row_highs[rows],
                col_lows[rows], col_highs[rows])
        return answers

    def _fused_pair_ranges(self, key, row_lows, row_highs, col_lows,
                           col_highs) -> np.ndarray:
        """Pair ``key``'s rows: sum every entry's node combinations with
        one gather per level.

        Combinations from all entries are grouped by 2-dim level, and
        each level is answered with a single fancy-indexed lookup into
        its materialised estimates, scatter-added back onto the entries
        via ``bincount``.  Levels are visited in (row level, column
        level) order, so an entry's sum depends on its own nodes only.
        A hierarchy with lazy levels sums node by node in entry order,
        drawing lazy noise as it goes.
        """
        assert self.hierarchy is not None
        pair_hierarchy = self._pairs[key]
        entries = list(zip(row_lows.tolist(), row_highs.tolist(),
                           col_lows.tolist(), col_highs.tolist()))
        if pair_hierarchy.lazy_groups:
            return np.array([self._lazy_pair_sum(pair_hierarchy, *entry)
                             for entry in entries])
        n_levels = self.hierarchy.n_levels
        node_cache: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

        def nodes_of(low: int, high: int) -> tuple[np.ndarray, np.ndarray]:
            arrays = node_cache.get((low, high))
            if arrays is None:
                nodes = self.hierarchy.decompose(low, high)
                arrays = (np.array([node.level for node in nodes], dtype=np.int64),
                          np.array([node.index for node in nodes], dtype=np.int64))
                node_cache[(low, high)] = arrays
            return arrays

        code_parts, row_parts, col_parts, entry_parts = [], [], [], []
        for position, (row_low, row_high, col_low, col_high) in enumerate(entries):
            row_levels, row_indices = nodes_of(row_low, row_high)
            col_levels, col_indices = nodes_of(col_low, col_high)
            n_rows, n_cols = row_levels.size, col_levels.size
            code_parts.append(np.repeat(row_levels, n_cols) * n_levels
                              + np.tile(col_levels, n_rows))
            row_parts.append(np.repeat(row_indices, n_cols))
            col_parts.append(np.tile(col_indices, n_rows))
            entry_parts.append(np.full(n_rows * n_cols, position, dtype=np.int64))
        codes = np.concatenate(code_parts)
        rows = np.concatenate(row_parts)
        cols = np.concatenate(col_parts)
        entry_ids = np.concatenate(entry_parts)

        answers = np.zeros(len(entries))
        unique_codes, inverse = np.unique(codes, return_inverse=True)
        for group, code in enumerate(unique_codes):
            mask = inverse == group
            values = pair_hierarchy.levels[divmod(int(code), n_levels)]
            answers += np.bincount(entry_ids[mask],
                                   weights=values[rows[mask], cols[mask]],
                                   minlength=len(entries))
        return answers

    def _lazy_pair_sum(self, pair_hierarchy: _PairHierarchy, row_low: int,
                       row_high: int, col_low: int, col_high: int) -> float:
        """One 2-D answer node by node (the dataset is only dereferenced
        on lazy-level cache misses)."""
        assert self.hierarchy is not None
        answer = 0.0
        col_nodes = self.hierarchy.decompose(col_low, col_high)
        for node_row in self.hierarchy.decompose(row_low, row_high):
            for node_col in col_nodes:
                answer += pair_hierarchy.frequency(node_row, node_col,
                                                   self._dataset, self.epsilon,
                                                   self.rng)
        return answer
