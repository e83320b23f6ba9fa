"""HIO baseline: the d-dimensional Hierarchical Interval Optimization (Section 3.3).

HIO (Wang et al., SIGMOD 2019) builds a 1-D interval hierarchy per
attribute (branching factor ``b``, ``h + 1`` levels) and combines them into
a d-dimensional hierarchy with ``(h + 1)^d`` d-dim levels.  Users are
randomly divided into one group per d-dim level; each group reports, via
OLH, which d-dim interval of its level contains its record.  A range query
is answered by expanding it to all ``d`` attributes (unrestricted
attributes get the full-domain root interval), decomposing each attribute's
interval into the least set of hierarchy nodes, and summing the noisy
frequencies of every combination of per-attribute nodes.

Because the number of groups explodes with ``d`` and ``c``, each group is
tiny and the noise is enormous — HIO is the paper's example of failing the
curse-of-dimensionality and large-domain challenges.

Implementation note: a d-dim level can contain up to ``c^d`` intervals.
Levels of more than ``materialize_limit`` intervals are evaluated lazily: a
requested interval's frequency is its true frequency within the group plus
Gaussian noise with OLH's variance for that group size.  The substitution
is recorded in ``docs/reproduce.md`` (Substitutions).
"""

from __future__ import annotations

import math
from itertools import product

import numpy as np

from ..core.base import RangeQueryMechanism
from ..datasets import Dataset
from ..frequency_oracles import OptimizedLocalHash, olh_variance
from ..queries import RangeQuery
from .hierarchy import HierarchyNode, IntervalHierarchy

#: Node combinations enumerated at once while answering a query; it
#: bounds the index arrays' memory (a λ=6 query at c=64 has up to 14^6
#: combinations) and does not change any answer.
COMBINATION_CHUNK = 1 << 16

#: The memo of a lazy level that has drawn nothing yet.
_NO_DRAWS = (np.empty(0, dtype=np.int64), np.empty(0))


class HIO(RangeQueryMechanism):
    """Hierarchical Interval Optimization baseline.

    Parameters
    ----------
    epsilon:
        Per-user privacy budget.
    branching:
        Branching factor of every 1-D hierarchy (the paper uses 4).
    materialize_limit:
        Maximum number of intervals in a d-dim level for which the full
        OLH aggregation is materialised; larger levels fall back to the
        lazy noisy-lookup path.
    oracle_mode:
        OLH execution mode for materialised levels.
    seed:
        Randomness seed.
    """

    name = "HIO"

    #: Answering materialises levels and draws lazy noise, memoising
    #: both (``_materialized``, ``_lazy_memo``), so concurrent answering
    #: must be serialized by the caller.
    answering_is_pure = False

    def __init__(self, epsilon: float, branching: int = 4,
                 materialize_limit: int = 1 << 16,
                 oracle_mode: str = "fast", seed: int | None = None):
        super().__init__(epsilon, seed)
        self.branching = int(branching)
        self.materialize_limit = int(materialize_limit)
        self.oracle_mode = oracle_mode
        self.hierarchy: IntervalHierarchy | None = None
        self._dataset: Dataset | None = None
        self._group_order: np.ndarray | None = None
        self._group_offsets: np.ndarray | None = None
        self._level_index: dict[tuple[int, ...], int] = {}
        self._materialized: dict[tuple[int, ...], np.ndarray] = {}
        # Per lazy level: the drawn intervals' sorted (codes, values) and,
        # derived and not snapshotted, its group's sorted interval codes.
        self._lazy_memo: dict[tuple, tuple[np.ndarray, np.ndarray]] = {}
        self._lazy_members: dict[tuple[int, ...], np.ndarray] = {}

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def _fit(self, dataset: Dataset) -> None:
        d = dataset.n_attributes
        if dataset.domain_size ** d >= 1 << 63:
            raise ValueError("HIO indexes a level's intervals as int64: "
                             "c^d must be below 2^63")
        self._dataset = dataset
        self.hierarchy = IntervalHierarchy(dataset.domain_size, self.branching)
        levels_per_dim = self.hierarchy.n_levels
        all_levels = list(product(range(levels_per_dim), repeat=d))
        self._level_index = {level: i for i, level in enumerate(all_levels)}

        # Balanced random partition into one group per d-dim level, stored
        # as a permutation plus offsets so that millions of groups stay cheap.
        n_groups = len(all_levels)
        self._group_order = self.rng.permutation(dataset.n_users)
        base, extra = divmod(dataset.n_users, n_groups)
        sizes = np.full(n_groups, base, dtype=np.int64)
        sizes[:extra] += 1
        self._group_offsets = np.concatenate(([0], np.cumsum(sizes)))

        self._materialized, self._lazy_memo, self._lazy_members = {}, {}, {}

    # ------------------------------------------------------------------
    # Fitted-state serialization (snapshots; see docs/serving.md)
    #
    # HIO answers lazily: levels are materialised (drawing OLH
    # randomness) and over-limit intervals draw simulation noise on
    # first touch.  A bitwise-faithful snapshot therefore carries the
    # group assignment, every cache filled so far and — because future
    # lookups re-read the raw records — the dataset itself; the RNG
    # state travels in the base-class envelope.
    # ------------------------------------------------------------------
    def _snapshot_config(self) -> dict:
        return {"branching": self.branching,
                "materialize_limit": self.materialize_limit,
                "oracle_mode": self.oracle_mode}

    def _state_payload(self) -> dict:
        assert self._dataset is not None
        assert self._group_order is not None and self._group_offsets is not None
        return {
            "dataset": self._dataset.to_dict(),
            "group_order": self._group_order.tolist(),
            "group_offsets": self._group_offsets.tolist(),
            "materialized": {
                ",".join(str(part) for part in level): estimates.tolist()
                for level, estimates in self._materialized.items()},
            "lazy_cache": [
                [list(level), [int(index) for index in cell], float(value)]
                for level, (codes, values) in self._lazy_memo.items()
                for cell, value in zip(
                    zip(*np.unravel_index(codes, self._level_shape(level))),
                    values)],
        }

    def _restore_state_payload(self, payload: dict) -> None:
        self._dataset = Dataset.from_dict(payload["dataset"])
        self.hierarchy = IntervalHierarchy(self._dataset.domain_size,
                                           self.branching)
        all_levels = list(product(range(self.hierarchy.n_levels),
                                  repeat=self._n_attributes))
        self._level_index = {level: i for i, level in enumerate(all_levels)}
        self._group_order = np.asarray(payload["group_order"], dtype=np.int64)
        self._group_offsets = np.asarray(payload["group_offsets"],
                                         dtype=np.int64)
        self._materialized = {
            tuple(int(part) for part in key.split(",")):
                np.asarray(estimates, dtype=float)
            for key, estimates in payload["materialized"].items()}
        rows: dict[tuple[int, ...], list[list]] = {}
        for level, indices, value in payload["lazy_cache"]:
            rows.setdefault(tuple(level), []).append([*indices, value])
        self._lazy_memo, self._lazy_members = {}, {}
        for level, table in rows.items():
            table = np.array(table)  # node indices are exact as floats
            self._remember(level, np.ravel_multi_index(
                table[:, :-1].astype(np.int64).T, self._level_shape(level)),
                table[:, -1])

    # ------------------------------------------------------------------
    # Group and level helpers
    # ------------------------------------------------------------------
    def _group_members(self, level: tuple[int, ...]) -> np.ndarray:
        index = self._level_index[level]
        start, end = self._group_offsets[index], self._group_offsets[index + 1]
        return self._group_order[start:end]

    def _level_shape(self, level: tuple[int, ...]) -> tuple[int, ...]:
        assert self.hierarchy is not None
        return tuple(self.hierarchy.nodes_at_level(one_dim_level)
                     for one_dim_level in level)

    def _level_size(self, level: tuple[int, ...]) -> int:
        return math.prod(self._level_shape(level))

    def _interval_indices(self, level: tuple[int, ...],
                          values: np.ndarray) -> np.ndarray:
        """Flattened d-dim interval index of each record at a d-dim level."""
        assert self.hierarchy is not None
        widths = [self.hierarchy.node_width(one_dim_level)
                  for one_dim_level in level]
        return np.ravel_multi_index((values // widths).T,
                                    self._level_shape(level))

    def _materialize_level(self, level: tuple[int, ...]) -> np.ndarray:
        assert self._dataset is not None
        members = self._group_members(level)
        size = self._level_size(level)
        if members.size == 0:
            return np.zeros(size)
        oracle = OptimizedLocalHash(self.epsilon, max(size, 2), rng=self.rng,
                                    mode=self.oracle_mode)
        indices = self._interval_indices(level, self._dataset.values[members])
        return oracle.estimate_frequencies(indices)[:size]

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def _answer_compiled(self, compiled) -> np.ndarray:
        """Each primitive in plan order (lazy draws keep their order)."""
        return np.array([self._answer_query(query)
                         for query in compiled.flat_ranges], dtype=float)

    def _answer_query(self, query: RangeQuery) -> float:
        """Sum of every node combination of the query's d-dim expansion.

        Combinations run in :func:`itertools.product` order, in chunks;
        first touches materialise levels and draw lazy noise in that
        order, as the per-combination loop does.  The lazy values are
        summed left to right, then each materialised level's gather in
        first-touch order.
        """
        assert self.hierarchy is not None and self._n_attributes is not None
        full = (0, self.hierarchy.domain_size - 1)
        decompositions = [self.hierarchy.decompose(
            *(query.interval(attribute) if attribute in query.attributes
              else full)) for attribute in range(self._n_attributes)]
        nodes = [np.array([(node.level, node.index) for node in axis_nodes])
                 for axis_nodes in decompositions]
        lengths = tuple(len(axis_nodes) for axis_nodes in nodes)
        n_combinations = math.prod(lengths)
        lazy_sum = 0.0
        gathered: dict[tuple[int, ...], list[np.ndarray]] = {}
        for start in range(0, n_combinations, COMBINATION_CHUNK):
            positions = np.unravel_index(np.arange(
                start, min(start + COMBINATION_CHUNK, n_combinations)), lengths)
            lazy_values = self._answer_chunk(
                [axis_nodes[at] for axis_nodes, at in zip(nodes, positions)],
                gathered)
            lazy_sum = float(np.cumsum(np.r_[lazy_sum, lazy_values])[-1])
        for level, flats in gathered.items():
            lazy_sum += float(
                self._materialized[level][np.concatenate(flats)].sum())
        return lazy_sum

    def _answer_chunk(self, nodes: list[np.ndarray],
                      gathered: dict[tuple[int, ...], list[np.ndarray]]
                      ) -> np.ndarray:
        """Draw what a run of combinations (one ``(level, index)`` row per
        attribute) first touches; return its lazy values in order and
        append its materialised interval indices to ``gathered``, keyed
        by level in first-touch order."""
        assert self.hierarchy is not None
        n_levels = self.hierarchy.n_levels
        nodes_at = self.hierarchy.branching ** np.arange(n_levels)
        codes = np.zeros(len(nodes[0]), dtype=np.int64)
        flat = np.zeros_like(codes)
        for axis_nodes in nodes:
            codes = codes * n_levels + axis_nodes[:, 0]
            flat = flat * nodes_at[axis_nodes[:, 0]] + axis_nodes[:, 1]
        _, first, inverse, counts = np.unique(
            codes, return_index=True, return_inverse=True, return_counts=True)
        groups = np.split(np.argsort(inverse, kind="stable"),
                          np.cumsum(counts)[:-1])
        values, stds = np.zeros((2, codes.size))
        is_lazy, fresh = np.zeros((2, codes.size), dtype=bool)
        new_levels, drawn = [], []
        for positions in (groups[group] for group in np.argsort(first)):
            level = tuple(int(axis_nodes[positions[0], 0])
                          for axis_nodes in nodes)
            if self._level_size(level) <= self.materialize_limit:
                if level not in self._materialized:
                    new_levels.append((positions[0], level))
                gathered.setdefault(level, []).append(flat[positions])
                continue
            is_lazy[positions] = True
            memo_codes, memo_values = self._lazy_memo.get(level, _NO_DRAWS)
            slots = np.searchsorted(memo_codes, flat[positions])
            seen = slots < memo_codes.size
            seen[seen] = memo_codes[slots[seen]] == flat[positions[seen]]
            values[positions[seen]] = memo_values[slots[seen]]
            unseen = positions[~seen]
            if unseen.size:
                members = self._member_codes(level)
                n_group = max(members.size, 1)
                values[unseen] = (
                    np.searchsorted(members, flat[unseen], side="right")
                    - np.searchsorted(members, flat[unseen])) / n_group
                stds[unseen] = float(np.sqrt(olh_variance(self.epsilon,
                                                          n_group)))
                fresh[unseen] = True
                drawn.append((level, unseen))
        # The noise drawn between two materialisations comes from one call.
        to_draw = np.flatnonzero(fresh)
        done = 0
        for position, level in new_levels + [(codes.size, None)]:
            stop = int(np.searchsorted(to_draw, position))
            if stop > done:
                values[to_draw[done:stop]] += self.rng.normal(
                    0.0, stds[to_draw[done:stop]])
                done = stop
            if level is not None:
                self._materialized[level] = self._materialize_level(level)
        for level, unseen in drawn:
            self._remember(level, flat[unseen], values[unseen])
        return values[is_lazy]

    def _remember(self, level: tuple[int, ...], codes: np.ndarray,
                  values: np.ndarray) -> None:
        """Merge newly drawn intervals into a lazy level's sorted memo."""
        memo_codes, memo_values = self._lazy_memo.get(level, _NO_DRAWS)
        codes = np.concatenate((memo_codes, codes))
        order = np.argsort(codes)
        self._lazy_memo[level] = (
            codes[order], np.concatenate((memo_values, values))[order])

    def _member_codes(self, level: tuple[int, ...]) -> np.ndarray:
        """Sorted interval index of each member of a lazy level's group."""
        if level not in self._lazy_members:
            assert self._dataset is not None
            self._lazy_members[level] = np.sort(self._interval_indices(
                level, self._dataset.values[self._group_members(level)]))
        return self._lazy_members[level]
