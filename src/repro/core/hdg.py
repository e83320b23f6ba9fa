"""Hybrid-Dimensional Grids (HDG) mechanism — the paper's main contribution.

HDG extends TDG with finer-grained 1-D grids and response matrices:

1. **Constructing grids** — users are split into ``d + C(d,2)`` groups.
   ``d`` groups each report a 1-D grid (granularity ``g1``) for one
   attribute, ``C(d,2)`` groups each report a 2-D grid (granularity
   ``g2``) for one attribute pair, both through OLH.  The granularities
   follow the guideline of Section 4.6.
2. **Removing negativity and inconsistency** — Norm-Sub and cross-grid
   consistency, now spanning the 1-D and 2-D grids together (Phase 2).
3. **Answering range queries** — before answering, a ``c x c`` response
   matrix is built per attribute pair from its three grids (Algorithm 1).
   A 2-D query is answered from the pair's 2-D grid, with partially
   covered cells evaluated through the response matrix instead of the
   uniformity assumption.  λ-D queries (λ > 2) combine the associated 2-D
   answers with Weighted Update (Algorithm 2); 1-D queries read the
   attribute's own fine-grained 1-D grid.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..datasets import Dataset
from ..frequency_oracles import OptimizedLocalHash, SupportAccumulator
from ..protocol import partition_users, partition_users_weighted
from ..queries import RangeQuery
from ..queries.compiler import pair_slot
from .base import RangeQueryMechanism
from .granularity import (DEFAULT_ALPHA1, DEFAULT_ALPHA2,
                          choose_granularities_hdg)
from .grid import Grid1D, Grid2D
from .phase2 import run_phase2
from .prefix_sum import PrefixStack1D, PrefixStack2D, SummedAreaTable
from .query_estimation import (PairwiseBatchAnswering, by_pair_slot,
                               estimate_lambda_query, grid_index, stack_grids)
from .response_matrix import build_response_matrix


class HDG(PairwiseBatchAnswering, RangeQueryMechanism):
    """Hybrid-Dimensional Grids under ε-LDP.

    Parameters
    ----------
    epsilon:
        Per-user privacy budget.
    granularities:
        Optional explicit ``(g1, g2)`` pair; by default the guideline
        values are derived at fit time.
    alpha1, alpha2:
        Guideline constants (used only when ``granularities`` is None).
    sigma:
        Fraction of users assigned to 1-D grids.  ``None`` (default) uses
        the equal-population split σ0 = d / (d + C(d,2)); Figure 15 sweeps
        this parameter.
    postprocess:
        Whether to run Phase 2.  ``False`` yields the IHDG ablation
        variant from Appendix A.1.
    consistency_rounds:
        Number of Norm-Sub/consistency interleavings in Phase 2.
    estimation_method:
        ``"weighted_update"`` (Algorithm 2) or ``"max_entropy"``
        (Appendix A.8) for λ > 2 queries.
    matrix_iterations, estimation_iterations:
        Iteration caps for Algorithms 1 and 2 (the paper caps both at 100
        for the inconsistent variants; converged runs stop much earlier).
    convergence_threshold:
        Convergence threshold for Algorithms 1 and 2 (the paper uses any
        value below ``1/n``).
    oracle_mode:
        ``"fast"`` or ``"user"`` execution mode of the OLH oracle.
    seed:
        Seed for grouping and perturbation randomness.
    """

    name = "HDG"

    def __init__(self, epsilon: float,
                 granularities: tuple[int, int] | None = None,
                 alpha1: float = DEFAULT_ALPHA1, alpha2: float = DEFAULT_ALPHA2,
                 sigma: float | None = None, postprocess: bool = True,
                 consistency_rounds: int = 3,
                 estimation_method: str = "weighted_update",
                 matrix_iterations: int = 100, estimation_iterations: int = 100,
                 convergence_threshold: float = 1e-7,
                 oracle_mode: str = "fast", seed: int | None = None):
        super().__init__(epsilon, seed)
        self.granularities = granularities
        self.alpha1 = float(alpha1)
        self.alpha2 = float(alpha2)
        if sigma is not None and not 0.0 < sigma < 1.0:
            raise ValueError(f"sigma must be in (0, 1), got {sigma}")
        self.sigma = sigma
        self.postprocess = bool(postprocess)
        self.consistency_rounds = int(consistency_rounds)
        self.estimation_method = estimation_method
        self.matrix_iterations = int(matrix_iterations)
        self.estimation_iterations = int(estimation_iterations)
        self.convergence_threshold = float(convergence_threshold)
        self.oracle_mode = oracle_mode
        self.grids_1d: dict[int, Grid1D] = {}
        self.grids_2d: dict[tuple[int, int], Grid2D] = {}
        self.response_matrices: dict[tuple[int, int], np.ndarray] = {}
        self.matrix_iteration_history: dict[tuple[int, int], list[float]] = {}
        self.chosen_g1: int | None = None
        self.chosen_g2: int | None = None
        self._acc_1d: dict[int, SupportAccumulator | None] = {}
        self._acc_2d: dict[tuple[int, int], SupportAccumulator | None] = {}
        self._total_reports = 0

    # ------------------------------------------------------------------
    # Phase 1 + 2: collection and post-processing
    # ------------------------------------------------------------------
    def _fit(self, dataset: Dataset) -> None:
        self._reset_aggregation()
        self._partial_fit(dataset, total_users=None)
        self._finalize()

    def _reset_aggregation(self) -> None:
        self.grids_1d = {}
        self.grids_2d = {}
        self.response_matrices = {}
        self.matrix_iteration_history = {}
        self.chosen_g1 = None
        self.chosen_g2 = None
        self._acc_1d = {}
        self._acc_2d = {}
        self._total_reports = 0

    def _ensure_layout(self, planning_users: int | None) -> None:
        if self.chosen_g1 is not None:
            return
        d, c = self._n_attributes, self._domain_size
        if d < 2:
            raise ValueError(f"{self.name} requires at least 2 attributes")
        pairs = list(combinations(range(d), 2))
        if self.granularities is not None:
            g1, g2 = int(self.granularities[0]), int(self.granularities[1])
            if g1 < g2:
                raise ValueError(
                    f"g1 ({g1}) must be at least g2 ({g2}) so the consistency "
                    "buckets align")
        else:
            if planning_users is None:
                raise ValueError(
                    "total_users is required to derive the guideline "
                    "granularities before the first batch")
            planning = choose_granularities_hdg(
                self.epsilon, planning_users, d, c,
                alpha1=self.alpha1, alpha2=self.alpha2, sigma=self.sigma)
            g1, g2 = planning.g1, planning.g2
        self.chosen_g1, self.chosen_g2 = g1, g2
        self.grids_1d = {attribute: Grid1D(attribute, c, g1)
                         for attribute in range(d)}
        self.grids_2d = {pair: Grid2D(pair, c, g2) for pair in pairs}
        self._acc_1d = {attribute: None for attribute in range(d)}
        self._acc_2d = {pair: None for pair in pairs}

    def _partial_fit(self, dataset: Dataset, total_users: int | None) -> None:
        d = dataset.n_attributes
        if d < 2:
            raise ValueError("HDG requires at least 2 attributes")
        pairs = list(combinations(range(d), 2))
        self._ensure_layout(total_users or dataset.n_users)
        g1, g2 = self.chosen_g1, self.chosen_g2

        # Split this batch's population between 1-D and 2-D duties (the σ
        # split applies per shard), then into per-grid groups.
        n1, n2 = self._batch_split(dataset.n_users, d)
        block_1d, block_2d = self._population_blocks(dataset.n_users, n1, n2)
        groups_1d = partition_users(max(block_1d.size, 1), d, self.rng)
        groups_2d = partition_users(max(block_2d.size, 1), len(pairs), self.rng)

        for attribute, group in zip(range(d), groups_1d):
            members = block_1d[group] if block_1d.size else np.array([], dtype=int)
            if members.size > 0:
                oracle = OptimizedLocalHash(self.epsilon, g1, rng=self.rng,
                                            mode=self.oracle_mode)
                batch = self.grids_1d[attribute].accumulate(
                    dataset.column(attribute)[members], oracle)
                if self._acc_1d[attribute] is None:
                    self._acc_1d[attribute] = batch
                else:
                    self._acc_1d[attribute].merge(batch)

        for pair, group in zip(pairs, groups_2d):
            members = block_2d[group] if block_2d.size else np.array([], dtype=int)
            if members.size > 0:
                oracle = OptimizedLocalHash(self.epsilon, g2 * g2, rng=self.rng,
                                            mode=self.oracle_mode)
                batch = self.grids_2d[pair].accumulate(
                    dataset.columns(pair)[members], oracle)
                if self._acc_2d[pair] is None:
                    self._acc_2d[pair] = batch
                else:
                    self._acc_2d[pair].merge(batch)
        self._total_reports += dataset.n_users

    def _merge(self, other: "HDG") -> None:
        if other.chosen_g1 is None:
            return
        if self.chosen_g1 is None:
            self.chosen_g1, self.chosen_g2 = other.chosen_g1, other.chosen_g2
            c = self._domain_size
            self.grids_1d = {attribute: Grid1D(attribute, c, other.chosen_g1)
                             for attribute in other.grids_1d}
            self.grids_2d = {pair: Grid2D(pair, c, other.chosen_g2)
                             for pair in other.grids_2d}
            self._acc_1d = {attribute: None for attribute in other.grids_1d}
            self._acc_2d = {pair: None for pair in other.grids_2d}
        elif (self.chosen_g1, self.chosen_g2) != (other.chosen_g1, other.chosen_g2):
            raise ValueError(
                f"shards disagree on granularities (g1={self.chosen_g1}, "
                f"g2={self.chosen_g2}) vs (g1={other.chosen_g1}, "
                f"g2={other.chosen_g2}); pass the same total_users or explicit "
                "granularities to every shard")
        for attribute, accumulator in other._acc_1d.items():
            if accumulator is None:
                continue
            if self._acc_1d[attribute] is None:
                self._acc_1d[attribute] = accumulator.copy()
            else:
                self._acc_1d[attribute].merge(accumulator)
        for pair, accumulator in other._acc_2d.items():
            if accumulator is None:
                continue
            if self._acc_2d[pair] is None:
                self._acc_2d[pair] = accumulator.copy()
            else:
                self._acc_2d[pair].merge(accumulator)
        self._total_reports += other._total_reports

    def _finalize(self) -> None:
        g1, g2 = self.chosen_g1, self.chosen_g2
        c = self._domain_size
        for attribute, grid in self.grids_1d.items():
            oracle = OptimizedLocalHash(self.epsilon, g1, rng=self.rng,
                                        mode=self.oracle_mode)
            grid.finalize_from(self._acc_1d[attribute], oracle)
        for pair, grid in self.grids_2d.items():
            oracle = OptimizedLocalHash(self.epsilon, g2 * g2, rng=self.rng,
                                        mode=self.oracle_mode)
            grid.finalize_from(self._acc_2d[pair], oracle)

        if self.postprocess:
            run_phase2(self._n_attributes, self.grids_1d, self.grids_2d,
                       n_buckets=g2, rounds=self.consistency_rounds)

        # Build all response matrices up front (they are reused by every query).
        threshold = min(self.convergence_threshold,
                        1.0 / max(self._total_reports, 1))
        self.response_matrices = {}
        self.matrix_iteration_history = {}
        for pair, grid in self.grids_2d.items():
            result = build_response_matrix(self.grids_1d[pair[0]],
                                           self.grids_1d[pair[1]], grid, c,
                                           threshold=threshold,
                                           max_iterations=self.matrix_iterations,
                                           track_history=True)
            self.response_matrices[pair] = result.matrix
            self.matrix_iteration_history[pair] = result.change_history

        # Precompute the answering tables: prefix sums over every grid
        # plus a summed-area table per response matrix.
        self._tables()

    # ------------------------------------------------------------------
    # Shard-state serialization (see docs/architecture.md for the schema)
    # ------------------------------------------------------------------
    def shard_state(self) -> dict:
        """Portable snapshot of the un-finalised accumulator state."""
        if self.chosen_g1 is None:
            raise RuntimeError("no batches ingested; nothing to serialize")
        return {
            **self._shard_header(self._total_reports),
            "granularity": {"g1": self.chosen_g1, "g2": self.chosen_g2},
            "accumulators": {
                "1d": {str(attribute): (acc.to_dict() if acc is not None else None)
                       for attribute, acc in self._acc_1d.items()},
                "2d": {f"{a},{b}": (acc.to_dict() if acc is not None else None)
                       for (a, b), acc in self._acc_2d.items()},
            },
        }

    def load_shard_state(self, state: dict) -> "HDG":
        """Restore accumulator state produced by :meth:`shard_state`."""
        if self.chosen_g1 is not None or self._fitted:
            raise RuntimeError("shard state can only be loaded into a fresh "
                               "mechanism instance")
        self._total_reports = self._load_shard_header(state)
        self.chosen_g1 = int(state["granularity"]["g1"])
        self.chosen_g2 = int(state["granularity"]["g2"])
        d, c = self._n_attributes, self._domain_size
        pairs = list(combinations(range(d), 2))
        self.grids_1d = {attribute: Grid1D(attribute, c, self.chosen_g1)
                         for attribute in range(d)}
        self.grids_2d = {pair: Grid2D(pair, c, self.chosen_g2) for pair in pairs}
        entries_1d = state["accumulators"]["1d"]
        entries_2d = state["accumulators"]["2d"]
        self._acc_1d = {
            attribute: (SupportAccumulator.from_dict(entries_1d[str(attribute)])
                        if entries_1d.get(str(attribute)) is not None else None)
            for attribute in range(d)}
        self._acc_2d = {
            pair: (SupportAccumulator.from_dict(entries_2d[f"{pair[0]},{pair[1]}"])
                   if entries_2d.get(f"{pair[0]},{pair[1]}") is not None else None)
            for pair in pairs}
        return self

    # ------------------------------------------------------------------
    # Fitted-state serialization (snapshots; see docs/serving.md)
    # ------------------------------------------------------------------
    def _snapshot_config(self) -> dict:
        return {
            "granularities": (list(self.granularities)
                              if self.granularities is not None else None),
            "alpha1": self.alpha1,
            "alpha2": self.alpha2,
            "sigma": self.sigma,
            "postprocess": self.postprocess,
            "consistency_rounds": self.consistency_rounds,
            "estimation_method": self.estimation_method,
            "matrix_iterations": self.matrix_iterations,
            "estimation_iterations": self.estimation_iterations,
            "convergence_threshold": self.convergence_threshold,
            "oracle_mode": self.oracle_mode,
        }

    def _state_payload(self) -> dict:
        return {
            "g1": self.chosen_g1,
            "g2": self.chosen_g2,
            "total_reports": self._total_reports,
            "grids_1d": {str(attribute): grid.frequencies.tolist()
                         for attribute, grid in self.grids_1d.items()},
            "grids_2d": {f"{a},{b}": grid.frequencies.tolist()
                         for (a, b), grid in self.grids_2d.items()},
            "response_matrices": {f"{a},{b}": matrix.tolist()
                                  for (a, b), matrix
                                  in self.response_matrices.items()},
            "matrix_iteration_history": {
                f"{a},{b}": [float(change) for change in history]
                for (a, b), history in self.matrix_iteration_history.items()},
        }

    def _restore_state_payload(self, payload: dict) -> None:
        self.chosen_g1 = int(payload["g1"])
        self.chosen_g2 = int(payload["g2"])
        self._total_reports = int(payload["total_reports"])
        if self._n_reports is None:
            # Pre-IR snapshot documents carry no top-level n_reports, but
            # the grid payload always recorded the same count.
            self._n_reports = self._total_reports
        c = self._domain_size
        self.grids_1d = {}
        for key, values in payload["grids_1d"].items():
            attribute = int(key)
            grid = Grid1D(attribute, c, self.chosen_g1)
            grid.set_frequencies(np.asarray(values, dtype=float))
            self.grids_1d[attribute] = grid
        self.grids_2d = {}
        for key, rows in payload["grids_2d"].items():
            a, b = (int(part) for part in key.split(","))
            grid = Grid2D((a, b), c, self.chosen_g2)
            grid.set_frequencies(np.asarray(rows, dtype=float))
            self.grids_2d[(a, b)] = grid
        self.response_matrices = {}
        for key, rows in payload["response_matrices"].items():
            a, b = (int(part) for part in key.split(","))
            self.response_matrices[(a, b)] = np.asarray(rows, dtype=float)
        self.matrix_iteration_history = {}
        for key, history in payload.get("matrix_iteration_history", {}).items():
            a, b = (int(part) for part in key.split(","))
            self.matrix_iteration_history[(a, b)] = [float(change)
                                                     for change in history]
        self._acc_1d = {attribute: None for attribute in self.grids_1d}
        self._acc_2d = {pair: None for pair in self.grids_2d}
        self._tables()

    def _batch_split(self, n_users: int, d: int) -> tuple[int, int]:
        """1-D/2-D user split ``(n1, n2)`` for one batch.

        Same proportions and clamping as the guideline's user split, but
        computable for arbitrarily small batches: a 1-user batch sends its
        user to one side instead of failing the guideline's n1 >= 1 / n2 >= 1
        requirement.
        """
        if self.sigma is None:
            m1, m2 = d, d * (d - 1) // 2
            raw = n_users * m1 / (m1 + m2)
        else:
            raw = n_users * self.sigma
        n1 = int(round(raw))
        if n_users >= 2:
            n1 = min(max(n1, 1), n_users - 1)
        else:
            n1 = min(max(n1, 0), n_users)
        return n1, n_users - n1

    def _population_blocks(self, n_users: int, n1: int,
                           n2: int) -> tuple[np.ndarray, np.ndarray]:
        """Split user indices into the 1-D block and the 2-D block."""
        blocks = partition_users_weighted(n_users, [n1, n2], self.rng)
        return blocks[0], blocks[1]

    # ------------------------------------------------------------------
    # Phase 3: answering (the block hooks of PairwiseBatchAnswering)
    # ------------------------------------------------------------------
    def _tables(self) -> tuple[PrefixStack1D, PrefixStack2D]:
        """The 1-D grids' tables in attribute order, and the 2-D grids'
        tables with their response matrices' summed-area tables in
        pair-slot order.

        Rebuilt when a grid's index or a response matrix is replaced
        (a replaced matrix is never served stale).
        """
        pairs, singles = self.grids_2d, self.grids_1d
        matrices = self.response_matrices

        return self._stacked(
            lambda: [*map(grid_index, pairs.values()),
                     *map(grid_index, singles.values()), *matrices.values()],
            lambda: (
                stack_grids(PrefixStack1D,
                            [singles[attribute]
                             for attribute in sorted(singles)]),
                stack_grids(PrefixStack2D, by_pair_slot(pairs),
                            by_pair_slot(matrices))))

    def _response_index(self, key: tuple[int, int]) -> SummedAreaTable:
        """The summed-area table of pair ``key``'s response matrix."""
        return self._tables()[1].responses[pair_slot(*key)]

    def _answer_attributes(self, attributes, lows, highs) -> np.ndarray:
        """Attribute block rows: one gather over the stacked 1-D grids."""
        return self._tables()[0].answer(attributes, lows, highs)

    def _answer_pairs(self, pairs, row_lows, row_highs, col_lows,
                      col_highs) -> np.ndarray:
        """Pair block rows: one gather over the stacked grids and
        response matrices."""
        return self._tables()[1].answer(pairs, row_lows, row_highs,
                                        col_lows, col_highs)

    # ------------------------------------------------------------------
    # Diagnostics used by the convergence experiments
    # ------------------------------------------------------------------
    def estimate_with_history(self, query: RangeQuery) -> tuple[float, list[float]]:
        """Answer a λ-D query and return Algorithm 2's change history."""
        if query.dimension <= 2:
            return self.answer(query), []
        self.query_planner().validate(query)
        return estimate_lambda_query(query, self._pair_answer,
                                     method=self.estimation_method,
                                     max_iterations=self.estimation_iterations,
                                     track_history=True)


class IHDG(HDG):
    """Inconsistent HDG: the Phase-2 ablation variant (Appendix A.1)."""

    name = "IHDG"

    def __init__(self, epsilon: float, **kwargs):
        kwargs["postprocess"] = False
        super().__init__(epsilon, **kwargs)
