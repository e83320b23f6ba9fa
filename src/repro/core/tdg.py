"""Two-Dimensional Grids (TDG) mechanism.

TDG (Section 4) answers multi-dimensional range queries under ε-LDP in
three phases:

1. **Constructing grids** — users are split into ``C(d,2)`` groups, one
   per attribute pair; each group reports the ``g2 x g2`` cell of its
   pair's values through OLH, giving a noisy 2-D grid per pair.  The
   granularity ``g2`` follows the guideline of Section 4.6.
2. **Removing negativity and inconsistency** — Norm-Sub and cross-grid
   consistency (Phase 2).
3. **Answering range queries** — a 2-D query is answered from its pair's
   grid using the uniformity assumption for partially covered cells; a
   λ-D query (λ > 2) is answered by combining its ``C(λ,2)`` associated
   2-D answers with Weighted Update (Algorithm 2).
"""

from __future__ import annotations

from itertools import combinations

import numpy as np

from ..datasets import Dataset
from ..frequency_oracles import OptimizedLocalHash, SupportAccumulator
from ..protocol import partition_users
from .base import RangeQueryMechanism
from .granularity import DEFAULT_ALPHA2, choose_granularity_tdg
from .grid import Grid2D
from .phase2 import run_phase2
from .query_estimation import PairwiseBatchAnswering


class TDG(PairwiseBatchAnswering, RangeQueryMechanism):
    """Two-Dimensional Grids under ε-LDP.

    Parameters
    ----------
    epsilon:
        Per-user privacy budget.
    granularity:
        Optional explicit 2-D granularity ``g2``; by default the guideline
        value is derived at fit time from ``(epsilon, n, d, c)``.
    alpha2:
        Guideline constant (only used when ``granularity`` is None).
    postprocess:
        Whether to run Phase 2.  ``False`` yields the ITDG ablation
        variant from Appendix A.1.
    consistency_rounds:
        Number of Norm-Sub/consistency interleavings in Phase 2.
    estimation_method:
        ``"weighted_update"`` (Algorithm 2) or ``"max_entropy"``
        (Appendix A.8) for λ > 2 queries.
    oracle_mode:
        ``"fast"`` or ``"user"`` execution mode of the OLH oracle.
    seed:
        Seed for grouping and perturbation randomness.
    """

    name = "TDG"

    def __init__(self, epsilon: float, granularity: int | None = None,
                 alpha2: float = DEFAULT_ALPHA2, postprocess: bool = True,
                 consistency_rounds: int = 3,
                 estimation_method: str = "weighted_update",
                 estimation_iterations: int = 100,
                 oracle_mode: str = "fast", seed: int | None = None):
        super().__init__(epsilon, seed)
        self.granularity = granularity
        self.alpha2 = float(alpha2)
        self.postprocess = bool(postprocess)
        self.consistency_rounds = int(consistency_rounds)
        self.estimation_method = estimation_method
        self.estimation_iterations = int(estimation_iterations)
        self.oracle_mode = oracle_mode
        self.grids: dict[tuple[int, int], Grid2D] = {}
        self.chosen_g2: int | None = None
        self._accumulators: dict[tuple[int, int], SupportAccumulator | None] = {}
        self._total_reports = 0

    # ------------------------------------------------------------------
    # Phase 1 + 2: collection and post-processing
    # ------------------------------------------------------------------
    def _fit(self, dataset: Dataset) -> None:
        self._reset_aggregation()
        self._partial_fit(dataset, total_users=None)
        self._finalize()

    def _reset_aggregation(self) -> None:
        self.grids = {}
        self.chosen_g2 = None
        self._accumulators = {}
        self._total_reports = 0

    def _ensure_layout(self, planning_users: int | None) -> None:
        if self.chosen_g2 is not None:
            return
        d, c = self._n_attributes, self._domain_size
        if d < 2:
            raise ValueError(f"{self.name} requires at least 2 attributes")
        pairs = list(combinations(range(d), 2))
        if self.granularity is not None:
            g2 = int(self.granularity)
        else:
            if planning_users is None:
                raise ValueError(
                    "total_users is required to derive the guideline "
                    "granularity before the first batch")
            g2 = choose_granularity_tdg(self.epsilon, planning_users,
                                        d, c, alpha2=self.alpha2).g2
        self.chosen_g2 = g2
        self.grids = {pair: Grid2D(pair, c, g2) for pair in pairs}
        self._accumulators = {pair: None for pair in pairs}

    def _partial_fit(self, dataset: Dataset, total_users: int | None) -> None:
        d = dataset.n_attributes
        if d < 2:
            raise ValueError("TDG requires at least 2 attributes")
        pairs = list(combinations(range(d), 2))
        self._ensure_layout(total_users or dataset.n_users)
        g2 = self.chosen_g2

        groups = partition_users(dataset.n_users, len(pairs), self.rng)
        for pair, group in zip(pairs, groups):
            if group.size > 0:
                oracle = OptimizedLocalHash(self.epsilon, g2 * g2, rng=self.rng,
                                            mode=self.oracle_mode)
                batch = self.grids[pair].accumulate(
                    dataset.columns(pair)[group], oracle)
                if self._accumulators[pair] is None:
                    self._accumulators[pair] = batch
                else:
                    self._accumulators[pair].merge(batch)
        self._total_reports += dataset.n_users

    def _merge(self, other: "TDG") -> None:
        if other.chosen_g2 is None:
            return
        if self.chosen_g2 is None:
            self.chosen_g2 = other.chosen_g2
            self.grids = {pair: Grid2D(pair, self._domain_size, other.chosen_g2)
                          for pair in other.grids}
            self._accumulators = {pair: None for pair in other.grids}
        elif self.chosen_g2 != other.chosen_g2:
            raise ValueError(
                f"shards disagree on the 2-D granularity ({self.chosen_g2} vs "
                f"{other.chosen_g2}); pass the same total_users or an explicit "
                "granularity to every shard")
        for pair, accumulator in other._accumulators.items():
            if accumulator is None:
                continue
            if self._accumulators[pair] is None:
                self._accumulators[pair] = accumulator.copy()
            else:
                self._accumulators[pair].merge(accumulator)
        self._total_reports += other._total_reports

    def _finalize(self) -> None:
        g2 = self.chosen_g2
        for pair, grid in self.grids.items():
            oracle = OptimizedLocalHash(self.epsilon, g2 * g2, rng=self.rng,
                                        mode=self.oracle_mode)
            grid.finalize_from(self._accumulators[pair], oracle)
        if self.postprocess:
            run_phase2(self._n_attributes, {}, self.grids, n_buckets=g2,
                       rounds=self.consistency_rounds)
        # Precompute the prefix-sum indexes so the first query is as fast
        # as the thousandth.
        for grid in self.grids.values():
            grid.build_index()

    # ------------------------------------------------------------------
    # Shard-state serialization (see docs/architecture.md for the schema)
    # ------------------------------------------------------------------
    def shard_state(self) -> dict:
        """Portable snapshot of the un-finalised accumulator state."""
        if self.chosen_g2 is None:
            raise RuntimeError("no batches ingested; nothing to serialize")
        return {
            **self._shard_header(self._total_reports),
            "granularity": {"g2": self.chosen_g2},
            "accumulators": {
                "2d": {f"{a},{b}": (acc.to_dict() if acc is not None else None)
                       for (a, b), acc in self._accumulators.items()},
            },
        }

    def load_shard_state(self, state: dict) -> "TDG":
        """Restore accumulator state produced by :meth:`shard_state`."""
        if self.chosen_g2 is not None or self._fitted:
            raise RuntimeError("shard state can only be loaded into a fresh "
                               "mechanism instance")
        self._total_reports = self._load_shard_header(state)
        self.chosen_g2 = int(state["granularity"]["g2"])
        pairs = list(combinations(range(self._n_attributes), 2))
        self.grids = {pair: Grid2D(pair, self._domain_size, self.chosen_g2)
                      for pair in pairs}
        entries = state["accumulators"]["2d"]
        self._accumulators = {
            pair: (SupportAccumulator.from_dict(entries[f"{pair[0]},{pair[1]}"])
                   if entries.get(f"{pair[0]},{pair[1]}") is not None else None)
            for pair in pairs}
        return self

    # ------------------------------------------------------------------
    # Fitted-state serialization (snapshots; see docs/serving.md)
    # ------------------------------------------------------------------
    def _snapshot_config(self) -> dict:
        return {
            "granularity": self.granularity,
            "alpha2": self.alpha2,
            "postprocess": self.postprocess,
            "consistency_rounds": self.consistency_rounds,
            "estimation_method": self.estimation_method,
            "estimation_iterations": self.estimation_iterations,
            "oracle_mode": self.oracle_mode,
        }

    def _state_payload(self) -> dict:
        return {
            "g2": self.chosen_g2,
            "total_reports": self._total_reports,
            "grids": {f"{a},{b}": grid.frequencies.tolist()
                      for (a, b), grid in self.grids.items()},
        }

    def _restore_state_payload(self, payload: dict) -> None:
        self.chosen_g2 = int(payload["g2"])
        self._total_reports = int(payload["total_reports"])
        if self._n_reports is None:
            # Pre-IR snapshot documents carry no top-level n_reports, but
            # the grid payload always recorded the same count.
            self._n_reports = self._total_reports
        self.grids = {}
        for key, rows in payload["grids"].items():
            a, b = (int(part) for part in key.split(","))
            grid = Grid2D((a, b), self._domain_size, self.chosen_g2)
            grid.set_frequencies(np.asarray(rows, dtype=float))
            grid.build_index()
            self.grids[(a, b)] = grid
        self._accumulators = {pair: None for pair in self.grids}

    # ------------------------------------------------------------------
    # Phase 3: answering (the fused hooks of PairwiseBatchAnswering)
    # ------------------------------------------------------------------
    def _pair_grid(self, key):
        """The pair's grid, answered under the uniformity rule."""
        grid = self.grids.get(key)
        if grid is None:
            return self.grids[(key[1], key[0])], None, True
        return grid, None, False


class ITDG(TDG):
    """Inconsistent TDG: the Phase-2 ablation variant (Appendix A.1)."""

    name = "ITDG"

    def __init__(self, epsilon: float, **kwargs):
        kwargs["postprocess"] = False
        super().__init__(epsilon, **kwargs)
