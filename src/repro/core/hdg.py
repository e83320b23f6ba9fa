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

Phases 1 and 2 run in the aggregation core HDG shares with TDG
(:class:`~repro.core.aggregation.GridMechanism`), over a 1-D layer and
TDG's 2-D layer.  This module keeps what is HDG's own: the ``(g1, g2)``
granularity rule, the σ split of each batch between the layers, the
response matrices and the 1-D answering.  IHDG derives from it.
"""

from __future__ import annotations

from types import MappingProxyType

import numpy as np

from ..datasets import Dataset
from ..protocol import partition_users, partition_users_weighted
from ..queries import RangeQuery
from .aggregation import GridMechanism, parse_state_key, state_key
from .granularity import (DEFAULT_ALPHA1, DEFAULT_ALPHA2,
                          choose_granularities_hdg)
from .prefix_sum import PrefixStack1D, PrefixStack2D
from .query_estimation import (by_pair_slot, estimate_lambda_query,
                               stack_grids)
from .response_matrix import build_response_matrices


class HDG(GridMechanism):
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
    _LAYERS = {1: "grids_1d", 2: "grids_2d"}

    def __init__(self, epsilon: float,
                 granularities: tuple[int, int] | None = None,
                 alpha1: float = DEFAULT_ALPHA1, alpha2: float = DEFAULT_ALPHA2,
                 sigma: float | None = None, postprocess: bool = True,
                 consistency_rounds: int = 3,
                 estimation_method: str = "weighted_update",
                 matrix_iterations: int = 100, estimation_iterations: int = 100,
                 convergence_threshold: float = 1e-7,
                 oracle_mode: str = "fast", seed: int | None = None):
        super().__init__(epsilon, postprocess, consistency_rounds,
                         estimation_method, estimation_iterations,
                         oracle_mode, seed)
        if granularities is not None and postprocess:
            g1, g2 = int(granularities[0]), int(granularities[1])
            if 1 <= g2 <= g1 and g1 % g2 != 0:
                raise ValueError(
                    f"g1 ({g1}) must be a multiple of g2 ({g2}) so the "
                    "consistency buckets align")
        self.granularities = granularities
        self.alpha1 = float(alpha1)
        self.alpha2 = float(alpha2)
        if sigma is not None and not 0.0 < sigma < 1.0:
            raise ValueError(f"sigma must be in (0, 1), got {sigma}")
        self.sigma = sigma
        self.matrix_iterations = int(matrix_iterations)
        self.convergence_threshold = float(convergence_threshold)
        self._response_matrices: dict[tuple[int, int], np.ndarray] = {}
        self.matrix_iteration_history: dict[tuple[int, int], list[float]] = {}

    @property
    def response_matrices(self) -> MappingProxyType:
        """Each attribute pair's ``c x c`` response matrix (read-only,
        like the matrices themselves once the tables are built)."""
        return MappingProxyType(self._response_matrices)

    @property
    def chosen_g1(self) -> int | None:
        """The 1-D granularity (None before the layout is fixed)."""
        return self._layers[1].granularity if self._layers else None

    # ------------------------------------------------------------------
    # Phase 1 + 2: the granularity rule, the user split, response matrices
    # ------------------------------------------------------------------
    def _choose_granularities(self, planning_users: int | None
                              ) -> tuple[int, int]:
        if self.granularities is not None:
            g1, g2 = int(self.granularities[0]), int(self.granularities[1])
            if g1 < g2:
                raise ValueError(
                    f"g1 ({g1}) must be at least g2 ({g2}) so the consistency "
                    "buckets align")
            return g1, g2
        if planning_users is None:
            raise ValueError(
                "total_users is required to derive the guideline "
                "granularities before the first batch")
        planning = choose_granularities_hdg(
            self.epsilon, planning_users, self._n_attributes,
            self._domain_size, alpha1=self.alpha1, alpha2=self.alpha2,
            sigma=self.sigma)
        return planning.g1, planning.g2

    def _split_users(self, dataset: Dataset) -> list[list[np.ndarray]]:
        """This batch's population split between 1-D and 2-D duties (the
        σ split applies per shard), then into per-grid groups."""
        d = dataset.n_attributes
        n1, n2 = self._batch_split(dataset.n_users, d)
        blocks = partition_users_weighted(dataset.n_users, [n1, n2], self.rng)
        groups = [partition_users(max(blocks[0].size, 1), d, self.rng),
                  partition_users(max(blocks[1].size, 1), len(self.grids_2d),
                                  self.rng)]
        return [[block[group] if block.size else np.array([], dtype=int)
                 for group in block_groups]
                for block, block_groups in zip(blocks, groups)]

    def _finalize(self) -> None:
        super()._finalize()
        # Build all response matrices up front (they are reused by every
        # query) in one sweep; the 1-D layer's rows are in attribute order.
        threshold = min(self.convergence_threshold,
                        1.0 / max(self._n_reports, 1))
        singles, pairs = self._layers[1], self._layers[2]
        first, second = np.array(pairs.keys).T
        results = build_response_matrices(
            singles.frequencies[first], singles.frequencies[second],
            pairs.frequencies, self._domain_size, threshold=threshold,
            max_iterations=self.matrix_iterations)
        self._response_matrices = {
            pair: result.matrix for pair, result in zip(pairs.keys, results)}
        self.matrix_iteration_history = {
            pair: result.change_history
            for pair, result in zip(pairs.keys, results)}
        self._build_tables()

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
            **super()._state_payload(),
            "response_matrices": {state_key(pair): matrix.tolist()
                                  for pair, matrix
                                  in self.response_matrices.items()},
            "matrix_iteration_history": {
                state_key(pair): [float(change) for change in history]
                for pair, history in self.matrix_iteration_history.items()},
        }

    def _restore_state_payload(self, payload: dict) -> None:
        super()._restore_state_payload(payload)
        self._response_matrices = {
            parse_state_key(key): np.asarray(rows, dtype=float)
            for key, rows in payload["response_matrices"].items()}
        self.matrix_iteration_history = {
            parse_state_key(key): [float(change) for change in history]
            for key, history
            in payload.get("matrix_iteration_history", {}).items()}
        self._build_tables()

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

    # ------------------------------------------------------------------
    # Phase 3: answering (the block hooks of PairwiseBatchAnswering)
    # ------------------------------------------------------------------
    def _build_tables(self) -> None:
        """The 1-D grids' tables in attribute order, and the 2-D grids'
        with their response matrices' summed-area tables in pair-slot
        order."""
        singles = self.grids_1d
        self._attribute_stack = stack_grids(
            PrefixStack1D, [singles[key] for key in sorted(singles)])
        self._pair_stack = stack_grids(PrefixStack2D,
                                       by_pair_slot(self.grids_2d),
                                       by_pair_slot(self._response_matrices))

    def _answer_attributes(self, attributes, lows, highs) -> np.ndarray:
        """Attribute block rows: one gather over the stacked 1-D grids."""
        return self._attribute_stack.answer(attributes, lows, highs)

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
