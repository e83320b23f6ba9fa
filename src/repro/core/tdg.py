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

Phases 1 and 2 run in the aggregation core TDG shares with HDG
(:class:`~repro.core.aggregation.GridMechanism`): batches accumulate
per-pair support counts through ``partial_fit``, shards ``merge`` by
adding them, ``finalize`` debiases them and runs Phase 2 once, and
``shard_state``/``save_state`` serialize them.  This module keeps what
is TDG's own: the granularity rule and the user split (one group per
attribute pair); the core stacks the uniformity tables Phase 3 answers
from, once, when the mechanism becomes fitted.  CALM and ITDG derive
from it.
"""

from __future__ import annotations

import numpy as np

from ..datasets import Dataset
from ..protocol import partition_users
from .aggregation import GridMechanism
from .granularity import DEFAULT_ALPHA2, choose_granularity_tdg


class TDG(GridMechanism):
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
    _LAYERS = {2: "grids"}

    def __init__(self, epsilon: float, granularity: int | None = None,
                 alpha2: float = DEFAULT_ALPHA2, postprocess: bool = True,
                 consistency_rounds: int = 3,
                 estimation_method: str = "weighted_update",
                 estimation_iterations: int = 100,
                 oracle_mode: str = "fast", seed: int | None = None):
        super().__init__(epsilon, postprocess, consistency_rounds,
                         estimation_method, estimation_iterations,
                         oracle_mode, seed)
        self.granularity = granularity
        self.alpha2 = float(alpha2)

    #: Every attribute pair's 2-D grid.
    grids = GridMechanism.grids_2d

    # ------------------------------------------------------------------
    # Phase 1 + 2: the granularity rule and the user split
    # ------------------------------------------------------------------
    def _choose_granularities(self, planning_users: int | None
                              ) -> tuple[int]:
        if self.granularity is not None:
            return (int(self.granularity),)
        if planning_users is None:
            raise ValueError(
                "total_users is required to derive the guideline "
                "granularity before the first batch")
        return (choose_granularity_tdg(self.epsilon, planning_users,
                                       self._n_attributes, self._domain_size,
                                       alpha2=self.alpha2).g2,)

    def _split_users(self, dataset: Dataset) -> list[list[np.ndarray]]:
        """One group per attribute pair."""
        return [partition_users(dataset.n_users, len(self.grids), self.rng)]

    def _finalize(self) -> None:
        super()._finalize()
        self._build_tables()

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

    def _restore_state_payload(self, payload: dict) -> None:
        super()._restore_state_payload(payload)
        self._build_tables()


class ITDG(TDG):
    """Inconsistent TDG: the Phase-2 ablation variant (Appendix A.1)."""

    name = "ITDG"

    def __init__(self, epsilon: float, **kwargs):
        kwargs["postprocess"] = False
        super().__init__(epsilon, **kwargs)
