"""CALM baseline: 2-way marginal release adapted to range queries (Section 3.2).

CALM (Zhang et al., CCS 2018) is the state of the art for marginal release
under LDP.  Configured as in the paper's experiments, it collects the full
``c x c`` 2-way marginal of every attribute pair (one disjoint user group
per pair, OLH reports), enforces non-negativity and cross-marginal
consistency, and answers a range query by summing the noisy marginal cells
that fall inside the query (2-D queries) or by reconstructing the needed
higher-dimensional answer from the pairwise answers (λ > 2, using the same
combination step as the grid approaches).

Structurally CALM is therefore TDG *without binning* (granularity fixed to
the full domain size), which is precisely why it fails the paper's third
challenge: answering a range query must sum ``(ω c)^2`` noisy cells, so the
noise error grows with the domain size.
"""

from __future__ import annotations

from ..core.tdg import TDG


class CALM(TDG):
    """CALM configured with full-resolution 2-way marginals.

    Parameters are the same as :class:`repro.core.TDG` minus the
    granularity, which is pinned to the domain size when the grid layout
    is fixed — by ``fit``, the first ``partial_fit`` batch or
    ``prepare_aggregation`` alike, so sharded and streamed collection
    build the same full-resolution marginals as one-shot collection.
    """

    name = "CALM"

    def __init__(self, epsilon: float, postprocess: bool = True,
                 consistency_rounds: int = 3,
                 estimation_method: str = "weighted_update",
                 estimation_iterations: int = 100,
                 oracle_mode: str = "fast", seed: int | None = None):
        super().__init__(epsilon, granularity=None, postprocess=postprocess,
                         consistency_rounds=consistency_rounds,
                         estimation_method=estimation_method,
                         estimation_iterations=estimation_iterations,
                         oracle_mode=oracle_mode, seed=seed)

    def _ensure_layout(self, planning_users: int | None) -> None:
        # No binning: every marginal cell is a single 2-D value.
        self.granularity = self._domain_size
        super()._ensure_layout(planning_users)

    def _snapshot_config(self) -> dict:
        config = super()._snapshot_config()
        # Pinned at fit time / fixed by the paper's configuration; not
        # accepted by CALM's constructor.
        del config["granularity"], config["alpha2"]
        return config
