"""MSW: Multiplied Square Wave baseline (Section 3.5).

MSW divides users into ``d`` groups, one per attribute; each group
estimates its attribute's 1-D distribution with the Square Wave mechanism
(EM reconstruction).  A λ-D range query is then answered by the product of
the per-attribute 1-D range answers, implicitly assuming the attributes
are independent.  MSW therefore handles large domains and avoids the curse
of dimensionality but completely loses attribute correlations — which is
exactly the failure mode the paper's experiments expose on correlated
datasets.

Collection is shardable: each attribute's Square Wave reports reduce to
additive report-bucket counts (:meth:`SquareWave.accumulate`), kept as
one :class:`~repro.frequency_oracles.SupportAccumulator` per attribute
(None until its first report).  ``partial_fit`` adds them up batch by batch,
shards ``merge`` exactly, ``shard_state`` writes the table, and
``finalize`` runs EM once per attribute on the merged counts.  ``fit``
is the base class's ``partial_fit`` plus ``finalize`` on one batch, with
the same random draws in the same order as a one-shot collection.
"""

from __future__ import annotations

import numpy as np

from ..core.base import RangeQueryMechanism
from ..datasets import Dataset
from ..frequency_oracles import SquareWave, SupportAccumulator
from ..protocol import partition_users


class MSW(RangeQueryMechanism):
    """Multiplied Square Wave baseline.

    Parameters
    ----------
    epsilon:
        Per-user privacy budget (spent entirely on one SW report).
    em_iterations:
        Iteration cap of the EM reconstruction inside SW.
    smoothing:
        Whether SW applies the smoothing (EMS) variant.
    seed:
        Randomness seed.
    """

    name = "MSW"

    def __init__(self, epsilon: float, em_iterations: int = 200,
                 smoothing: bool = False, seed: int | None = None):
        super().__init__(epsilon, seed)
        self.em_iterations = int(em_iterations)
        self.smoothing = bool(smoothing)
        self.distributions: dict[int, np.ndarray] = {}
        self._prefixes: dict[int, np.ndarray] = {}
        self._accumulators: dict[int, SupportAccumulator | None] = {}

    def _reset_aggregation(self) -> None:
        self._accumulators = {}

    def _oracle(self) -> SquareWave:
        return SquareWave(self.epsilon, self._domain_size, rng=self.rng,
                          em_iterations=self.em_iterations,
                          smoothing=self.smoothing)

    def _ensure_layout(self, planning_users: int | None) -> None:
        # One report-bucket count vector per attribute; nothing to plan.
        if not self._accumulators:
            self._accumulators = dict.fromkeys(range(self._n_attributes))

    def _partial_fit(self, dataset: Dataset, total_users: int | None) -> None:
        self._ensure_layout(total_users)
        groups = partition_users(dataset.n_users, dataset.n_attributes,
                                 self.rng)
        for attribute, group in enumerate(groups):
            if group.size > 0:
                self._add(attribute, self._oracle().accumulate(
                    dataset.column(attribute)[group]))

    def _merge(self, other: "MSW") -> None:
        self._ensure_layout(None)
        for attribute, accumulator in other._accumulators.items():
            if accumulator is not None:
                self._add(attribute, accumulator.copy())

    def _add(self, attribute: int, batch: SupportAccumulator) -> None:
        """Add counts (sums over users, so the totals are exact)."""
        current = self._accumulators[attribute]
        self._accumulators[attribute] = (batch if current is None
                                         else current.merge(batch))

    def _finalize(self) -> None:
        """EM once per attribute on its merged report-bucket counts; an
        attribute no user reported on gets the uniform distribution."""
        c = self._domain_size
        self.distributions = {
            attribute: (np.full(c, 1.0 / c) if accumulator is None
                        else self._oracle().estimate_from_accumulator(
                            accumulator))
            for attribute, accumulator in self._accumulators.items()}
        self._build_prefixes()

    def _build_prefixes(self) -> None:
        # Prefix sums turn each per-attribute interval mass into one
        # subtraction.
        self._prefixes = {
            attribute: np.concatenate(([0.0], np.cumsum(distribution)))
            for attribute, distribution in self.distributions.items()}

    # ------------------------------------------------------------------
    # Shard-state serialization (see docs/architecture.md for the schema)
    # ------------------------------------------------------------------
    def _shard_body(self) -> dict:
        return {"accumulators": {
            str(attribute): (None if accumulator is None
                             else accumulator.to_dict())
            for attribute, accumulator in self._accumulators.items()}}

    def _load_shard_body(self, state: dict) -> None:
        entries = state["accumulators"]
        self._accumulators = {
            attribute: (None if entries.get(str(attribute)) is None
                        else SupportAccumulator.from_dict(
                            entries[str(attribute)]))
            for attribute in range(self._n_attributes)}

    # ------------------------------------------------------------------
    # Fitted-state serialization (snapshots; see docs/serving.md)
    # ------------------------------------------------------------------
    def _snapshot_config(self) -> dict:
        return {"em_iterations": self.em_iterations,
                "smoothing": self.smoothing}

    def _state_payload(self) -> dict:
        return {"distributions": {str(attribute): distribution.tolist()
                                  for attribute, distribution
                                  in self.distributions.items()}}

    def _restore_state_payload(self, payload: dict) -> None:
        self.distributions = {
            int(attribute): np.asarray(distribution, dtype=float)
            for attribute, distribution in payload["distributions"].items()}
        self._build_prefixes()

    def _interval_mass(self, attribute: int, low: int, high: int) -> float:
        prefix = self._prefixes[attribute]
        return float(prefix[high + 1] - prefix[low])

    def _answer_compiled(self, compiled) -> np.ndarray:
        """Product of per-predicate prefix differences, one vectorised pass."""
        queries = compiled.flat_ranges
        masses = np.array([self._interval_mass(predicate.attribute,
                                               predicate.low, predicate.high)
                           for query in queries
                           for predicate in query.predicates])
        counts = np.array([query.dimension for query in queries])
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        return np.multiply.reduceat(masses, offsets)
