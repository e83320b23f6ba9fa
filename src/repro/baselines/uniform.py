"""Uni: the uniform-guess benchmark (Section 5.1).

Uni never looks at the data: a λ-D range query is answered by the fraction
of the λ-D domain it covers (the answer an aggregator would give if every
attribute were uniformly and independently distributed).  It serves as the
"free" baseline — any LDP mechanism performing worse than Uni is adding
noise without adding information.  Its aggregation hooks are no-ops, so
it streams and shards like every other served mechanism: its whole
state is the (d, c) schema and the report count.
"""

from __future__ import annotations

import numpy as np

from ..core.base import RangeQueryMechanism


class Uniform(RangeQueryMechanism):
    """Uniform-guess baseline (no data collection at all)."""

    name = "Uni"

    def __init__(self, epsilon: float = 1.0, seed: int | None = None):
        # epsilon is accepted for interface compatibility; no reports are sent.
        super().__init__(epsilon, seed)

    def _aggregate_nothing(self, *args) -> None:
        return None

    # Every aggregation hook is a no-op: the base class keeps the schema
    # and the report count, which is all Uni needs, and writes them in
    # every shard_state header.
    _ensure_layout = _partial_fit = _merge = _finalize = _aggregate_nothing
    _load_shard_body = _aggregate_nothing

    def _shard_body(self) -> dict:
        return {}

    def _state_payload(self) -> dict:
        # Uni's whole fitted state is the (d, c) metadata the base
        # class serializes; the payload is empty on purpose.
        return {}

    def _restore_state_payload(self, payload: dict) -> None:
        return None

    def _answer_compiled(self, compiled) -> np.ndarray:
        """All volumes in one vectorised pass over the flattened predicates."""
        assert self._domain_size is not None
        queries = compiled.flat_ranges
        widths = np.array([predicate.width for query in queries
                           for predicate in query.predicates], dtype=float)
        counts = np.array([query.dimension for query in queries])
        offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
        return np.multiply.reduceat(widths / self._domain_size, offsets)
