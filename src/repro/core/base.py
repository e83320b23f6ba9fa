"""Common interface for every multi-dimensional range-query mechanism.

TDG, HDG and all baselines (Uni, MSW, CALM, HIO, LHIO) implement
:class:`RangeQueryMechanism`: ``fit`` runs the one-shot LDP collection
protocol over a dataset, ``answer`` / ``answer_workload`` then answer
arbitrarily many queries from the collected (already private)
summaries without touching raw data again.

``answer_workload`` is the single answering stack for the whole typed
query IR (:mod:`repro.queries`): a workload may mix
:class:`~repro.queries.RangeQuery` with marginal, point,
predicate-count and top-k queries.  Non-range kinds are compiled by a
:class:`~repro.queries.QueryPlanner` onto the mechanism's range
primitives, frozen into a :class:`~repro.queries.CompiledPlan`,
answered through the mechanism's one answering hook
(:meth:`RangeQueryMechanism._answer_compiled`) and reassembled into
typed :class:`~repro.queries.QueryResult` objects.
Ranges take the same path (a range is its own single primitive), and
pure range workloads keep the flat ``numpy`` answer vector they always
had.

Mechanisms whose collection step is aggregation-based (TDG, HDG and
their variants, CALM, MSW; Uni trivially) also support an incremental,
shard-mergeable protocol:

* :meth:`RangeQueryMechanism.partial_fit` ingests one batch of user
  reports, maintaining additive per-grid support counts;
* :meth:`RangeQueryMechanism.merge` combines the accumulated state of
  independent shards (exactly — support counts simply add);
* :meth:`RangeQueryMechanism.finalize` runs the one-shot pipeline's
  Phase-2 consistency/estimation machinery on the merged counts.

``fit(data)`` is the same path over one batch: ``_fit`` runs
``_reset_aggregation``, ``_partial_fit`` and ``_finalize``.  Mechanisms
that only implement the one-shot protocol (HIO, LHIO) override
``_fit``, raise :class:`NotImplementedError` from the sharded entry
points and report ``supports_sharding == False``.  Un-finalised state
crosses process boundaries as a plain ``shard_state`` document — a
common header plus the mechanism's ``_shard_body`` — that
``load_shard_state`` restores into a fresh instance; the ingest tier's
collector workers reply with exactly that, and the parent folds the
replies with ``merge``.  The grid mechanisms share their aggregation
code in :mod:`repro.core.aggregation`.

Fitted mechanisms additionally serialize to portable snapshot
documents: :meth:`RangeQueryMechanism.save_state` captures everything
Phase 3 reads — grids, response matrices, the RNG state of mechanisms
whose answering path still draws noise — and
:meth:`RangeQueryMechanism.load_state` restores it into a fresh
instance whose ``answer``/``answer_workload`` output is bitwise
identical to the live estimator's.  :mod:`repro.serving` builds the
versioned on-disk snapshot store and the query service on top of these
hooks.
"""

from __future__ import annotations

import abc

import numpy as np

from ..datasets import Dataset
from ..queries import (CompiledPlan, PlanCache, QueryPlanner, QueryResult,
                       RangeQuery)

#: Format tag written into serialized fitted-mechanism states.
MECHANISM_STATE_FORMAT = "repro.mechanism-state"
MECHANISM_STATE_VERSION = 1


def check_state_document(state: dict, expected_format: str,
                         max_version: int) -> None:
    """Validate a serialized state's format tag and schema version.

    Shared by every deserialization entry point (mechanism states,
    service snapshots) so foreign documents and future schema versions
    fail with the same clear errors everywhere.
    """
    if state.get("format") != expected_format:
        raise ValueError(f"not a {expected_format} document "
                         f"(format={state.get('format')!r})")
    if int(state.get("version", 0)) > max_version:
        raise ValueError(
            f"state version {state['version']} is newer than supported "
            f"version {max_version}")


class RangeQueryMechanism(abc.ABC):
    """Base class for ε-LDP multi-dimensional range-query mechanisms.

    Parameters
    ----------
    epsilon:
        Per-user privacy budget.  Every user sends exactly one report
        produced by an ε-LDP frequency oracle, so the whole mechanism
        satisfies ε-LDP.
    seed:
        Optional seed for all randomness (user grouping, perturbation).
    """

    #: Short name used in experiment tables (overridden by subclasses).
    name: str = "mechanism"

    #: Whether answering a fitted instance is free of side effects.
    #: Pure mechanisms may answer concurrently from many threads with
    #: no lock (the serving tier's epoch read path relies on this);
    #: mechanisms that draw noise lazily or memoize per-query state
    #: during answering (HIO, LHIO) override this to False, and the
    #: serving tier refuses them.
    answering_is_pure: bool = True

    def __init__(self, epsilon: float, seed: int | None = None):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.epsilon = float(epsilon)
        self.rng = np.random.default_rng(seed)
        self._fitted = False
        self._n_attributes: int | None = None
        self._domain_size: int | None = None
        self._n_reports: int | None = None
        #: Bounded LRU of :class:`~repro.queries.CompiledPlan` keyed by
        #: the fitted schema plus the workload; planning a marginal allocates
        #: c^λ range primitives and compiling freezes the fused gather
        #: layout, so a service answering the same workload
        #: repeatedly pays both once, not per request.
        self._typed_plan_cache = PlanCache(self._PLAN_CACHE_ENTRIES)

    # ------------------------------------------------------------------
    # Collection
    # ------------------------------------------------------------------
    def fit(self, dataset: Dataset) -> "RangeQueryMechanism":
        """Run the LDP collection protocol over ``dataset`` and return self."""
        self._n_attributes = dataset.n_attributes
        self._domain_size = dataset.domain_size
        self._n_reports = dataset.n_users
        self._fit(dataset)
        self._fitted = True
        return self

    def _fit(self, dataset: Dataset) -> None:
        """One-shot collection: the sharded path over one batch."""
        self._reset_aggregation()
        self._partial_fit(dataset, None)
        self._finalize()

    def _reset_aggregation(self) -> None:
        """Drop the collected state before a one-shot ``fit``."""

    # ------------------------------------------------------------------
    # Sharded collection (incremental aggregation pipeline)
    # ------------------------------------------------------------------
    def partial_fit(self, dataset: Dataset,
                    total_users: int | None = None) -> "RangeQueryMechanism":
        """Ingest one batch (shard) of user reports without finalising.

        Parameters
        ----------
        dataset:
            The batch of user records to collect under ε-LDP.
        total_users:
            Expected total population across *all* shards.  Used on the
            first batch to derive guideline granularities; shards merged
            later must agree on the granularity, so pass the same value to
            every shard (or fix the granularity explicitly).  Defaults to
            the first batch's size.
        """
        if self._fitted:
            raise RuntimeError(
                f"{type(self).__name__} is already finalised; create a fresh "
                "instance to collect new shards")
        if self._n_attributes is None:
            self._n_attributes = dataset.n_attributes
            self._domain_size = dataset.domain_size
        elif (dataset.n_attributes != self._n_attributes
              or dataset.domain_size != self._domain_size):
            raise ValueError(
                f"batch shape (d={dataset.n_attributes}, c={dataset.domain_size}) "
                f"does not match earlier batches (d={self._n_attributes}, "
                f"c={self._domain_size})")
        self._partial_fit(dataset, total_users)
        self._n_reports = (self._n_reports or 0) + dataset.n_users
        return self

    def merge(self, other: "RangeQueryMechanism") -> "RangeQueryMechanism":
        """Fold another shard's accumulated state into this one (exactly).

        Both sides must be un-finalised instances of the same mechanism
        with the same privacy budget, collected over the same schema.
        Support counts are summed, so the merged state is identical to
        having collected both shards' batches into a single instance.
        """
        if type(other) is not type(self):
            raise TypeError(
                f"cannot merge {type(other).__name__} into {type(self).__name__}")
        if self._fitted or other._fitted:
            raise RuntimeError("merge must happen before finalize()")
        if other.epsilon != self.epsilon:
            raise ValueError(
                f"cannot merge shards with different privacy budgets "
                f"({self.epsilon} vs {other.epsilon})")
        if other._n_attributes is None:
            return self  # the other shard never collected anything
        if self._n_attributes is None:
            self._n_attributes = other._n_attributes
            self._domain_size = other._domain_size
        elif (other._n_attributes != self._n_attributes
              or other._domain_size != self._domain_size):
            raise ValueError(
                f"cannot merge shards over different schemas "
                f"(d={self._n_attributes}, c={self._domain_size}) vs "
                f"(d={other._n_attributes}, c={other._domain_size})")
        self._merge(other)
        if other._n_reports:
            self._n_reports = (self._n_reports or 0) + other._n_reports
        return self

    def finalize(self) -> "RangeQueryMechanism":
        """Run post-processing/estimation on the merged state; enable answering."""
        if self._fitted:
            raise RuntimeError(f"{type(self).__name__} is already finalised")
        if self._n_attributes is None:
            raise RuntimeError(
                "no batches ingested; call partial_fit at least once before "
                "finalize")
        self._finalize()
        self._fitted = True
        return self

    def _partial_fit(self, dataset: Dataset, total_users: int | None) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} does not support sharded aggregation")

    def _merge(self, other: "RangeQueryMechanism") -> None:
        raise NotImplementedError(
            f"{type(self).__name__} does not support sharded aggregation")

    def _finalize(self) -> None:
        raise NotImplementedError(
            f"{type(self).__name__} does not support sharded aggregation")

    @property
    def supports_sharding(self) -> bool:
        """Whether partial_fit/merge/finalize are implemented."""
        return type(self)._partial_fit is not RangeQueryMechanism._partial_fit

    # ------------------------------------------------------------------
    # Shard-state serialization (see docs/architecture.md for the schema)
    # ------------------------------------------------------------------
    def shard_state(self) -> dict:
        """Portable snapshot of the un-finalised aggregation state."""
        if self._n_attributes is None:
            raise RuntimeError("no batches ingested; nothing to serialize")
        return {"mechanism": self.name, "epsilon": self.epsilon,
                "n_attributes": self._n_attributes,
                "domain_size": self._domain_size,
                "total_reports": int(self._n_reports or 0),
                **self._shard_body()}

    def load_shard_state(self, state: dict) -> "RangeQueryMechanism":
        """Restore aggregation state produced by :meth:`shard_state`."""
        if self._n_attributes is not None or self._fitted:
            raise RuntimeError("shard state can only be loaded into a fresh "
                               "mechanism instance")
        if state["mechanism"] != self.name:
            raise ValueError(f"state belongs to {state['mechanism']!r}, "
                             f"not {self.name!r}")
        if float(state["epsilon"]) != self.epsilon:
            raise ValueError("state was collected under a different epsilon")
        self._n_attributes = int(state["n_attributes"])
        self._domain_size = int(state["domain_size"])
        self._n_reports = int(state["total_reports"])
        self._load_shard_body(state)
        return self

    def _shard_body(self) -> dict:
        """The mechanism's fields of a ``shard_state`` document."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support sharded aggregation")

    def _load_shard_body(self, state: dict) -> None:
        """Restore the aggregation state :meth:`_shard_body` wrote."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support sharded aggregation")

    # ------------------------------------------------------------------
    # Aggregation layout (distributed ingest tier)
    # ------------------------------------------------------------------
    def prepare_aggregation(self, n_attributes: int, domain_size: int,
                            total_users: int | None = None
                            ) -> "RangeQueryMechanism":
        """Pin the aggregation layout without ingesting any data.

        Fixes the schema and the guideline granularities exactly as the
        first ``partial_fit`` batch would.  The distributed ingest tier
        (:mod:`repro.ingest`) calls this in every collector worker so
        all of them pin the same granularity, and once on a template
        instance to reject a bad configuration before any worker starts.

        ``total_users`` feeds the granularity guideline; it is required
        when the mechanism has no explicit granularity configured,
        because there is no first batch to fall back on.
        """
        if not self.supports_sharding:
            raise NotImplementedError(
                f"{type(self).__name__} does not support sharded aggregation")
        if self._fitted:
            raise RuntimeError(
                f"{type(self).__name__} is already finalised; create a fresh "
                "instance to collect new shards")
        n_attributes, domain_size = int(n_attributes), int(domain_size)
        if self._n_attributes is None:
            self._n_attributes = n_attributes
            self._domain_size = domain_size
        elif (n_attributes != self._n_attributes
              or domain_size != self._domain_size):
            raise ValueError(
                f"schema (d={n_attributes}, c={domain_size}) does not match "
                f"earlier batches (d={self._n_attributes}, "
                f"c={self._domain_size})")
        self._ensure_layout(total_users)
        return self

    def _ensure_layout(self, planning_users: int | None) -> None:
        """Create grids/accumulator slots once the schema is known."""
        raise NotImplementedError(
            f"{type(self).__name__} does not expose an accumulator layout")

    # ------------------------------------------------------------------
    # Fitted-state serialization (snapshots)
    # ------------------------------------------------------------------
    def save_state(self) -> dict:
        """JSON-serialisable snapshot of the *fitted* estimator.

        The document captures everything the answering path reads —
        grid frequencies, response matrices, materialised hierarchy
        levels, lazy-noise caches — plus the mechanism's RNG state, so
        that a restored instance's ``answer_workload`` output is
        bitwise identical to this instance's from the snapshot point
        on.  Restore with :meth:`load_state` (same class, fresh
        instance) or :func:`repro.serving.restore_mechanism` (builds
        the instance from the document's ``config``).
        """
        self._require_fitted()
        return {
            "format": MECHANISM_STATE_FORMAT,
            "version": MECHANISM_STATE_VERSION,
            "mechanism": self.name,
            "epsilon": self.epsilon,
            "n_attributes": self._n_attributes,
            "domain_size": self._domain_size,
            "n_reports": self._n_reports,
            "config": self._snapshot_config(),
            "rng_state": self.rng.bit_generator.state,
            "payload": self._state_payload(),
        }

    def load_state(self, state: dict) -> "RangeQueryMechanism":
        """Restore a fitted state produced by :meth:`save_state`.

        The receiving instance must be fresh (never fitted) and of the
        same mechanism class and privacy budget the state was saved
        from; construction parameters that shape answering (estimation
        method, iteration caps, ...) travel in ``state["config"]`` and
        are applied by :func:`repro.serving.restore_mechanism`.
        """
        if self._fitted:
            raise RuntimeError("state can only be loaded into a fresh "
                               f"{type(self).__name__} instance")
        check_state_document(state, MECHANISM_STATE_FORMAT,
                             MECHANISM_STATE_VERSION)
        if state["mechanism"] != self.name:
            raise ValueError(f"state belongs to {state['mechanism']!r}, "
                             f"not {self.name!r}")
        if float(state["epsilon"]) != self.epsilon:
            raise ValueError("state was collected under a different epsilon")
        self._n_attributes = int(state["n_attributes"])
        self._domain_size = int(state["domain_size"])
        # Absent in pre-IR snapshots; count queries then need an explicit
        # per-query population (the planner raises a clear error).
        reports = state.get("n_reports")
        self._n_reports = int(reports) if reports is not None else None
        self.rng.bit_generator.state = state["rng_state"]
        self._restore_state_payload(state["payload"])
        self._fitted = True
        return self

    def _snapshot_config(self) -> dict:
        """Constructor keyword arguments needed to rebuild this instance."""
        return {}

    def _state_payload(self) -> dict:
        """Mechanism-specific fitted state (hook for :meth:`save_state`)."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support state snapshots")

    def _restore_state_payload(self, payload: dict) -> None:
        """Rebuild the fitted state from :meth:`_state_payload` output."""
        raise NotImplementedError(
            f"{type(self).__name__} does not support state snapshots")

    @property
    def supports_snapshot(self) -> bool:
        """Whether save_state/load_state are implemented."""
        return (type(self)._state_payload
                is not RangeQueryMechanism._state_payload)

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    @property
    def population(self) -> int | None:
        """Number of user reports collected (None before any collection).

        Scales :class:`~repro.queries.PredicateCountQuery` answers that
        carry no explicit population of their own.
        """
        return self._n_reports

    def query_planner(self) -> QueryPlanner:
        """A planner bound to this mechanism's fitted schema."""
        self._require_fitted()
        assert self._n_attributes is not None and self._domain_size is not None
        return QueryPlanner(self._domain_size, self._n_attributes,
                            population=self._n_reports)

    def answer(self, query) -> float | QueryResult:
        """Estimated answer of one query.

        A :class:`~repro.queries.RangeQuery` returns its float estimate
        (fraction in [0, 1] ideally) as it always has; any other IR kind
        returns its typed :class:`~repro.queries.QueryResult`.  Either
        way the query is answered as a one-query workload, so its bits
        equal its answer inside any larger workload.
        """
        result = self.answer_typed([query])[0]
        return result.value if isinstance(query, RangeQuery) else result

    def answer_workload(self, queries: list) -> np.ndarray | list[QueryResult]:
        """Estimated answers for a (possibly mixed-kind) workload.

        A pure range workload returns the flat float vector it always
        did: a range lowers to exactly one primitive, so that vector is
        the compiled plan's primitive answers as they are.  A workload
        containing any other IR kind returns one typed
        :class:`~repro.queries.QueryResult` per query instead (see
        :meth:`answer_typed`).
        """
        queries = list(queries)
        compiled, answers = self._run_plan(queries)
        if all(isinstance(query, RangeQuery) for query in queries):
            return answers
        return compiled.assemble(answers)

    def answer_typed(self, queries: list) -> list[QueryResult]:
        """Answer a typed IR workload: compile, answer, reassemble.

        The planner checks every query against the fitted schema, the
        compiler lowers the validated plan
        onto range primitives frozen into fused gather arrays, the
        primitives run through :meth:`_answer_compiled`, and the
        compiled plan gathers the flat answers back into typed results
        in one vectorised pass, so marginal cells, point estimates,
        count scaling and top-k selection all ride the one answering
        path.
        """
        compiled, answers = self._run_plan(list(queries))
        return compiled.assemble(answers)

    def _run_plan(self, queries: list) -> tuple[CompiledPlan, np.ndarray]:
        """The workload's compiled plan and its flat primitive answers."""
        self._require_fitted()
        compiled = self._plan_for(queries)
        # The planner validated every query against the fitted schema, and
        # the compiler only emits primitives inside those bounds — no
        # per-primitive re-validation needed.
        answers = (self._answer_compiled(compiled) if compiled.n_primitives
                   else np.empty(0))
        return compiled, answers

    #: Number of compiled plans kept per mechanism instance.
    _PLAN_CACHE_ENTRIES = 8

    def _plan_for(self, queries) -> CompiledPlan:
        """The workload's compiled plan, memoized per fitted schema.

        Keyed by the fitted ``(d, c, population)`` schema followed by the
        queries themselves (frozen, hashable dataclasses), so refits and
        population changes (which alter count scaling) miss instead of
        serving a stale plan.
        """
        key = (self._n_attributes, self._domain_size, self._n_reports,
               *queries)
        compiled = self._typed_plan_cache.get(key)
        if compiled is None:
            compiled = CompiledPlan.from_plan(
                self.query_planner().plan(queries))
            self._typed_plan_cache.put(key, compiled)
        return compiled

    def plan_cache_stats(self) -> dict:
        """Hit/miss/eviction counters of the compiled-plan cache."""
        return self._typed_plan_cache.stats()

    def set_plan_cache_capacity(self, capacity: int) -> None:
        """Rebound the compiled-plan LRU (``--plan-cache-entries``).

        A no-op when the cache already has that capacity; otherwise the
        cache is replaced (entries and counters reset), so shrinking
        actually releases the evicted plans.
        """
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        if int(capacity) != self._typed_plan_cache.capacity:
            self._typed_plan_cache = PlanCache(int(capacity))

    @abc.abstractmethod
    def _answer_compiled(self, compiled: CompiledPlan) -> np.ndarray:
        """Answer a compiled plan's primitives as one flat vector.

        The single answering hook.  Pair-decomposable mechanisms take
        :class:`~repro.core.query_estimation.PairwiseBatchAnswering`'s
        grouped executor; the others (Uni, MSW, HIO) run their own
        kernel over :attr:`~repro.queries.CompiledPlan.flat_ranges`.
        """

    # ------------------------------------------------------------------
    # Validation helpers
    # ------------------------------------------------------------------
    @property
    def is_fitted(self) -> bool:
        """Whether collection finished (``fit`` ran or ``finalize`` was called)."""
        return self._fitted

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(
                f"{type(self).__name__} must be fitted before answering queries")
