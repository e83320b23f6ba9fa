"""Long-lived query service over the LDP mechanisms.

A :class:`QueryService` keeps a fitted estimator hot for answering
workloads while (optionally) ingesting new privatized reports through
the shard ``partial_fit`` path.  A streaming service puts its ingest
behind one private *ingestor* — the update path — and only counts
reports, runs the re-finalize policy and publishes epochs (the
analytical copy).  The ingestor is one of:

* **inline collector** (the default) — a shardable mechanism name or
  un-fitted shardable instance.  ``ingest`` feeds batches into
  an open collector; a *re-finalize* (triggered automatically every
  ``refinalize_every`` reports, or on demand with ``refinalize``)
  clones the collector's accumulator state, runs the paper's Phase-2
  machinery on the clone and atomically swaps it in as the serving
  estimator.  Answers therefore stay fresh without ever refitting from
  scratch, and collection never pauses for finalization.
* **stream tier** (``ingest_workers=N``) — the same, but
  batches are routed through a multi-process
  :class:`~repro.ingest.IngestTier` whose collector workers
  ``partial_fit`` in their own processes, and re-finalize asks every
  worker for its shard state and folds the replies through the same
  ``merge``/``finalize`` path.
  Results are bitwise identical to the equivalent single-process shard
  plan; see ``docs/ingest.md`` and ``tests/test_distributed_ingest.py``.

Every served mechanism is shardable: TDG, HDG, ITDG, IHDG, CALM, MSW
and Uni.  A **static** service — constructed from an already-fitted
mechanism — has no ingestor: queries and snapshots work; ``ingest``
raises :class:`ServiceError`.  HIO and LHIO are experiment-only: they
draw noise lazily while answering, so their state grows with every
distinct query, and the service refuses them.  Snapshots written by the
retired refit ingest (which buffered raw rows and refitted from
scratch) still restore: see :func:`_legacy_refit_batches`.

The whole service serializes to one JSON document
(:meth:`QueryService.state_dict`): the estimator's fitted state via
``save_state`` plus the collector's pending accumulators via
``shard_state``, so a restart restores both the answers *and* the
not-yet-finalized reports.  A :class:`~repro.storage.StorageBackend`
versions those documents on disk.

Concurrency: ingest, re-finalize and snapshot capture are serialized
by the service's locks, but the *read path is lock-free* — every
finalize/restore publishes an immutable :class:`~repro.serving.epoch.
EstimatorEpoch` with a single atomic reference assignment, and
``query``/``query_typed``/``query_wire``/``query_wire_batch`` load
that reference once and answer against it with no lock at all (see
:mod:`repro.serving.epoch` and docs/serving.md for the read-
consistency contract).  The answering hot path routes through the
mechanisms' compiled-plan cache (:mod:`repro.queries.compiler`) plus
a per-service answer cache keyed by ``(epoch_id, workload)``, so
repeated workloads skip planning — and on a cache hit, answering —
entirely; :meth:`QueryService.query_wire_batch` answers a whole batch
of workloads against one consistent epoch for the batched ``/query``
wire form.
"""

from __future__ import annotations

import logging
import math
import threading

import numpy as np

from ..core import RangeQueryMechanism
from ..core.base import check_state_document
from ..datasets import Dataset
from ..ingest import IngestTier
from ..mechanisms import mechanism_class
from ..queries import (MarginalQuery, PointQuery, Predicate,
                       PredicateCountQuery, Query, QueryResult, RangeQuery,
                       TopKQuery, query_kind)
from .epoch import (DEFAULT_ANSWER_CACHE_ENTRIES, AnswerCache,
                    EstimatorEpoch)
from .snapshot import restore_mechanism

#: Format tag written into serialized service states.
SERVICE_SNAPSHOT_FORMAT = "repro.service-snapshot"
SERVICE_SNAPSHOT_VERSION = 1

logger = logging.getLogger("repro.serving")

#: Element types ``integer_rows`` refuses among a list's integers.
_BOOL_TYPES = frozenset((bool, np.bool_))


class ServiceError(RuntimeError):
    """An operation the service cannot perform in its current state."""


# ----------------------------------------------------------------------
# Wire format: typed queries and results as plain JSON values
# ----------------------------------------------------------------------
def _wire_int(value, field: str) -> int:
    """An integer query field; a float, bool or string is a ValueError.

    ``int()`` would answer ``1.7`` as ``1``, ``true`` as ``1`` and
    ``"3"`` as ``3``; query fields are refused instead, as ingest rows
    are (:func:`integer_rows`).  An infinite float (``1e400`` decodes
    to one) is named as out of range.
    """
    if type(value) is int:
        return value
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"query value out of range: {field} is {value}")
    raise ValueError(f"{field} must be an integer, got "
                     f"{type(value).__name__} {value!r}")


def predicate_from_wire(obj) -> Predicate:
    """One predicate from ``[attribute, low, high]`` or the dict form."""
    if isinstance(obj, dict):
        attribute, low, high = obj["attribute"], obj["low"], obj["high"]
    else:
        attribute, low, high = obj
    return Predicate(_wire_int(attribute, "predicate attribute"),
                     _wire_int(low, "predicate low"),
                     _wire_int(high, "predicate high"))


def _predicates_from_wire(obj) -> tuple[Predicate, ...]:
    return tuple(predicate_from_wire(item) for item in obj["predicates"])


def _attributes_from_wire(obj) -> tuple[int, ...]:
    return tuple(_wire_int(attribute, "attributes entry")
                 for attribute in obj["attributes"])


def _assignment_from_wire(obj) -> tuple[tuple[int, int], ...]:
    """A point query's cell from ``[[attr, value], ...]`` or a dict.

    JSON object keys are always strings, so the dict form takes its
    attributes as decimal strings.
    """
    assignment = obj["assignment"]
    if isinstance(assignment, dict):
        assignment = [(int(attribute) if isinstance(attribute, str)
                       and attribute.isdecimal() else attribute, value)
                      for attribute, value in assignment.items()]
    return tuple((_wire_int(attribute, "point attribute"),
                  _wire_int(value, "point value"))
                 for attribute, value in assignment)


def query_from_wire(obj) -> Query:
    """One typed query from its JSON wire form.

    The dict form carries an optional ``"type"`` discriminator —
    ``range`` (default, for backward compatibility), ``marginal``,
    ``point``, ``count`` or ``topk``:

    * ``{"type": "range", "predicates": [[a, lo, hi], ...]}``
    * ``{"type": "marginal", "attributes": [a, ...]}``
    * ``{"type": "point", "assignment": [[a, v], ...]}``
    * ``{"type": "count", "predicates": [...], "population"?: n}``
    * ``{"type": "topk", "attributes": [a, ...], "k": k}``

    A bare predicate list (the pre-IR wire form) still parses as a
    range query.  Every integer field must be a JSON integer.
    """
    if not isinstance(obj, dict):
        return RangeQuery(tuple(predicate_from_wire(item) for item in obj))
    kind = obj.get("type", "range")
    if kind == "range":
        return RangeQuery(_predicates_from_wire(obj))
    if kind == "marginal":
        return MarginalQuery(_attributes_from_wire(obj))
    if kind == "point":
        return PointQuery(_assignment_from_wire(obj))
    if kind == "count":
        population = obj.get("population")
        return PredicateCountQuery(
            _predicates_from_wire(obj),
            population=(None if population is None
                        else _wire_int(population, "population")))
    if kind == "topk":
        return TopKQuery(_attributes_from_wire(obj),
                         k=_wire_int(obj.get("k", 1), "k"))
    raise ValueError(f"unknown query type {kind!r}; known: "
                     "range, marginal, point, count, topk")


def queries_from_wire(objs) -> list[Query]:
    """A workload from a JSON list of wire-format queries."""
    return [query_from_wire(obj) for obj in objs]


def query_to_wire(query: Query) -> dict:
    """The wire form of a typed query (inverse of :func:`query_from_wire`)."""
    if isinstance(query, RangeQuery):
        return {"predicates": [[p.attribute, p.low, p.high]
                               for p in query.predicates]}
    if isinstance(query, MarginalQuery):
        return {"type": "marginal", "attributes": list(query.attributes)}
    if isinstance(query, PointQuery):
        return {"type": "point",
                "assignment": [[attribute, value]
                               for attribute, value in query.assignment]}
    if isinstance(query, PredicateCountQuery):
        document = {"type": "count",
                    "predicates": [[p.attribute, p.low, p.high]
                                   for p in query.predicates]}
        if query.population is not None:
            document["population"] = int(query.population)
        return document
    if isinstance(query, TopKQuery):
        return {"type": "topk", "attributes": list(query.attributes),
                "k": int(query.k)}
    raise TypeError(f"cannot serialize {type(query).__name__} "
                    f"({query_kind(query)})")


def integer_rows(rows) -> np.ndarray:
    """A raw ingest batch as an int64 array, if every value is an integer.

    ``np.asarray(rows, dtype=np.int64)`` would store ``1.5`` as ``1``,
    ``true`` as ``1`` and a numeric string as its number; a batch is
    refused with ValueError instead, before it reaches a write-ahead
    log or a collector.  An array is judged by its dtype.  In a nested
    list, numpy promotes a boolean mixed with integers to 0 or 1, so
    the elements that landed on 0 or 1 get their type checked.
    """
    array = np.asarray(rows)
    if array.size and array.dtype.kind not in "iu":
        raise ValueError(f"rows must hold integers only; got "
                         f"{array.dtype} values")
    if array.ndim == 2 and not isinstance(rows, np.ndarray):
        width = array.shape[1]
        for index in np.flatnonzero((array == 0) | (array == 1)).tolist():
            if type(rows[index // width][index % width]) in _BOOL_TYPES:
                raise ValueError("rows must hold integers only; got a "
                                 "boolean among the integers")
    return array.astype(np.int64, copy=False)


#: Most collector worker processes one service's stream tier may start.
MAX_INGEST_WORKERS = 64


def checked_count(value, key: str, least: int, most: int | None = None):
    """``value`` if it is None or a JSON integer in ``[least, most]``;
    anything else is a ValueError naming ``key``.

    ``int()`` would take ``8.7`` as 8 and ``"8"`` as 8, and a list
    would fail later, inside a storage call; the value is refused
    before it is stored instead.
    """
    if value is None or (type(value) is int and least <= value
                         and (most is None or value <= most)):
        return value
    bound = f">= {least}" if most is None else f"from {least} to {most}"
    raise ValueError(f"{key} must be an integer {bound}, got "
                     f"{type(value).__name__} {value!r}")


# ----------------------------------------------------------------------
# Ingestors: the update path of a streaming service
# ----------------------------------------------------------------------
# Every method runs under the owning service's state lock, except the
# builder ``capture()`` returns (the Phase-2 pass or the tier's fold)
# and the release step ``close()`` returns, which the service runs
# after dropping the lock.  ``state()`` returns the ingestor's entries
# of the service snapshot document; ``load(document)`` reads them back.
class _InlineCollector:
    """Stream ingest into one open ``partial_fit`` collector."""

    workers = None

    def __init__(self, collector: RangeQueryMechanism,
                 total_users: int | None):
        self.collector = collector
        self.total_users = total_users

    def submit(self, batch: Dataset) -> None:
        self.collector.partial_fit(batch, total_users=self.total_users)

    def capture(self):
        # A fresh instance merging the collector copies its counts (the
        # layer arrays), so ingest can go on while the clone finalizes.
        collector = self.collector
        clone = type(collector)(collector.epsilon,
                                **collector._snapshot_config())
        clone.merge(collector)
        return clone.finalize

    def published(self, epoch_id: int) -> None:
        pass

    def schema(self) -> tuple[int, int] | None:
        collector = self.collector
        if collector._n_attributes is None:
            return None
        return collector._n_attributes, collector._domain_size

    def state(self) -> dict:
        collector = self.collector
        return {
            "collector_config": collector._snapshot_config(),
            # The RNG state makes a restored service's *future* ingest
            # draws continue the exact same stream.
            "collector_rng": collector.rng.bit_generator.state,
            "collector": (collector.shard_state() if collector.population
                          else None),
        }

    def load(self, document: dict) -> None:
        if document.get("collector") is not None:
            self.collector.load_shard_state(document["collector"])
        if document.get("collector_rng") is not None:
            self.collector.rng.bit_generator.state = document["collector_rng"]

    def metrics(self) -> None:
        return None

    def close(self) -> None:
        return None


def _legacy_refit_batches(state: dict) -> list[Dataset] | None:
    """The raw batches a refit-ingest snapshot buffered; None otherwise.

    Refit ingest is retired.  Its snapshots hold the rows either as a
    ``refit`` block of batches or, in the older flat form, as one
    ``distributed.pending_rows`` list.  Either restores into an
    in-process stream service that replays the rows through
    ``partial_fit``, while the stored estimator stays the published
    epoch.  HIO and LHIO snapshots fail there: they cannot stream.
    """
    block = state.get("refit")
    if block is not None:
        batches, schema = block["pending_rows"], block.get("pending_schema")
    else:
        block = state.get("distributed") or {}
        if "pending_rows" not in block:
            return None
        batches, schema = [block["pending_rows"]], block.get("schema")
    return [Dataset(np.asarray(rows, dtype=np.int64), int(schema[1]))
            for rows in batches if rows]


class _StreamTier:
    """Stream ingest through a multi-process :class:`IngestTier`.

    The tier starts on the first batch, whose schema pins its
    workers' layout.
    """

    def __init__(self, name: str, epsilon: float, seed: int | None,
                 kwargs: dict, workers: int, total_users: int | None):
        mechanism_class(name, sharded=True)  # fail before the first batch
        self.name = name
        self.epsilon = epsilon
        self.seed = seed
        self.kwargs = dict(kwargs)
        self.workers = int(workers)
        self.total_users = total_users
        self.planning_users: int | None = None
        self.tier: IngestTier | None = None
        self.closed = False

    def _start(self, n_attributes: int, domain_size: int,
               planning_users: int | None, *,
               worker_states: list | None = None, key_base: int = 0) -> None:
        self.tier = IngestTier(
            self.name, self.epsilon, n_workers=self.workers,
            n_attributes=int(n_attributes), domain_size=int(domain_size),
            seed=self.seed, planning_users=planning_users,
            total_users=self.total_users, mechanism_kwargs=self.kwargs,
            worker_states=worker_states, key_base=int(key_base))
        # Remembered so snapshots rebuild workers with the same layout.
        self.planning_users = planning_users

    def submit(self, batch: Dataset) -> None:
        if self.closed:
            raise ServiceError(
                "service is closed: its ingest tier was shut down")
        if self.tier is None:
            self._start(batch.n_attributes, batch.domain_size,
                        self.total_users or batch.n_users)
        elif (batch.n_attributes, batch.domain_size) != self.schema():
            raise ValueError(
                f"batch shape (d={batch.n_attributes}, "
                f"c={batch.domain_size}) does not match the ingest "
                f"tier's schema (d={self.tier.n_attributes}, "
                f"c={self.tier.domain_size})")
        self.tier.submit(batch.values)

    def capture(self):
        if self.tier is None:
            raise ServiceError(
                "service is closed: its ingest tier was shut down"
                if self.closed else "no reports ingested yet")
        # The state exchange, fold and Phase 2 run outside the state
        # lock; the tier's own lock orders them against submit and
        # snapshot captures.
        return self.tier.merge

    def published(self, epoch_id: int) -> None:
        if self.tier is not None:
            self.tier.record_publication(epoch_id)

    def schema(self) -> tuple[int, int] | None:
        if self.tier is None:
            return None
        return self.tier.n_attributes, self.tier.domain_size

    def state(self) -> dict:
        """Every worker's shard + RNG state, so rebuilt workers resume
        their exact streams; ``key_base`` makes post-restore WAL replay
        route new reports exactly as the uninterrupted run would."""
        block = {
            "ingest_workers": self.workers,
            "seed": self.seed,
            "kwargs": self.kwargs,
            "planning_users": self.planning_users,
        }
        if self.tier is not None:
            block["schema"] = [self.tier.n_attributes, self.tier.domain_size]
            block["key_base"] = self.tier.next_key
            block["worker_states"] = self.tier.capture_worker_states()
        return {"distributed": block}

    def load(self, document: dict) -> None:
        block = document["distributed"]
        schema = block.get("schema")
        if schema is not None:
            self._start(schema[0], schema[1], block.get("planning_users"),
                        worker_states=block.get("worker_states"),
                        key_base=block.get("key_base", 0))

    def metrics(self) -> dict | None:
        return self.tier.metrics() if self.tier is not None else None

    def close(self):
        """Detach the tier; returns its shutdown, run outside the lock."""
        tier, self.tier = self.tier, None
        self.closed = True
        return tier.close if tier is not None else None


class QueryService:
    """Ingest-and-answer front-end over one mechanism.

    Parameters
    ----------
    mechanism:
        A shardable mechanism name (``"TDG"``, ``"HDG"``, ``"ITDG"``,
        ``"IHDG"``, ``"CALM"``, ``"MSW"``, ``"Uni"``) or un-fitted
        shardable instance for streaming mode, or a *fitted* instance
        whose answering is pure for static serving.
    epsilon:
        Per-user privacy budget (ignored when an instance is passed).
    seed:
        Seed for the collector's randomness (name-based construction).
    refinalize_every:
        Automatically re-finalize after this many ingested reports
        accumulate since the last finalize.  ``None`` (default) means
        re-finalization only happens on demand via :meth:`refinalize`.
    total_users:
        Expected total population, forwarded to ``partial_fit`` so the
        guideline granularities are pinned up front.  Defaults to the
        first batch's size (fine for one service; see docs/serving.md).
    domain_size:
        Default attribute domain size ``c`` assumed for raw-row ingest
        batches; per-call and :class:`~repro.datasets.Dataset` values
        override it.
    ingest_workers:
        When set (>= 1), stream ingest runs through a multi-process
        :class:`~repro.ingest.IngestTier` with this many collector
        workers instead of an in-process collector.  Requires
        name-based construction.
    plan_cache_entries:
        Capacity of the estimator's compiled-plan LRU (``None`` keeps
        the mechanism default); applied to every published estimator.
    answer_cache_entries:
        Capacity of the per-service answer cache (``0`` disables it;
        ``None`` keeps the default of
        :data:`~repro.serving.epoch.DEFAULT_ANSWER_CACHE_ENTRIES`).
    mechanism_kwargs:
        Extra keyword arguments for name-based mechanism construction.
    """

    def __init__(self, mechanism: str | RangeQueryMechanism = "HDG",
                 epsilon: float = 1.0, *, seed: int | None = None,
                 refinalize_every: int | None = None,
                 total_users: int | None = None,
                 domain_size: int | None = None,
                 ingest_workers: int | None = None,
                 plan_cache_entries: int | None = None,
                 answer_cache_entries: int | None = None,
                 **mechanism_kwargs):
        if refinalize_every is not None and refinalize_every < 1:
            raise ValueError("refinalize_every must be >= 1 when set")
        if ingest_workers is not None and ingest_workers < 1:
            raise ValueError("ingest_workers must be >= 1 when set")
        if plan_cache_entries is not None and plan_cache_entries < 1:
            raise ValueError("plan_cache_entries must be >= 1 when set")
        if answer_cache_entries is not None and answer_cache_entries < 0:
            raise ValueError("answer_cache_entries must be >= 0 when set "
                             "(0 disables answer caching)")
        self._lock = threading.RLock()
        #: Serializes whole re-finalize operations (capture → Phase 2 →
        #: swap) without holding the state lock through the heavy part.
        self._refinalize_lock = threading.Lock()
        self._estimator: RangeQueryMechanism | None = None
        #: The published read view; queries load this reference once
        #: and answer against it lock-free.  Only :meth:`_publish`
        #: (always called under ``_lock``) replaces it.
        self._epoch: EstimatorEpoch | None = None
        self._epoch_counter = 0
        self.plan_cache_entries = (int(plan_cache_entries)
                                   if plan_cache_entries is not None else None)
        self.answer_cache_entries = (
            int(answer_cache_entries) if answer_cache_entries is not None
            else DEFAULT_ANSWER_CACHE_ENTRIES)
        self._answer_cache = AnswerCache(self.answer_cache_entries)
        self.refinalize_every = refinalize_every
        self.total_users = total_users
        self.domain_size = domain_size
        self.reports_ingested = 0
        self.reports_since_finalize = 0
        self.finalize_count = 0

        #: The update path; None for a static service.
        self._ingestor: _InlineCollector | _StreamTier | None = None
        if isinstance(mechanism, RangeQueryMechanism):
            if ingest_workers is not None:
                raise ValueError(
                    "ingest_workers requires name-based construction "
                    "(worker processes rebuild the mechanism from its "
                    "name and config)")
            #: Paper name and privacy budget of the served mechanism.
            self.mechanism_name = mechanism.name
            self.epsilon = mechanism.epsilon
            if not mechanism.answering_is_pure:
                raise ValueError(
                    f"{mechanism.name} cannot be served: it draws noise "
                    "while answering, so its state grows with every "
                    "distinct query (HIO and LHIO are experiment-only)")
            if mechanism.is_fitted:
                self._publish(mechanism)
            else:
                self._ingestor = _InlineCollector(mechanism, total_users)
            return
        self.mechanism_name = mechanism
        self.epsilon = float(epsilon)
        if ingest_workers is not None:
            self._ingestor = _StreamTier(mechanism, self.epsilon, seed,
                                         mechanism_kwargs, ingest_workers,
                                         total_users)
        else:
            factory = mechanism_class(mechanism, sharded=True)
            self._ingestor = _InlineCollector(
                factory(epsilon, seed=seed, **mechanism_kwargs), total_users)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def ingest_workers(self) -> int | None:
        """Collector worker count of a stream tier, else None."""
        return self._ingestor.workers if self._ingestor is not None else None

    @property
    def is_streaming(self) -> bool:
        """Whether the service accepts ``ingest``."""
        return self._ingestor is not None

    @property
    def is_ready(self) -> bool:
        """Whether a finalized estimator is available for queries."""
        return self._epoch is not None

    @property
    def epoch_id(self) -> int:
        """Id of the published epoch (0 until the first finalize/restore)."""
        epoch = self._epoch
        return epoch.epoch_id if epoch is not None else 0

    def read_epoch(self) -> EstimatorEpoch:
        """The current published read view (lock-free snapshot).

        Callers answering several workloads against the *same* epoch
        hold the returned object and use its answering methods; the
        service may publish newer epochs meanwhile without affecting
        it.  Raises :class:`ServiceError` before the first finalize.
        """
        epoch = self._epoch
        if epoch is None:
            raise ServiceError(
                "service is not ready: ingest reports and re-finalize "
                "(or restore a snapshot) before querying")
        return epoch

    def _publish(self, estimator: RangeQueryMechanism, *,
                 epoch_id: int | None = None) -> None:
        """Build and publish a fresh epoch around ``estimator``.

        The epoch (id, estimator, cache references) is constructed
        completely before the single ``self._epoch`` assignment — the
        linearization point readers observe.  Callers hold ``_lock``
        (or are single-threaded constructors/restores), so epoch ids
        are assigned in publication order.
        """
        if self.plan_cache_entries is not None:
            estimator.set_plan_cache_capacity(self.plan_cache_entries)
        if epoch_id is None:
            epoch_id = self._epoch_counter + 1
        self._epoch_counter = int(epoch_id)
        epoch = EstimatorEpoch(self._epoch_counter, estimator,
                               answer_cache=self._answer_cache)
        self._estimator = estimator
        self._epoch = epoch

    def answer_cache_stats(self) -> dict:
        """Hit/miss/eviction counters of the answer cache."""
        return self._answer_cache.stats()

    def clear_answer_cache(self) -> None:
        """Drop cached answers (benchmarks measure the uncached path)."""
        self._answer_cache.clear()

    def status(self) -> dict:
        """Service health document (what ``GET /healthz`` returns)."""
        with self._lock:
            ingestor = self._ingestor
            schema = ingestor.schema() if ingestor is not None else None
            if schema is None and self._estimator is not None:
                schema = (self._estimator._n_attributes,
                          self._estimator._domain_size)
            n_attributes, domain_size = schema or (None, self.domain_size)
            return {
                "mechanism": self.mechanism_name,
                "epsilon": self.epsilon,
                "mode": "streaming" if self.is_streaming else "static",
                "ready": self.is_ready,
                "reports_ingested": self.reports_ingested,
                "reports_since_finalize": self.reports_since_finalize,
                "finalize_count": self.finalize_count,
                "refinalize_every": self.refinalize_every,
                "n_attributes": n_attributes,
                "domain_size": domain_size,
                "ingest_workers": self.ingest_workers,
                "ingest_tier": (ingestor.metrics()
                                if ingestor is not None else None),
                "epoch": self.epoch_id,
                "plan_cache": (self._estimator.plan_cache_stats()
                               if self._estimator is not None else None),
                "answer_cache": self._answer_cache.stats(),
            }

    # ------------------------------------------------------------------
    # Ingest + re-finalize
    # ------------------------------------------------------------------
    def ingest(self, rows, domain_size: int | None = None) -> dict:
        """Feed one batch of user reports into the service's ingestor.

        ``rows`` is a :class:`~repro.datasets.Dataset` or a raw
        ``(n, d)`` integer array/list, which :meth:`check_batch` turns
        into one.  Returns an ingest receipt including whether the
        batch tripped the automatic re-finalize policy.  Once the batch is applied this
        never raises: a failed automatic re-finalize is logged, the
        receipt says ``refinalized: false``, and the reports stay
        pending so the next ingest retries it.
        """
        with self._lock:
            batch = self.check_batch(rows, domain_size)
            self._ingestor.submit(batch)
            self.reports_ingested += batch.n_users
            self.reports_since_finalize += batch.n_users
            refinalized = (self.refinalize_every is not None
                           and self.reports_since_finalize
                           >= self.refinalize_every)
        if refinalized:
            try:
                self._refinalize()
            except Exception as error:
                logger.warning(
                    "automatic re-finalize of %s failed (%s: %s); %d "
                    "reports stay pending and the next ingest retries",
                    self.mechanism_name, type(error).__name__, error,
                    self.reports_since_finalize, exc_info=True)
                refinalized = False
        with self._lock:
            return {
                "ingested": batch.n_users,
                "total_reports": self.reports_ingested,
                "reports_since_finalize": self.reports_since_finalize,
                "refinalized": refinalized,
                "ready": self.is_ready,
            }

    def check_batch(self, rows, domain_size: int | None = None) -> Dataset:
        """One raw ingest batch as the :class:`Dataset` ingest applies.

        The domain size comes from the call, the service default, or
        the schema earlier batches pinned.  Non-integer values
        (:func:`integer_rows`), values outside ``[0, c)`` and a batch
        whose (width, domain size) differs from that schema are
        ValueErrors; a static service, or a first batch with no domain
        size, is a :class:`ServiceError`.  A :class:`Dataset` is taken
        as it is (``partial_fit`` checks its schema).
        :class:`~repro.serving.TenantManager` calls this before its
        write-ahead append, so a batch the service would refuse never
        reaches the log, and then ingests the result.
        """
        with self._lock:
            if self._ingestor is None:
                raise ServiceError(
                    "service is static (built from a fitted mechanism); "
                    "ingest needs streaming mode")
            schema = self._ingestor.schema()
        if isinstance(rows, Dataset):
            return rows
        domain_size = domain_size or self.domain_size
        if domain_size is None:
            if schema is None:
                raise ServiceError(
                    "domain_size is required for the first raw-row batch "
                    "(pass it per call or at service construction)")
            domain_size = schema[1]
        batch = Dataset(integer_rows(rows), int(domain_size))
        if schema is not None and (batch.n_attributes,
                                   batch.domain_size) != schema:
            raise ValueError(
                f"batch shape (d={batch.n_attributes}, "
                f"c={batch.domain_size}) does not match earlier batches "
                f"(d={schema[0]}, c={schema[1]})")
        return batch

    def refinalize(self) -> dict:
        """Finalize the ingestor's current state; swap the estimator.

        The ingestor itself stays open — its state is captured, the
        capture is finalized into a fresh estimator, and
        the serving estimator is replaced atomically.
        """
        with self._lock:
            if not self.is_streaming:
                raise ServiceError("service is static; nothing to re-finalize")
            if self.reports_ingested == 0:
                raise ServiceError("no reports ingested yet")
        self._refinalize()
        return self.status()

    def _refinalize(self) -> None:
        """Capture → build → publish.

        Only the capture and the publish hold the state lock; the build
        (the Phase-2 pass, or the tier's state exchange + fold) runs
        without it, so concurrent queries
        keep answering from the previous epoch instead of stalling.
        Whole re-finalizes are serialized by their own lock so publishes
        land in capture order.  The reports pending at capture stop counting
        only once their epoch is published: a failed build leaves them
        pending, and reports that arrive during the build stay counted.
        """
        with self._refinalize_lock:
            with self._lock:
                build = self._ingestor.capture()
                captured = self.reports_since_finalize
            estimator = build()
            with self._lock:
                self._publish(estimator)
                self.finalize_count += 1
                self.reports_since_finalize -= captured
                self._ingestor.published(self.epoch_id)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def query(self, queries: list) -> np.ndarray | list[QueryResult]:
        """Answer a (possibly mixed-kind) workload with the current epoch.

        Pure range workloads return the flat float vector; workloads
        containing other IR kinds return typed results (see
        :meth:`repro.core.RangeQueryMechanism.answer_workload`).
        Lock-free: the published epoch reference is loaded once and the
        whole workload answers against that one finalized estimator.
        """
        return self.read_epoch().answer_workload(queries)

    def query_typed(self, queries: list) -> list[QueryResult]:
        """Answer any workload as typed results, range-only ones included."""
        return self.read_epoch().answer_typed(queries)

    def query_wire(self, objs) -> dict:
        """Answer a JSON-wire workload (what ``POST /query`` serves).

        The response document always carries ``results`` (one typed
        document per query, see :meth:`repro.queries.QueryResult.to_wire`)
        and ``count``; when every result is scalar (range, point, count)
        it additionally carries the flat ``answers`` float list the
        pre-IR API served.
        """
        return self.read_epoch().wire_document(queries_from_wire(objs))

    def query_wire_batch(self, workloads) -> dict:
        """Answer a batch of JSON-wire workloads in one call.

        ``workloads`` is a list of wire workloads (each a list of wire
        queries, exactly what :meth:`query_wire` accepts).  Every
        workload is parsed *before* any answering happens — a malformed
        entry fails the whole batch without partial effects — and all
        workloads are then answered against a single epoch reference
        loaded once, so a batch observes one consistent finalized
        estimator even while re-finalize swaps are landing (and no
        lock is held while it answers).  Returns ``{"count":
        total_queries, "workloads": [per-workload documents]}`` where
        each per-workload document has the :meth:`query_wire` shape.
        """
        if not isinstance(workloads, (list, tuple)):
            raise ValueError("workloads must be a JSON list of query lists")
        parsed = [queries_from_wire(objs) for objs in workloads]
        epoch = self.read_epoch()
        documents = [epoch.wire_document(queries) for queries in parsed]
        return {"count": sum(document["count"] for document in documents),
                "workloads": documents}

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------
    def state_dict(self) -> dict:
        """One JSON document holding estimator + pending ingest state."""
        with self._lock:
            document = {
                "format": SERVICE_SNAPSHOT_FORMAT,
                "version": SERVICE_SNAPSHOT_VERSION,
                "mechanism": self.mechanism_name,
                "epsilon": self.epsilon,
                "refinalize_every": self.refinalize_every,
                "total_users": self.total_users,
                "domain_size": self.domain_size,
                "reports_ingested": self.reports_ingested,
                "reports_since_finalize": self.reports_since_finalize,
                "finalize_count": self.finalize_count,
                "epoch_id": self.epoch_id,
                "plan_cache_entries": self.plan_cache_entries,
                "answer_cache_entries": self.answer_cache_entries,
                "collector_config": None,
                "collector_rng": None,
                "collector": None,
                "estimator": (self._estimator.save_state()
                              if self._estimator is not None else None),
            }
            if self._ingestor is not None:
                document.update(self._ingestor.state())
            return document

    @classmethod
    def from_state_dict(cls, state: dict,
                        seed: int | None = None) -> "QueryService":
        """Rebuild a service from :meth:`state_dict` output."""
        check_state_document(state, SERVICE_SNAPSHOT_FORMAT,
                             SERVICE_SNAPSHOT_VERSION)
        estimator = (restore_mechanism(state["estimator"])
                     if state.get("estimator") is not None else None)
        # Absent in pre-epoch snapshots (both then fall back to their
        # defaults, exactly what those services ran with).
        cache_config = {
            "plan_cache_entries": state.get("plan_cache_entries"),
            "answer_cache_entries": state.get("answer_cache_entries"),
        }
        # The construction recipe: a tier or legacy refit block, else
        # the inline collector's config; a static service has neither.
        legacy_batches = _legacy_refit_batches(state)
        recipe = state.get("distributed") or state.get("refit")
        if recipe is None and state.get("collector_config") is not None:
            recipe = {"seed": seed, "kwargs": state["collector_config"]}
        if recipe is not None:
            workers = (checked_count(recipe.get("ingest_workers"),
                                     "ingest_workers", 1, MAX_INGEST_WORKERS)
                       if legacy_batches is None else None)
            service = cls(state["mechanism"], float(state["epsilon"]),
                          seed=recipe.get("seed"),
                          ingest_workers=workers,
                          refinalize_every=state.get("refinalize_every"),
                          total_users=state.get("total_users"),
                          domain_size=state.get("domain_size"),
                          **cache_config,
                          **dict(recipe.get("kwargs") or {}))
            if legacy_batches is None:
                service._ingestor.load(state)
            for batch in legacy_batches or ():
                service._ingestor.submit(batch)
        else:
            if estimator is None:
                raise ValueError("snapshot holds neither an estimator nor "
                                 "a collector")
            service = cls(estimator,
                          domain_size=state.get("domain_size"),
                          **cache_config)
        service.reports_ingested = int(state.get("reports_ingested", 0))
        service.reports_since_finalize = int(
            state.get("reports_since_finalize", 0))
        service.finalize_count = int(state.get("finalize_count", 0))
        # Publish the restored estimator as the epoch the snapshot
        # recorded (pre-epoch snapshots fall back to the next local id).
        stored_epoch = state.get("epoch_id")
        if estimator is not None:
            service._publish(estimator,
                             epoch_id=(int(stored_epoch)
                                       if stored_epoch else None))
        elif stored_epoch:
            service._epoch_counter = int(stored_epoch)
        return service

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the stream tier's worker processes.

        No-op for in-process ingest; the estimator keeps answering
        queries either way, but a closed stream-tier service no longer
        accepts ingest.  The tier shuts down outside the state lock.
        """
        with self._lock:
            release = (self._ingestor.close()
                       if self._ingestor is not None else None)
        if release is not None:
            release()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        mode = "streaming" if self.is_streaming else "static"
        return (f"QueryService({self.mechanism_name}, "
                f"epsilon={self.epsilon}, {mode}, "
                f"reports={self.reports_ingested}, "
                f"{'ready' if self.is_ready else 'not ready'})")
