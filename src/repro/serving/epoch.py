"""Epoch publication: the serving tier's lock-free read path.

PR 6's worker-pool front end gave the service concurrency it could not
use: every query funnelled through one service lock, so readers
serialized and a re-finalize stalled them all.  This module replaces
that with RCU-style *epoch publication*:

* a re-finalize (or restore) builds an immutable
  :class:`EstimatorEpoch` — the finalized estimator, a monotonically
  increasing epoch id, a reference to the service's answer cache and a
  per-epoch scratch map of single-query compiled plans — entirely off
  the read path;
* the service *publishes* it with one reference assignment
  (``self._epoch = epoch``), which the CPython memory model makes
  atomic: a reader loads the reference once and then answers against
  a fully-constructed, never-mutated view.  Readers take no lock and
  writers never wait for readers;
* answers are cached in an LRU keyed by ``(epoch_id, *queries)``.
  Invalidation is free by construction: publishing a new epoch changes
  every key, and stale entries simply age out of the LRU.

Consistency contract (pinned by ``tests/test_epoch_serving.py``): a
query observes exactly one fully-published epoch — never a mix of two
— and its answers are bitwise identical to quiescing the service and
answering through the estimator directly, for all nine mechanisms.

Purity: mechanisms whose answering is side-effect free
(:attr:`~repro.core.RangeQueryMechanism.answering_is_pure`) answer
concurrently with no lock at all.  HIO and LHIO draw lazy noise and
memoize it during answering, so their epochs carry one per-epoch
answering lock — readers of *those* mechanisms serialize against each
other, but still never against ingest or re-finalize.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

import numpy as np

from ..queries import Query, QueryResult, ScalarResult
from ..queries.range_query import RangeQuery

__all__ = ["AnswerCache", "EstimatorEpoch"]

#: Default number of answered workloads kept per service.
DEFAULT_ANSWER_CACHE_ENTRIES = 256

#: Per-epoch bound on memoized single-query compiled plans.  The map
#: is keyed by the query object itself (queries are hashable frozen
#: dataclasses), skipping the SHA-256 workload fingerprint the shared
#: plan LRU pays per lookup.
SINGLE_PLAN_LIMIT = 512


def _results_document(results: list[QueryResult]) -> dict:
    """The wire document for one answered workload (see ``query_wire``)."""
    document = {"count": len(results),
                "results": [result.to_wire() for result in results]}
    if all(isinstance(result, ScalarResult) for result in results):
        document["answers"] = [float(result.value) for result in results]
    return document


class _CachedAnswer:
    """One workload's memoized representations, filled lazily.

    The same workload may be asked for as a flat range vector
    (``query``), typed results (``query_typed``) or a wire document
    (``query_wire``); each representation is computed at most once per
    epoch and the others are derived or computed on first demand.
    Concurrent fills of the same slot are benign: both threads compute
    the identical value (answering a fixed epoch is deterministic) and
    the last assignment wins.
    """

    __slots__ = ("array", "typed", "wire")

    def __init__(self) -> None:
        self.array: np.ndarray | None = None
        self.typed: list[QueryResult] | None = None
        self.wire: dict | None = None


class AnswerCache:
    """Thread-safe bounded LRU of answered workloads with counters.

    Keys are ``(epoch_id, *queries)`` tuples, so entries from a
    superseded epoch can never be served again — they linger only
    until the LRU ages them out.  ``capacity=0`` disables caching
    (every lookup is a counted miss, ``put`` is a no-op), which the
    benchmarks use to measure the uncached fast path honestly.
    """

    def __init__(self, capacity: int = DEFAULT_ANSWER_CACHE_ENTRIES):
        if capacity < 0:
            raise ValueError("capacity must be >= 0 (0 disables caching)")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        self._entries: OrderedDict[tuple, _CachedAnswer] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: tuple) -> _CachedAnswer | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self.hits += 1
            self._entries.move_to_end(key)
            return entry

    def put(self, key: tuple, entry: _CachedAnswer) -> None:
        if self.capacity == 0:
            return
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1

    def clear(self) -> None:
        """Drop every entry (counters keep accumulating)."""
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        """Counters for health documents and the concurrency tests."""
        with self._lock:
            return {"size": len(self._entries), "capacity": self.capacity,
                    "hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions}


class EstimatorEpoch:
    """One immutable published read view of the service.

    Built entirely before publication and never mutated afterwards
    (the scratch plan map and the estimator's lazy-noise caches are
    internal memoization, invisible in answers), so any thread that
    loads the epoch reference answers against one consistent finalized
    estimator.

    Answers are bitwise identical to calling the estimator directly:
    the fast paths below run the exact same kernels in the exact same
    order, only skipping per-call interpretation (fingerprint hashing,
    plan re-compilation, redundant list traversals).
    """

    __slots__ = ("epoch_id", "estimator", "answer_cache", "_answer_lock",
                 "_single_plans")

    def __init__(self, epoch_id: int, estimator,
                 answer_cache: AnswerCache | None = None):
        self.epoch_id = int(epoch_id)
        self.estimator = estimator
        self.answer_cache = answer_cache
        #: Impure mechanisms (HIO/LHIO) mutate lazy-noise state while
        #: answering; one per-epoch lock serializes their readers.
        self._answer_lock = (None if estimator.answering_is_pure
                             else threading.Lock())
        self._single_plans: dict[Query, object] = {}

    @property
    def answering_is_pure(self) -> bool:
        """Whether this epoch answers with no lock at all."""
        return self._answer_lock is None

    # ------------------------------------------------------------------
    # Cache slot resolution
    # ------------------------------------------------------------------
    def _slot(self, queries: tuple) -> _CachedAnswer | None:
        """The workload's cached-answer slot; None when caching is off.

        A fresh (empty) slot is inserted on miss so all three
        representations share one entry.  Unhashable workloads (not
        produced by the public wire or IR surface) silently bypass the
        cache instead of failing the query.
        """
        cache = self.answer_cache
        if cache is None or cache.capacity == 0:
            return None
        try:
            entry = cache.get((self.epoch_id, *queries))
        except TypeError:
            return None
        if entry is None:
            entry = _CachedAnswer()
            cache.put((self.epoch_id, *queries), entry)
        return entry

    # ------------------------------------------------------------------
    # Answering
    # ------------------------------------------------------------------
    def answer_workload(self, queries) -> np.ndarray | list[QueryResult]:
        """``QueryService.query`` semantics against this epoch.

        Pure range workloads return the flat float vector (a copy, so
        callers may mutate it); mixed workloads return typed results.
        """
        queries = tuple(queries)
        if not queries:
            return np.empty(0)
        if any(not isinstance(query, RangeQuery) for query in queries):
            return self.answer_typed(queries)
        slot = self._slot(queries)
        if slot is not None and slot.array is not None:
            return slot.array.copy()
        array = self._compute_ranges(queries)
        if slot is not None:
            slot.array = array
            return array.copy()
        return array

    def answer_typed(self, queries) -> list[QueryResult]:
        """``QueryService.query_typed`` semantics against this epoch."""
        queries = tuple(queries)
        slot = self._slot(queries)
        if slot is not None and slot.typed is not None:
            return list(slot.typed)
        results = self._compute_typed(queries)
        if slot is not None:
            slot.typed = results
            return list(results)
        return results

    def wire_document(self, queries) -> dict:
        """The ``POST /query`` response document for one workload.

        Cache hits return the memoized document itself — it goes
        straight to ``json.dumps``, so treat it as immutable.
        """
        queries = tuple(queries)
        slot = self._slot(queries)
        if slot is not None and slot.wire is not None:
            return slot.wire
        if slot is not None and slot.typed is not None:
            results = slot.typed
        else:
            results = self._compute_typed(queries)
            if slot is not None:
                slot.typed = results
        document = _results_document(results)
        if slot is not None:
            slot.wire = document
        return document

    # ------------------------------------------------------------------
    # Uncached computation (the fast paths)
    # ------------------------------------------------------------------
    def _compute_ranges(self, queries: tuple) -> np.ndarray:
        """Validated range primitives through the estimator's batch path.

        Identical calls to ``answer_workload`` on the estimator —
        validation then ``_answer_ranges`` — without re-running the
        kind dispatch the caller already performed.
        """
        estimator = self.estimator
        for query in queries:
            estimator._validate_query(query)
        if self._answer_lock is None:
            return estimator._answer_ranges(list(queries))
        with self._answer_lock:
            return estimator._answer_ranges(list(queries))

    def _compute_typed(self, queries: tuple) -> list[QueryResult]:
        """Compile (memoized), batch-answer, reassemble — one workload.

        Single-query workloads resolve their compiled plan through the
        per-epoch scratch map keyed by the query object itself,
        skipping the shared LRU's SHA-256 fingerprint; the plan object
        is the very one the shared cache holds, so answers cannot
        diverge.
        """
        estimator = self.estimator
        if len(queries) == 1:
            compiled = self._single_plans.get(queries[0])
            if compiled is None:
                compiled = estimator._plan_for([queries[0]])
                if len(self._single_plans) < SINGLE_PLAN_LIMIT:
                    self._single_plans[queries[0]] = compiled
        else:
            compiled = estimator._plan_for(list(queries))
        if self._answer_lock is None:
            answers = (estimator._answer_compiled(compiled)
                       if compiled.n_primitives else np.empty(0))
        else:
            with self._answer_lock:
                answers = (estimator._answer_compiled(compiled)
                           if compiled.n_primitives else np.empty(0))
        return compiled.assemble(answers)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"EstimatorEpoch(id={self.epoch_id}, "
                f"{type(self.estimator).__name__}, "
                f"{'lock-free' if self.answering_is_pure else 'locked'})")
