"""Online query-serving subsystem: snapshots, ingest service, HTTP API.

The paper's protocol is one-shot — collect, post-process, answer — but
a production aggregator runs for months: reports arrive continuously,
answers must stay fresh, and the fitted state has to survive restarts.
This package provides that serving layer on top of the mechanisms'
``save_state``/``load_state`` and ``partial_fit``/``finalize`` hooks:

:mod:`repro.serving.snapshot`
    :func:`restore_mechanism`, which rebuilds a fitted estimator whose
    answers are bitwise identical to the saved one's (the storage
    backends of :mod:`repro.storage` persist the snapshot versions).
:mod:`repro.serving.service`
    :class:`QueryService` — thread-safe ingest → re-finalize → answer
    loop around one mechanism, serializable with its pending (not yet
    finalized) reports.
:mod:`repro.serving.epoch`
    :class:`EstimatorEpoch` and :class:`AnswerCache` — the RCU-style
    published read view queries answer against lock-free, plus the
    ``(epoch_id, workload)``-keyed answer LRU whose invalidation is
    free by construction.
:mod:`repro.serving.tenants`
    :class:`TenantManager` — one named :class:`QueryService` per
    tenant over a :class:`~repro.storage.StorageBackend`, with
    write-ahead-log ingest durability, per-tenant quotas and locks,
    and automatic snapshot-plus-replay crash recovery.
:mod:`repro.serving.http`
    The stdlib worker-pool JSON API (``/ingest``, ``/query``,
    ``/snapshot``, ``/healthz``, ``/readyz``, ``/tenants``) behind the
    ``repro serve`` CLI verb, always hosting a :class:`TenantManager`
    (over a durable backend, or a process-local
    :class:`~repro.storage.MemoryBackend` when nothing should reach
    disk), with bounded admission (load-shedding 503s) and
    degraded-mode responses backed by :mod:`repro.resilience`.

See docs/serving.md for the operations guide, docs/storage.md for the
storage backends and tenant lifecycle, docs/resilience.md for the
failure taxonomy and degraded-mode contract, and docs/api.md for the
full reference.
"""

from ..resilience import DegradedServiceError
from .epoch import AnswerCache, EstimatorEpoch
from .http import (ServingHTTPServer, ServingRequestHandler, build_server,
                   serve)
from .service import (SERVICE_SNAPSHOT_FORMAT, SERVICE_SNAPSHOT_VERSION,
                      QueryService, ServiceError, predicate_from_wire,
                      queries_from_wire, query_from_wire, query_to_wire)
from .snapshot import restore_mechanism
from .tenants import QuotaExceededError, TenantManager

__all__ = [
    "AnswerCache",
    "DegradedServiceError",
    "EstimatorEpoch",
    "QueryService",
    "QuotaExceededError",
    "SERVICE_SNAPSHOT_FORMAT",
    "SERVICE_SNAPSHOT_VERSION",
    "ServiceError",
    "ServingHTTPServer",
    "ServingRequestHandler",
    "TenantManager",
    "build_server",
    "predicate_from_wire",
    "queries_from_wire",
    "query_from_wire",
    "query_to_wire",
    "restore_mechanism",
    "serve",
]
