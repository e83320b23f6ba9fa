"""Multi-tenant registry over one storage backend.

A :class:`TenantManager` turns a single serving process into a host
for many independent estimators: each *tenant* is one named
(mechanism, epsilon, schema) :class:`~repro.serving.QueryService`
with its own snapshot lineage, ingest quota and locks, all persisted
through one :class:`~repro.storage.StorageBackend`.

Concurrency
-----------
Each tenant runtime owns a re-entrant lock that serializes its
*durability-coupled* operations — write-ahead-log append + in-memory
apply, and state capture + log-position record — so the recorded WAL
position can never drift from what a snapshot actually captured.
Queries and re-finalizes go straight to the tenant's
:class:`QueryService`, whose internal locks already let one tenant's
re-finalize run while its own queries keep answering — and nothing a
tenant does ever holds another tenant's lock, so one tenant's
re-finalize never blocks another's queries
(``tests/test_multi_tenant.py`` pins this).  The registry lock guards
only the name → runtime map.

Durability
----------
``ingest`` appends the raw batch to the backend's write-ahead ingest
log *before* applying it in memory.  ``save_snapshot`` stores the
service document together with the last appended log sequence and
prunes the entries the snapshot captured.  Recovery (automatic at
construction) restores each tenant from its newest snapshot — or a
fresh service from the tenant's stored config — and replays the
pending log tail in order.  Because ingest is deterministic in
(restored state, replayed rows), a recovered
tenant's answers are bitwise identical to an uninterrupted run
(``tests/test_crash_recovery.py`` pins this for TDG, HDG and MSW).

Resilience
----------
Storage calls on the ingest path run under the manager's
:class:`~repro.resilience.RetryPolicy` (transient errors — locked
database, ``EINTR`` I/O — retried with seeded exponential backoff)
and, when ``op_deadline`` is set, a per-operation
:class:`~repro.resilience.Deadline`.  Persistent write-ahead-log
failure trips the tenant's :class:`~repro.resilience.CircuitBreaker`:
the tenant enters *degraded* mode — queries keep answering from the
last finalized estimator while ingest raises
:class:`~repro.resilience.DegradedServiceError` (503 +
``Retry-After`` on the wire) — and the breaker's half-open state
gates one recovery probe per reset period.  Tenants whose recovery
fails at construction are *quarantined* (with the failure reason)
instead of refusing to start the whole server; ``retry_recovery``
re-attempts them.  ``tests/test_resilience.py`` is the chaos suite
pinning all of this on both backends.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field

from ..resilience import (CircuitBreaker, Deadline, DegradedServiceError,
                          RetryPolicy)
from ..storage.base import (DEFAULT_TENANT, StorageBackend,
                            TenantExistsError, TenantRecord,
                            UnknownTenantError)
from .service import (MAX_INGEST_WORKERS, QueryService, ServiceError,
                      checked_count)

logger = logging.getLogger("repro.serving")

#: Tenant-config keys forwarded to the QueryService constructor.
_SERVICE_CONFIG_KEYS = ("mechanism", "epsilon", "seed", "refinalize_every",
                        "total_users", "domain_size",
                        "ingest_workers", "plan_cache_entries",
                        "answer_cache_entries")


#: The integer keys of a tenant's config and their ``(least, most)``
#: values.
_INTEGER_CONFIG_KEYS = {"quota": (0, None), "keep_last": (1, None),
                        "total_users": (1, None), "domain_size": (2, None),
                        "ingest_workers": (1, MAX_INGEST_WORKERS)}


def check_tenant_config(config: dict) -> dict:
    """``config`` if each of its integer keys is absent, None or in
    range (:func:`~repro.serving.service.checked_count`).  Checked when
    a tenant is created and again when a stored one recovers."""
    for key, (least, most) in _INTEGER_CONFIG_KEYS.items():
        checked_count(config.get(key), key, least, most)
    return config


class QuotaExceededError(ServiceError):
    """An ingest batch would push a tenant past its report quota."""


@dataclass
class _TenantRuntime:
    """In-memory state of one hosted tenant."""

    record: TenantRecord
    service: QueryService
    #: Gates the tenant's degraded-mode recovery probes.
    breaker: CircuitBreaker
    #: Serializes WAL-append+apply and capture+record (see module doc).
    lock: threading.RLock = field(default_factory=threading.RLock)
    #: Last write-ahead-log sequence applied to the in-memory service.
    last_seq: int = 0

    @property
    def degraded(self) -> bool:
        """Whether ingest is currently gated by the breaker."""
        return self.breaker.state != "closed"


def service_from_config(config: dict) -> QueryService:
    """Build the tenant's :class:`QueryService` from its stored config."""
    kwargs = {key: config[key] for key in _SERVICE_CONFIG_KEYS
              if config.get(key) is not None}
    kwargs.setdefault("mechanism", "HDG")
    kwargs.setdefault("epsilon", 1.0)
    mechanism = kwargs.pop("mechanism")
    epsilon = kwargs.pop("epsilon")
    extra = dict(config.get("mechanism_kwargs") or {})
    return QueryService(mechanism, float(epsilon), **kwargs, **extra)


def create_tenant_record(backend: StorageBackend, name: str,
                         config: dict) -> tuple[TenantRecord, QueryService]:
    """Check a new tenant's config, then persist its record.

    The one way a tenant record is written: ``repro tenants create``,
    :meth:`TenantManager.create_tenant` and the manager's adoption of
    default-tenant snapshots all come here.  The service is built from
    the config before the record is persisted, so a bad config (an
    integer key out of range, an unknown mechanism, a bad epsilon)
    never leaves a half-created tenant in the backend.  The caller
    serves the returned service or closes it; no worker process has
    started yet, since a stream tier starts on its first batch.
    """
    config = check_tenant_config(dict(config))
    service = service_from_config(config)
    return backend.create_tenant(name, config), service


class TenantManager:
    """Hosts one :class:`QueryService` per tenant over a storage backend.

    Parameters
    ----------
    backend:
        The durable home of tenant configs, snapshots and the
        write-ahead ingest log.  Tenants already present are recovered
        (snapshot restore + log replay) at construction.
    default_config:
        When given and no ``"default"`` tenant exists yet, one is
        created with this config — the tenant every request without an
        explicit tenant name routes to, which is what keeps the
        single-tenant wire format working.  If the backend already
        holds default-tenant snapshots (a JSON store written without a
        tenant registry), the new tenant recovers from the newest one.
    retry_policy:
        Retry schedule for storage calls on the ingest/snapshot path
        (default: 3 attempts, exponential backoff with seeded jitter).
        Pass :meth:`RetryPolicy.no_retry` to fail fast.
    breaker_threshold / breaker_reset:
        Consecutive write-ahead-log failures that trip a tenant's
        circuit breaker, and the open-state duration before one
        recovery probe is allowed through.
    op_deadline:
        Wall-clock budget in seconds for one storage operation
        including its retries (``None`` = unbounded).
    clock:
        Time source for breakers and deadlines; injectable for tests.
    """

    def __init__(self, backend: StorageBackend,
                 default_config: dict | None = None, *,
                 retry_policy: RetryPolicy | None = None,
                 breaker_threshold: int = 3,
                 breaker_reset: float = 30.0,
                 op_deadline: float | None = None,
                 clock=time.monotonic):
        self.backend = backend
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy())
        self.breaker_threshold = breaker_threshold
        self.breaker_reset = breaker_reset
        self.op_deadline = op_deadline
        self._clock = clock
        self._registry_lock = threading.RLock()
        self._runtimes: dict[str, _TenantRuntime] = {}
        #: Tenants whose recovery failed: name -> failure document.
        self._quarantined: dict[str, dict] = {}
        for record in backend.list_tenants():
            self._try_recover(record)
        if default_config is not None and not (
                DEFAULT_TENANT in self._runtimes
                or DEFAULT_TENANT in self._quarantined):
            try:
                adopt = bool(backend.list_snapshots(DEFAULT_TENANT))
            except UnknownTenantError:  # snapshots need a registered tenant
                adopt = False
            if adopt:
                # Root-level snapshots with no registry entry (written
                # by ``repro snapshot create`` or a single-service
                # release): recover the newest, do not serve empty.
                record, fresh = create_tenant_record(
                    backend, DEFAULT_TENANT, default_config)
                fresh.close()
                self._try_recover(record)
            else:
                self.create_tenant(DEFAULT_TENANT, default_config)

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def _new_breaker(self) -> CircuitBreaker:
        return CircuitBreaker(failure_threshold=self.breaker_threshold,
                              reset_timeout=self.breaker_reset,
                              clock=self._clock)

    def _op_deadline(self) -> Deadline | None:
        if self.op_deadline is None:
            return None
        return Deadline.after(self.op_deadline, clock=self._clock)

    def _try_recover(self, record: TenantRecord) -> bool:
        """Recover one tenant, quarantining it on failure.

        A tenant whose snapshot is unreadable or whose log replay
        raises must not take the whole server down with it: the
        failure is recorded (name, error, reason) and every request
        for that tenant answers 503 until ``retry_recovery`` succeeds
        or an operator deletes the tenant.
        """
        try:
            self._runtimes[record.name] = self._recover(record)
        except Exception as error:
            logger.error("quarantining tenant %r: recovery failed: %s: %s",
                         record.name, type(error).__name__, error)
            self._quarantined[record.name] = {
                "error": f"{type(error).__name__}: {error}",
                "reason": "recovery failed",
            }
            return False
        return True

    def _recover(self, record: TenantRecord) -> _TenantRuntime:
        """Newest snapshot (if any) + write-ahead-log tail replay."""
        check_tenant_config(record.config)
        try:
            document, snapshot = self.backend.load_snapshot(record.name)
            service = QueryService.from_state_dict(
                document, seed=record.config.get("seed"))
            replay_after = snapshot.wal_seq
        except FileNotFoundError:
            service = service_from_config(record.config)
            replay_after = 0
        last_seq = max(replay_after,
                       self.backend.last_ingest_seq(record.name))
        for entry in self.backend.pending_ingest(record.name,
                                                 after_seq=replay_after):
            service.ingest(entry.rows, entry.domain_size)
            last_seq = max(last_seq, entry.seq)
        return _TenantRuntime(record=record, service=service,
                              breaker=self._new_breaker(),
                              last_seq=last_seq)

    def retry_recovery(self, name: str) -> bool:
        """Re-attempt a quarantined tenant's recovery; True on success."""
        with self._registry_lock:
            if name not in self._quarantined:
                raise UnknownTenantError(
                    f"tenant {name!r} is not quarantined")
            record = self.backend.get_tenant(name)
            if self._try_recover(record):
                del self._quarantined[name]
                return True
            return False

    # ------------------------------------------------------------------
    # Registry
    # ------------------------------------------------------------------
    def _runtime(self, tenant: str) -> _TenantRuntime:
        # Fast path: a plain dict read is atomic under the GIL, so the
        # (overwhelmingly common) hit on a hosted tenant resolves
        # lock-free — query threads never contend on the registry lock.
        runtime = self._runtimes.get(tenant)
        if runtime is not None:
            return runtime
        with self._registry_lock:
            runtime = self._runtimes.get(tenant)
            quarantined = self._quarantined.get(tenant)
        if runtime is None:
            if quarantined is not None:
                raise DegradedServiceError(
                    f"tenant {tenant!r} is quarantined "
                    f"({quarantined['error']}); retry recovery or delete "
                    "the tenant", retry_after=self.breaker_reset,
                    tenant=tenant)
            raise UnknownTenantError(f"unknown tenant {tenant!r}")
        return runtime

    def service(self, tenant: str = DEFAULT_TENANT) -> QueryService:
        """The named tenant's live :class:`QueryService`."""
        return self._runtime(tenant).service

    def tenant_names(self) -> list[str]:
        """Hosted tenant names, sorted."""
        with self._registry_lock:
            return sorted(self._runtimes)

    def has_tenant(self, tenant: str) -> bool:
        """Whether the named tenant is hosted."""
        with self._registry_lock:
            return tenant in self._runtimes

    def create_tenant(self, name: str, config: dict) -> TenantRecord:
        """Validate, persist and start a new tenant
        (:func:`create_tenant_record`)."""
        with self._registry_lock:
            if name in self._runtimes or name in self._quarantined:
                raise TenantExistsError(f"tenant {name!r} already exists")
            record, service = create_tenant_record(self.backend, name, config)
            self._runtimes[name] = _TenantRuntime(
                record=record, service=service,
                breaker=self._new_breaker())
        return record

    def delete_tenant(self, name: str) -> None:
        """Drop a tenant: its service, snapshots and log entries.

        Deleting a *quarantined* tenant is allowed — it is the
        operator's way out when recovery cannot be repaired.
        """
        runtime = None
        with self._registry_lock:
            if name in self._quarantined:
                del self._quarantined[name]
            elif name in self._runtimes:
                runtime = self._runtimes.pop(name)
            else:
                raise UnknownTenantError(f"unknown tenant {name!r}")
        if runtime is not None:
            runtime.service.close()
        self.backend.delete_tenant(name)

    def quarantined_tenants(self) -> dict[str, dict]:
        """Quarantined tenant names with their failure documents."""
        with self._registry_lock:
            return {name: dict(info)
                    for name, info in sorted(self._quarantined.items())}

    def degraded_tenants(self) -> list[str]:
        """Live tenants whose breaker is currently open or half-open."""
        with self._registry_lock:
            runtimes = dict(self._runtimes)
        return sorted(name for name, runtime in runtimes.items()
                      if runtime.degraded)

    def describe_tenant(self, name: str) -> dict:
        """Admin document for one tenant (``GET /tenants/<name>``)."""
        with self._registry_lock:
            quarantined = self._quarantined.get(name)
        if quarantined is not None:
            record = self.backend.get_tenant(name)
            return {
                "name": name,
                "created_at": record.created_at,
                "config": dict(record.config),
                "state": "quarantined",
                "quarantine": dict(quarantined),
            }
        runtime = self._runtime(name)
        config = dict(runtime.record.config)
        quota = config.get("quota")
        return {
            "name": name,
            "created_at": runtime.record.created_at,
            "config": config,
            "state": "degraded" if runtime.degraded else "serving",
            "status": runtime.service.status(),
            "breaker": runtime.breaker.status(),
            "quota": quota,
            "quota_remaining": (None if quota is None else
                                max(0, int(quota)
                                    - runtime.service.reports_ingested)),
            "pending_ingest_log": self.backend.ingest_log_depth(name),
            "snapshots": [record.version
                          for record in self.backend.list_snapshots(name)],
        }

    def list_tenants(self) -> list[dict]:
        """Summary rows for ``GET /tenants`` (quarantined ones included)."""
        rows = []
        for name in self.tenant_names():
            runtime = self._runtime(name)
            status = runtime.service.status()
            rows.append({
                "name": name,
                "state": "degraded" if runtime.degraded else "serving",
                "mechanism": status["mechanism"],
                "epsilon": status["epsilon"],
                "mode": status["mode"],
                "ready": status["ready"],
                "reports_ingested": status["reports_ingested"],
                "quota": runtime.record.config.get("quota"),
                "pending_ingest_log": self.backend.ingest_log_depth(name),
            })
        for name, info in self.quarantined_tenants().items():
            rows.append({"name": name, "state": "quarantined",
                         "quarantine": info})
        rows.sort(key=lambda row: row["name"])
        return rows

    # ------------------------------------------------------------------
    # Tenant-routed serving operations
    # ------------------------------------------------------------------
    def ingest(self, tenant: str, rows, domain_size: int | None = None) -> dict:
        """Validate → quota check → WAL append → in-memory apply,
        atomically.

        ``rows`` is a JSON-shaped nested list (or array) of integer
        rows.  The tenant's service checks it once
        (:meth:`~repro.serving.QueryService.check_batch`: integers, in
        ``[0, c)``, the width and domain size of earlier batches)
        *before* the write-ahead append, so a batch the service would
        refuse never reaches the log; the log and the collector then
        share the checked array.  ``domain_size`` must be an integer
        >= 2, or None.
        """
        runtime = self._runtime(tenant)
        checked_count(domain_size, "domain_size", 2)
        with runtime.lock:
            batch = runtime.service.check_batch(rows, domain_size)
            quota = runtime.record.config.get("quota")
            if quota is not None and (runtime.service.reports_ingested
                                      + batch.n_users > int(quota)):
                raise QuotaExceededError(
                    f"tenant {tenant!r} quota exceeded: "
                    f"{runtime.service.reports_ingested} ingested + "
                    f"{batch.n_users} in batch > quota {int(quota)}")
            if not runtime.breaker.allow():
                raise DegradedServiceError(
                    f"tenant {tenant!r} is degraded: write-ahead log "
                    "unavailable; queries still answer from the last "
                    "finalized estimator",
                    retry_after=runtime.breaker.retry_after() or 1.0,
                    tenant=tenant)
            try:
                seq = self.retry_policy.call(
                    lambda: self.backend.append_ingest(
                        tenant, batch.values, batch.domain_size),
                    deadline=self._op_deadline(),
                    operation=f"WAL append for tenant {tenant!r}")
            except Exception as error:
                runtime.breaker.record_failure()
                logger.warning(
                    "WAL append failed for tenant %r (breaker %s): %s: %s",
                    tenant, runtime.breaker.state,
                    type(error).__name__, error)
                raise DegradedServiceError(
                    f"tenant {tenant!r}: write-ahead append failed "
                    f"({type(error).__name__}: {error}); batch not "
                    "ingested",
                    retry_after=runtime.breaker.retry_after() or 1.0,
                    tenant=tenant) from error
            runtime.breaker.record_success()
            try:
                receipt = runtime.service.ingest(batch)
            except BaseException:
                # The apply failed after the durable append: drop the
                # entry so recovery does not replay a batch the live
                # service never absorbed.
                self.backend.discard_ingest(tenant, seq)
                raise
            runtime.last_seq = seq
        receipt["tenant"] = tenant
        receipt["wal_seq"] = seq
        return receipt

    def refinalize(self, tenant: str) -> dict:
        """Re-finalize one tenant (its own locks only)."""
        status = self._runtime(tenant).service.refinalize()
        status["tenant"] = tenant
        return status

    def save_snapshot(self, tenant: str):
        """Capture the tenant's state and prune the captured log tail."""
        runtime = self._runtime(tenant)
        with runtime.lock:
            document = runtime.service.state_dict()
            wal_seq = runtime.last_seq
        record = self.retry_policy.call(
            lambda: self.backend.save_snapshot(tenant, document,
                                               wal_seq=wal_seq),
            deadline=self._op_deadline(),
            operation=f"snapshot save for tenant {tenant!r}")
        self.backend.prune_ingest(tenant, record.wal_seq)
        keep_last = runtime.record.config.get("keep_last")
        if keep_last is not None:
            self.backend.prune_snapshots(tenant, int(keep_last))
        return record

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def storage_status(self) -> dict:
        """The ``/healthz`` storage section."""
        description = self.backend.describe()
        description["tenants"] = len(self.tenant_names())
        return description

    def resilience_status(self) -> dict:
        """The ``/healthz`` resilience section."""
        with self._registry_lock:
            runtimes = dict(self._runtimes)
        return {
            "retry_policy": self.retry_policy.describe(),
            "op_deadline": self.op_deadline,
            "degraded_tenants": self.degraded_tenants(),
            "quarantined_tenants": self.quarantined_tenants(),
            "breakers": {name: runtime.breaker.status()
                         for name, runtime in sorted(runtimes.items())},
        }

    def readiness(self) -> tuple[bool, dict]:
        """The ``/readyz`` verdict: ready only when no tenant is
        quarantined and every breaker is closed."""
        degraded = self.degraded_tenants()
        quarantined = sorted(self.quarantined_tenants())
        ready = not degraded and not quarantined
        return ready, {
            "ready": ready,
            "degraded_tenants": degraded,
            "quarantined_tenants": quarantined,
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release every tenant's service (distributed ingest tiers).

        Tenants with in-process ingest are unaffected; the manager
        itself stays usable for queries, but closed tenants reject
        further ingest until the process restarts and recovers them.
        """
        with self._registry_lock:
            runtimes = list(self._runtimes.values())
        for runtime in runtimes:
            runtime.service.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"TenantManager({self.backend.name}: "
                f"{', '.join(self.tenant_names()) or 'no tenants'})")
