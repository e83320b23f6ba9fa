"""Deterministic fault injection for storage backends.

A :class:`FaultInjectingBackend` wraps any real
:class:`~repro.storage.StorageBackend` and executes a seeded,
scriptable :class:`FaultPlan` against it: fail the Nth write with a
locked-database error, storm ``times`` consecutive calls, or inject
latency.  Every failure mode the resilience layer handles is therefore
*reproducible* — the chaos tests and the benchmark's ``--fault-rate``
mode replay the exact same fault schedule from the same seed.

Fault kinds
-----------
``locked``
    Raises ``sqlite3.OperationalError("database is locked")`` — the
    classic transient SQLite contention error.
``io``
    Raises ``OSError(EINTR)`` — a retryable I/O hiccup.
``permanent``
    Raises :class:`~repro.resilience.PermanentStorageError` — a
    failure retrying cannot fix.
``latency``
    Sleeps ``latency_ms`` then lets the call proceed (for deadline
    tests and tail-latency benchmarks).

SQLite appends are transactional, so an append cut short by a crash
leaves nothing behind: ``permanent`` on ``append_ingest`` covers it.

Plans are scriptable from the command line through
:meth:`FaultPlan.parse`::

    append_ingest:error=locked:nth=3:times=5
    save_snapshot:error=io:rate=0.2
    append_ingest:error=latency:latency_ms=5:rate=0.5

(one spec per comma-separated segment; ``nth`` fires on the Nth call
of the op and ``times`` consecutive calls after it, ``rate`` fires
with seeded probability per call).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field

import numpy as np

from ..storage.base import (IngestLogEntry, SnapshotRecord, StorageBackend,
                            TenantRecord)
from .errors import PermanentStorageError

__all__ = ["FaultInjectingBackend", "FaultPlan", "FaultSpec"]

#: Legal ``FaultSpec.error`` kinds.
FAULT_KINDS = ("locked", "io", "permanent", "latency")


@dataclass
class FaultSpec:
    """One scripted fault against one backend operation.

    Parameters
    ----------
    op:
        Backend method name (``"append_ingest"``, ``"save_snapshot"``,
        ...) or ``"*"`` for every operation.
    error:
        Fault kind (see module docstring).
    nth:
        Fire on the Nth call of ``op`` (1-based) and, with
        ``times > 1``, the following ``times - 1`` calls — a locked-db
        *storm*.  Mutually exclusive with ``rate``.
    rate:
        Fire with this seeded probability on each call, at most
        ``times`` total fires (``times=0`` means unlimited).
    times:
        Number of fires (consecutive for ``nth``, total for ``rate``).
    latency_ms:
        Sleep duration for ``error="latency"``.
    """

    op: str
    error: str = "locked"
    nth: int | None = None
    rate: float | None = None
    times: int = 1
    latency_ms: float = 1.0
    #: How many times this spec has fired.
    fired: int = field(default=0, init=False)

    def __post_init__(self):
        if self.error not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.error!r}; "
                             f"known: {list(FAULT_KINDS)}")
        if (self.nth is None) == (self.rate is None):
            raise ValueError("exactly one of nth or rate must be set")
        if self.nth is not None and self.nth < 1:
            raise ValueError("nth is 1-based and must be >= 1")
        if self.rate is not None and not 0.0 <= self.rate <= 1.0:
            raise ValueError("rate must be in [0, 1]")
        if self.times < 0:
            raise ValueError("times must be >= 0")

    def should_fire(self, call_number: int, rng: np.random.Generator) -> bool:
        """Whether this spec fires on ``call_number`` of its op."""
        if self.nth is not None:
            if not self.nth <= call_number < self.nth + self.times:
                return False
        else:
            if self.times and self.fired >= self.times:
                return False
            if rng.random() >= self.rate:
                return False
        self.fired += 1
        return True


class FaultPlan:
    """A seeded schedule of :class:`FaultSpec` entries.

    The plan owns one seeded generator consumed in call order, so the
    same (plan, workload) pair fires the same faults every run.
    """

    def __init__(self, specs: list[FaultSpec] | None = None,
                 seed: int = 0):
        self.specs = list(specs or [])
        self.seed = seed
        self._rng = np.random.default_rng(seed)
        #: ``(op, call_number, kind)`` for every fault fired.
        self.fired_log: list[tuple[str, int, str]] = []

    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """A plan from its compact CLI syntax (see module docstring)."""
        specs = []
        for segment in filter(None, (part.strip()
                                     for part in text.split(","))):
            op, _, rest = segment.partition(":")
            kwargs: dict = {}
            for pair in filter(None, rest.split(":")):
                key, _, value = pair.partition("=")
                if key in ("nth", "times"):
                    kwargs[key] = int(value)
                elif key in ("rate", "latency_ms"):
                    kwargs[key] = float(value)
                elif key == "error":
                    kwargs[key] = value
                else:
                    raise ValueError(f"unknown fault field {key!r} in "
                                     f"{segment!r}")
            specs.append(FaultSpec(op=op, **kwargs))
        return cls(specs, seed=seed)

    def next_fault(self, op: str, call_number: int) -> FaultSpec | None:
        """The first spec firing for this call, if any."""
        for spec in self.specs:
            if spec.op not in ("*", op):
                continue
            if spec.should_fire(call_number, self._rng):
                self.fired_log.append((op, call_number, spec.error))
                return spec
        return None

    @property
    def total_fired(self) -> int:
        """Faults fired so far across all specs."""
        return len(self.fired_log)


class FaultInjectingBackend(StorageBackend):
    """A :class:`StorageBackend` that executes a fault plan.

    Every method delegates to the wrapped backend after consulting the
    plan; a firing fault raises *before* the inner call so no partial
    state is written.  With an empty plan the wrapper is a pure
    pass-through, which is what the benchmark's no-fault overhead gate
    measures.
    """

    def __init__(self, inner: StorageBackend,
                 plan: FaultPlan | None = None,
                 sleep=time.sleep):
        self.inner = inner
        self.plan = plan if plan is not None else FaultPlan()
        self._sleep = sleep
        self._lock = threading.Lock()
        self.call_counts: dict[str, int] = {}

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"fault+{self.inner.name}"

    # ------------------------------------------------------------------
    # Fault machinery
    # ------------------------------------------------------------------
    def _maybe_fail(self, op: str) -> None:
        with self._lock:
            count = self.call_counts.get(op, 0) + 1
            self.call_counts[op] = count
            spec = self.plan.next_fault(op, count)
        if spec is None:
            return
        if spec.error == "latency":
            self._sleep(spec.latency_ms / 1e3)
            return
        if spec.error == "locked":
            import sqlite3
            raise sqlite3.OperationalError("database is locked")
        if spec.error == "io":
            import errno
            raise OSError(errno.EINTR, f"injected I/O fault on {op}")
        raise PermanentStorageError(f"injected permanent fault on {op}")

    # ------------------------------------------------------------------
    # Delegation
    # ------------------------------------------------------------------
    def create_tenant(self, name: str, config: dict) -> TenantRecord:
        self._maybe_fail("create_tenant")
        return self.inner.create_tenant(name, config)

    def get_tenant(self, name: str) -> TenantRecord:
        self._maybe_fail("get_tenant")
        return self.inner.get_tenant(name)

    def list_tenants(self) -> list[TenantRecord]:
        self._maybe_fail("list_tenants")
        return self.inner.list_tenants()

    def delete_tenant(self, name: str) -> None:
        self._maybe_fail("delete_tenant")
        self.inner.delete_tenant(name)

    def save_snapshot(self, tenant: str, document: dict, *,
                      wal_seq: int = 0) -> SnapshotRecord:
        self._maybe_fail("save_snapshot")
        return self.inner.save_snapshot(tenant, document, wal_seq=wal_seq)

    def load_snapshot(self, tenant: str,
                      version: int | None = None) -> tuple[dict,
                                                           SnapshotRecord]:
        self._maybe_fail("load_snapshot")
        return self.inner.load_snapshot(tenant, version)

    def list_snapshots(self, tenant: str | None = None) -> list[SnapshotRecord]:
        self._maybe_fail("list_snapshots")
        return self.inner.list_snapshots(tenant)

    def prune_snapshots(self, tenant: str, keep_last: int) -> int:
        self._maybe_fail("prune_snapshots")
        return self.inner.prune_snapshots(tenant, keep_last)

    def append_ingest(self, tenant: str, rows: np.ndarray,
                      domain_size: int | None = None) -> int:
        self._maybe_fail("append_ingest")
        return self.inner.append_ingest(tenant, rows, domain_size)

    def pending_ingest(self, tenant: str,
                       after_seq: int = 0) -> list[IngestLogEntry]:
        self._maybe_fail("pending_ingest")
        return self.inner.pending_ingest(tenant, after_seq)

    def prune_ingest(self, tenant: str, upto_seq: int) -> int:
        self._maybe_fail("prune_ingest")
        return self.inner.prune_ingest(tenant, upto_seq)

    def discard_ingest(self, tenant: str, seq: int) -> None:
        self._maybe_fail("discard_ingest")
        self.inner.discard_ingest(tenant, seq)

    def ingest_log_depth(self, tenant: str | None = None) -> int:
        self._maybe_fail("ingest_log_depth")
        return self.inner.ingest_log_depth(tenant)

    def last_ingest_seq(self, tenant: str) -> int:
        self._maybe_fail("last_ingest_seq")
        return self.inner.last_ingest_seq(tenant)

    def location(self) -> str:
        return self.inner.location()

    def describe(self) -> dict:
        description = self.inner.describe()
        description["backend"] = self.name
        description["faults_fired"] = self.plan.total_fired
        return description

    def close(self) -> None:
        self.inner.close()
