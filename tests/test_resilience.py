"""Chaos and unit tests for the resilience layer (repro.resilience).

Unit coverage: the error taxonomy, Deadline, RetryPolicy (seeded
backoff schedules, permanent short-circuit, deadline interaction),
CircuitBreaker state machine (fake clock, no sleeping) and the
FaultPlan DSL.

Chaos coverage, on both storage backends: a transient Nth-write fault
is retried transparently with no acknowledged-report loss (recovered
answers bitwise identical to an uninterrupted run); a locked-database
storm trips the tenant's breaker into degraded mode where queries keep
answering while ingest answers 503, and the half-open probe recovers;
a torn write-ahead-log append is quarantined on restart; a corrupt
snapshot quarantines one tenant without taking down the others; and
the HTTP surface exposes all of it (``Retry-After``, ``/readyz`` vs
``/healthz``, admission-queue shedding).
"""

from __future__ import annotations

import errno
import json
import sqlite3
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.resilience import (CircuitBreaker, Deadline, DeadlineExceededError,
                              DegradedServiceError, FaultInjectingBackend,
                              FaultPlan, FaultSpec, PermanentStorageError,
                              RetryPolicy, TransientStorageError,
                              classify_error, is_transient)
from repro.serving import TenantManager, build_server
from repro.storage import (BACKENDS, CorruptEntryError, DirectoryBackend,
                           SQLiteBackend, UnknownTenantError, open_backend)
from serving_helpers import memory_server

DOMAIN = 8


class FakeClock:
    """A manually-advanced monotonic clock for breaker/deadline tests."""

    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture(params=sorted(BACKENDS))
def backend(request, tmp_path):
    if request.param == "json":
        built = DirectoryBackend(tmp_path / "store")
    else:
        built = SQLiteBackend(tmp_path / "store.db")
    yield built
    built.close()


def _rows(seed: int, n: int = 30) -> list:
    rng = np.random.default_rng(seed)
    return rng.integers(0, DOMAIN, size=(n, 2)).tolist()


def _tdg_config(**overrides) -> dict:
    config = {"mechanism": "TDG", "epsilon": 1.0, "seed": 11,
              "domain_size": DOMAIN}
    config.update(overrides)
    return config


def _workload() -> list:
    return [{"type": "point", "assignment": [[0, 1], [1, 2]]},
            {"type": "range", "predicates": [[0, 0, 3], [1, 0, 3]]}]


def _fast_policy(**overrides) -> RetryPolicy:
    kwargs = {"attempts": 3, "base_delay": 0.0, "jitter": 0.0,
              "sleep": lambda _s: None}
    kwargs.update(overrides)
    return RetryPolicy(**kwargs)


# ----------------------------------------------------------------------
# Error taxonomy
# ----------------------------------------------------------------------
def test_classify_error_taxonomy():
    assert classify_error(sqlite3.OperationalError(
        "database is locked")) == "transient"
    assert classify_error(sqlite3.OperationalError(
        "no such table: tenants")) == "permanent"
    assert classify_error(OSError(errno.EINTR, "interrupted")) == "transient"
    assert classify_error(OSError(errno.ENOSPC, "full")) == "permanent"
    assert classify_error(TransientStorageError("x")) == "transient"
    assert classify_error(PermanentStorageError("x")) == "permanent"
    assert classify_error(CorruptEntryError("x")) == "permanent"
    assert classify_error(DeadlineExceededError("x")) == "permanent"
    assert classify_error(TimeoutError("x")) == "transient"
    assert classify_error(ValueError("x")) == "permanent"
    assert is_transient(TransientStorageError("x"))
    assert not is_transient(ValueError("x"))


def test_degraded_error_carries_retry_hint():
    error = DegradedServiceError("down", retry_after=2.5, tenant="acme")
    assert error.retry_after == 2.5
    assert error.tenant == "acme"
    assert DegradedServiceError("down", retry_after=-1).retry_after == 0.0


# ----------------------------------------------------------------------
# Deadline
# ----------------------------------------------------------------------
def test_deadline_budget_and_check():
    clock = FakeClock()
    deadline = Deadline.after(1.0, clock=clock)
    assert deadline.remaining() == pytest.approx(1.0)
    assert not deadline.expired
    deadline.check("op")  # within budget: no raise
    clock.advance(1.5)
    assert deadline.expired
    assert deadline.remaining() == 0.0
    with pytest.raises(DeadlineExceededError, match="wal append"):
        deadline.check("wal append")
    with pytest.raises(ValueError):
        Deadline.after(-1.0, clock=clock)


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
def test_retry_recovers_from_transient_errors():
    sleeps = []
    policy = RetryPolicy(attempts=4, base_delay=0.01, jitter=0.0,
                         sleep=sleeps.append)
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        if calls["n"] < 3:
            raise sqlite3.OperationalError("database is locked")
        return "ok"

    assert policy.call(flaky) == "ok"
    assert calls["n"] == 3
    assert policy.retries_performed == 2
    # Exponential schedule without jitter is exact.
    assert sleeps == pytest.approx([0.01, 0.02])


def test_retry_short_circuits_permanent_errors():
    policy = _fast_policy(attempts=5)
    calls = {"n": 0}

    def broken():
        calls["n"] += 1
        raise PermanentStorageError("gone")

    with pytest.raises(PermanentStorageError):
        policy.call(broken)
    assert calls["n"] == 1  # no retries burned on a permanent error


def test_retry_exhaustion_reraises_original_error():
    policy = _fast_policy(attempts=2)
    with pytest.raises(sqlite3.OperationalError, match="locked"):
        policy.call(lambda: (_ for _ in ()).throw(
            sqlite3.OperationalError("database is locked")))


def test_retry_schedule_is_seeded_and_reproducible():
    first = RetryPolicy(attempts=5, seed=42)
    second = RetryPolicy(attempts=5, seed=42)
    other = RetryPolicy(attempts=5, seed=43)
    schedule = [first.delay_for(k) for k in range(4)]
    assert schedule == [second.delay_for(k) for k in range(4)]
    assert schedule != [other.delay_for(k) for k in range(4)]
    # Backoff grows and respects the ceiling even with jitter.
    assert all(delay <= first.max_delay * (1 + first.jitter)
               for delay in schedule)


def test_retry_respects_deadline():
    clock = FakeClock()
    sleeps = []

    def sleeping(seconds):
        sleeps.append(seconds)
        clock.advance(seconds)

    policy = RetryPolicy(attempts=10, base_delay=0.4, jitter=0.0,
                         sleep=sleeping)
    deadline = Deadline.after(1.0, clock=clock)

    def always_locked():
        clock.advance(0.05)
        raise sqlite3.OperationalError("database is locked")

    with pytest.raises(DeadlineExceededError):
        policy.call(always_locked, deadline=deadline, operation="append")
    # Far fewer than 10 attempts fit in the one-second budget.
    assert 1 <= len(sleeps) <= 3
    assert all(s <= 1.0 for s in sleeps)


def test_no_retry_policy_fails_fast():
    policy = RetryPolicy.no_retry()
    calls = {"n": 0}

    def flaky():
        calls["n"] += 1
        raise sqlite3.OperationalError("database is locked")

    with pytest.raises(sqlite3.OperationalError):
        policy.call(flaky)
    assert calls["n"] == 1
    assert policy.describe()["attempts"] == 1


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
def test_breaker_trips_after_consecutive_failures():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout=10.0,
                             clock=clock)
    assert breaker.state == "closed" and breaker.allow()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "closed"  # below threshold
    breaker.record_success()  # success resets the consecutive count
    breaker.record_failure()
    breaker.record_failure()
    breaker.record_failure()
    assert breaker.state == "open"
    assert not breaker.allow()
    assert breaker.retry_after() == pytest.approx(10.0)


def test_breaker_half_open_single_probe_and_recovery():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=5.0,
                             clock=clock)
    breaker.record_failure()
    assert breaker.state == "open"
    clock.advance(5.0)
    assert breaker.state == "half-open"
    assert breaker.allow()        # the probe
    assert not breaker.allow()    # concurrent callers refused
    breaker.record_success()
    assert breaker.state == "closed"
    assert breaker.allow() and breaker.allow()  # closed admits everyone


def test_breaker_failed_probe_reopens():
    clock = FakeClock()
    breaker = CircuitBreaker(failure_threshold=2, reset_timeout=5.0,
                             clock=clock)
    breaker.record_failure()
    breaker.record_failure()
    clock.advance(5.0)
    assert breaker.allow()
    breaker.record_failure()  # probe failed: straight back to open
    assert breaker.state == "open"
    assert breaker.status()["open_count"] == 2
    assert not breaker.allow()


# ----------------------------------------------------------------------
# FaultPlan / FaultInjectingBackend
# ----------------------------------------------------------------------
def test_fault_plan_parse_and_nth_storm():
    plan = FaultPlan.parse("append_ingest:error=locked:nth=2:times=3,"
                           "save_snapshot:error=io:rate=1.0:times=1")
    assert len(plan.specs) == 2
    fires = [plan.next_fault("append_ingest", n) is not None
             for n in range(1, 7)]
    assert fires == [False, True, True, True, False, False]
    assert plan.next_fault("save_snapshot", 1).error == "io"
    assert plan.next_fault("save_snapshot", 2) is None  # times exhausted
    assert plan.total_fired == 4


def test_fault_plan_rate_is_seeded():
    def schedule(seed):
        plan = FaultPlan([FaultSpec(op="append_ingest", rate=0.5, times=0)],
                         seed=seed)
        return [plan.next_fault("append_ingest", n) is not None
                for n in range(1, 41)]

    assert schedule(7) == schedule(7)
    assert any(schedule(7))


def test_fault_spec_validation():
    with pytest.raises(ValueError):
        FaultSpec(op="append_ingest", error="nope", nth=1)
    with pytest.raises(ValueError):
        FaultSpec(op="append_ingest")  # neither nth nor rate
    with pytest.raises(ValueError):
        FaultSpec(op="append_ingest", nth=1, rate=0.5)
    with pytest.raises(ValueError):
        FaultPlan.parse("append_ingest:bogus=1:nth=1")


def test_fault_backend_passthrough_and_injection(backend):
    backend.create_tenant("t", _tdg_config())
    clean = FaultInjectingBackend(backend)  # empty plan: pure pass-through
    assert clean.append_ingest("t", [[1, 2]], DOMAIN) == 1
    assert clean.name == f"fault+{backend.name}"
    assert clean.describe()["faults_fired"] == 0

    plan = FaultPlan.parse("append_ingest:error=locked:nth=1")
    faulty = FaultInjectingBackend(backend, plan)
    with pytest.raises(sqlite3.OperationalError, match="locked"):
        faulty.append_ingest("t", [[3, 4]], DOMAIN)
    # The failed call persisted nothing; the next one succeeds.
    assert faulty.append_ingest("t", [[3, 4]], DOMAIN) == 2
    assert len(backend.pending_ingest("t")) == 2
    assert plan.total_fired == 1


# ----------------------------------------------------------------------
# Chaos: transparent retry, no acknowledged-report loss
# ----------------------------------------------------------------------
def test_nth_write_fault_is_retried_without_loss(backend, tmp_path):
    plan = FaultPlan.parse("append_ingest:error=locked:nth=2")
    faulty = FaultInjectingBackend(backend, plan)
    manager = TenantManager(faulty, default_config=_tdg_config(),
                            retry_policy=_fast_policy())
    for seed in (1, 2, 3):
        receipt = manager.ingest("default", _rows(seed))
        assert receipt["ingested"] == 30
    assert plan.total_fired == 1
    assert manager.retry_policy.retries_performed == 1
    assert manager.resilience_status()["breakers"]["default"][
        "state"] == "closed"

    # A restart over the raw backend answers bitwise-identically to an
    # uninterrupted run over a pristine backend.
    recovered = TenantManager(backend)
    mirror_backend = open_backend("json", str(tmp_path / "mirror"))
    mirror = TenantManager(mirror_backend, default_config=_tdg_config())
    for seed in (1, 2, 3):
        mirror.ingest("default", _rows(seed))
    recovered.refinalize("default")
    mirror.refinalize("default")
    assert (recovered.service("default").query_wire(_workload())["answers"]
            == mirror.service("default").query_wire(_workload())["answers"])
    mirror_backend.close()


def test_io_fault_on_snapshot_is_retried(backend):
    plan = FaultPlan.parse("save_snapshot:error=io:nth=1")
    faulty = FaultInjectingBackend(backend, plan)
    manager = TenantManager(faulty, default_config=_tdg_config(),
                            retry_policy=_fast_policy())
    manager.ingest("default", _rows(1))
    record = manager.save_snapshot("default")
    assert record.version == 1
    assert plan.total_fired == 1
    # The captured tail was pruned despite the first attempt failing.
    assert backend.ingest_log_depth("default") == 0


# ----------------------------------------------------------------------
# Chaos: degraded mode and breaker recovery
# ----------------------------------------------------------------------
def test_locked_storm_degrades_then_recovers(backend):
    clock = FakeClock()
    # 2 attempts per ingest; 6 consecutive failures = 3 failed ingests
    # trip a threshold-3 breaker.  Append #1 (the baseline) is clean.
    plan = FaultPlan.parse("append_ingest:error=locked:nth=2:times=6")
    faulty = FaultInjectingBackend(backend, plan)
    manager = TenantManager(faulty, default_config=_tdg_config(),
                            retry_policy=_fast_policy(attempts=2),
                            breaker_threshold=3, breaker_reset=10.0,
                            clock=clock)
    manager.ingest("default", _rows(0))  # pre-fault baseline
    manager.refinalize("default")
    baseline = manager.service("default").query_wire(_workload())["answers"]

    for _ in range(3):
        with pytest.raises(DegradedServiceError):
            manager.ingest("default", _rows(9))
    status = manager.resilience_status()
    assert status["breakers"]["default"]["state"] == "open"
    assert manager.degraded_tenants() == ["default"]
    ready, document = manager.readiness()
    assert not ready and document["degraded_tenants"] == ["default"]

    # Open breaker: ingest refused immediately, without a backend call.
    appends_before = faulty.call_counts["append_ingest"]
    with pytest.raises(DegradedServiceError) as info:
        manager.ingest("default", _rows(9))
    assert faulty.call_counts["append_ingest"] == appends_before
    assert 0.0 < info.value.retry_after <= 10.0

    # Queries keep answering from the last finalized estimator.
    assert manager.service("default").query_wire(
        _workload())["answers"] == baseline

    # After the reset timeout the half-open probe goes through (the
    # storm is exhausted) and the tenant recovers.
    clock.advance(10.0)
    receipt = manager.ingest("default", _rows(4))
    assert receipt["ingested"] == 30
    assert manager.resilience_status()["breakers"]["default"][
        "state"] == "closed"
    assert manager.readiness()[0]
    # Nothing acknowledged was lost: the log holds exactly the two
    # acknowledged batches.
    assert backend.ingest_log_depth("default") == 2


def test_degradation_is_per_tenant(backend):
    plan = FaultPlan.parse("append_ingest:error=permanent:nth=2:times=100")
    faulty = FaultInjectingBackend(backend, plan)
    manager = TenantManager(faulty, retry_policy=_fast_policy(),
                            breaker_threshold=1, breaker_reset=100.0)
    manager.create_tenant("healthy", _tdg_config())
    manager.create_tenant("sick", _tdg_config(seed=5))
    manager.ingest("healthy", _rows(1))  # append #1: clean
    with pytest.raises(DegradedServiceError):
        manager.ingest("sick", _rows(2))  # append #2: permanent fault
    assert manager.degraded_tenants() == ["sick"]
    # The healthy tenant's breaker is untouched... but the storm is
    # still firing, so its next append degrades it too — faults are
    # per-backend, breakers per-tenant.
    assert manager.resilience_status()["breakers"]["healthy"][
        "state"] == "closed"


@pytest.mark.parametrize("domain_size", [[8], {"a": 1}, 8.7, "8", True, 1])
def test_malformed_ingest_domain_size_leaves_breaker_closed(backend,
                                                            domain_size):
    """A ``domain_size`` that is not an integer >= 2 is refused before
    the write-ahead append: it never counts against the breaker, and a
    good batch is accepted afterwards."""
    manager = TenantManager(backend, default_config=_tdg_config(),
                            retry_policy=_fast_policy(), breaker_threshold=3)
    for _ in range(4):
        with pytest.raises(ValueError, match="domain_size"):
            manager.ingest("default", _rows(0), domain_size)
    assert manager.resilience_status()["breakers"]["default"][
        "state"] == "closed"
    assert backend.ingest_log_depth("default") == 0
    assert manager.ingest("default", _rows(1), DOMAIN)["ingested"] == 30
    assert backend.pending_ingest("default")[0].domain_size == DOMAIN


# ----------------------------------------------------------------------
# Chaos: torn write-ahead append and quarantine
# ----------------------------------------------------------------------
def test_torn_wal_append_is_quarantined_on_restart(tmp_path):
    backend = DirectoryBackend(tmp_path / "store")
    plan = FaultPlan.parse("append_ingest:error=torn:nth=3")
    faulty = FaultInjectingBackend(backend, plan)
    manager = TenantManager(faulty, default_config=_tdg_config(),
                            retry_policy=_fast_policy())
    manager.ingest("default", _rows(1))
    manager.ingest("default", _rows(2))
    with pytest.raises(DegradedServiceError):  # torn: never acknowledged
        manager.ingest("default", _rows(3))

    # Restart over the raw backend: the torn tail is quarantined and
    # recovery replays exactly the acknowledged batches.
    recovered = TenantManager(backend)
    assert recovered.quarantined_tenants() == {}
    torn_files = list((tmp_path / "store").rglob("*.torn"))
    assert len(torn_files) == 1

    mirror_backend = DirectoryBackend(tmp_path / "mirror")
    mirror = TenantManager(mirror_backend, default_config=_tdg_config())
    mirror.ingest("default", _rows(1))
    mirror.ingest("default", _rows(2))
    recovered.refinalize("default")
    mirror.refinalize("default")
    assert (recovered.service("default").query_wire(_workload())["answers"]
            == mirror.service("default").query_wire(_workload())["answers"])
    backend.close()
    mirror_backend.close()


def test_mid_sequence_corruption_refuses_recovery(tmp_path):
    backend = DirectoryBackend(tmp_path / "store")
    manager = TenantManager(backend, default_config=_tdg_config())
    manager.ingest("default", _rows(1))
    manager.ingest("default", _rows(2))
    entry = next((tmp_path / "store").rglob("entry-00000001.json"))
    entry.write_text('{"seq": 1, "rows": [[1,')  # corrupt, NOT the tail
    with pytest.raises(CorruptEntryError):
        backend.pending_ingest("default")
    backend.close()


def test_corrupt_snapshot_quarantines_one_tenant_not_all(backend):
    manager = TenantManager(backend)
    manager.create_tenant("good", _tdg_config())
    manager.create_tenant("bad", _tdg_config(seed=5))
    manager.ingest("good", _rows(1))
    manager.ingest("bad", _rows(2))
    manager.save_snapshot("bad")
    # Corrupt the stored snapshot document out from under the backend.
    document, record = backend.load_snapshot("bad")
    document["estimator"] = {"broken": True}
    document.pop("mechanism", None)
    backend.save_snapshot("bad", document, wal_seq=record.wal_seq)

    restarted = TenantManager(backend)
    assert "bad" in restarted.quarantined_tenants()
    assert restarted.tenant_names() == ["good"]
    # The healthy tenant recovered fully and answers.
    restarted.refinalize("good")
    assert restarted.service("good").query_wire(_workload())["answers"]
    # Requests for the quarantined tenant answer degraded, not a crash.
    with pytest.raises(DegradedServiceError):
        restarted.service("bad")
    doc = restarted.describe_tenant("bad")
    assert doc["state"] == "quarantined"
    assert "recovery failed" in doc["quarantine"]["reason"]
    rows = {row["name"]: row for row in restarted.list_tenants()}
    assert rows["bad"]["state"] == "quarantined"
    assert rows["good"]["state"] == "serving"
    ready, document = restarted.readiness()
    assert not ready and document["quarantined_tenants"] == ["bad"]
    # Deleting the quarantined tenant is the operator's way out.
    restarted.delete_tenant("bad")
    assert restarted.readiness()[0]


def test_retry_recovery_after_repair(backend):
    manager = TenantManager(backend)
    manager.create_tenant("t", _tdg_config())
    manager.ingest("t", _rows(1))
    manager.save_snapshot("t")
    document, record = backend.load_snapshot("t")
    broken = dict(document)
    broken["estimator"] = {"broken": True}
    broken.pop("mechanism", None)
    backend.save_snapshot("t", broken, wal_seq=record.wal_seq)

    restarted = TenantManager(backend)
    assert "t" in restarted.quarantined_tenants()
    with pytest.raises(UnknownTenantError):
        restarted.retry_recovery("absent")
    assert not restarted.retry_recovery("t")  # still broken
    # Repair: write a good snapshot version on top.
    backend.save_snapshot("t", document, wal_seq=record.wal_seq)
    assert restarted.retry_recovery("t")
    assert restarted.quarantined_tenants() == {}
    restarted.refinalize("t")
    assert restarted.service("t").query_wire(_workload())["answers"]


# ----------------------------------------------------------------------
# HTTP surface: 503s, Retry-After, /readyz, shedding, busy timeout
# ----------------------------------------------------------------------
def _http(port, path, payload=None, method=None):
    data = json.dumps(payload).encode() if payload is not None else None
    request = urllib.request.Request(f"http://127.0.0.1:{port}{path}",
                                     data=data, method=method)
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def _http_error(port, path, payload=None, method=None):
    try:
        _http(port, path, payload, method)
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())
    raise AssertionError("expected an HTTP error")


@pytest.fixture()
def chaos_server(tmp_path):
    clock = FakeClock()
    inner = SQLiteBackend(tmp_path / "serving.db")
    plan = FaultPlan.parse("append_ingest:error=permanent:nth=2:times=1")
    faulty = FaultInjectingBackend(inner, plan)
    manager = TenantManager(faulty, default_config=_tdg_config(),
                            retry_policy=_fast_policy(),
                            breaker_threshold=1, breaker_reset=30.0,
                            clock=clock)
    server = build_server(tenant_manager=manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield manager, clock, server.server_address[1]
    server.shutdown()
    server.server_close()
    inner.close()


def test_http_degraded_503_with_retry_after(chaos_server):
    manager, clock, port = chaos_server
    rows = _rows(1)
    assert _http(port, "/ingest", {"rows": rows})["ingested"] == 30
    _http(port, "/refinalize", {})
    status, headers, body = _http_error(port, "/ingest", {"rows": rows})
    assert status == 503
    assert body["code"] == "degraded"
    assert body["tenant"] == "default"
    assert int(headers["Retry-After"]) >= 1

    # Liveness stays 200 and reports the open breaker; readiness flips.
    health = _http(port, "/healthz")
    assert health["status"] == "ok"
    assert health["resilience"]["breakers"]["default"]["state"] == "open"
    assert health["load"]["workers"] >= 1
    status, _, ready_body = _http_error(port, "/readyz")
    assert status == 503 and ready_body["degraded_tenants"] == ["default"]

    # Queries still answer while degraded.
    answers = _http(port, "/query", {"queries": _workload()})["answers"]
    assert len(answers) == 2

    # Past the reset window the probe succeeds (the single-fire fault
    # is exhausted) and readiness recovers.
    clock.advance(30.0)
    assert _http(port, "/ingest", {"rows": rows})["ingested"] == 30
    assert _http(port, "/readyz")["ready"] is True


def test_http_readyz_single_service():
    """Without durable storage /readyz follows the manager's rule: 200
    before the first re-finalize, so a fresh server behind a load
    balancer can take the ingest that warms it; /healthz says whether
    the default tenant is ready to answer."""
    with memory_server(_tdg_config(seed=3, total_users=100)) as (_, server):
        port = server.server_address[1]
        assert _http(port, "/readyz") == {"ready": True,
                                          "degraded_tenants": [],
                                          "quarantined_tenants": []}
        assert _http(port, "/healthz")["ready"] is False
        _http(port, "/ingest", {"rows": _rows(1)})
        _http(port, "/refinalize", {})
        assert _http(port, "/healthz")["ready"] is True
        assert _http(port, "/readyz")["ready"] is True


def test_admission_queue_sheds_with_503(tmp_path):
    import socket

    with memory_server(_tdg_config(seed=3, total_users=100), workers=1,
                       queue_depth=0, handler_timeout=30.0) as (_, server):
        port = server.server_address[1]
        # One idle keep-alive connection occupies the only capacity slot.
        holder = socket.create_connection(("127.0.0.1", port), timeout=10)
        deadline = [None]

        def _wait_busy():
            for _ in range(200):
                if server.load_status()["in_flight"] >= 1:
                    return True
                threading.Event().wait(0.01)
            return False

        assert _wait_busy()
        # The next connection is shed on the listener thread.
        probe = socket.create_connection(("127.0.0.1", port), timeout=10)
        probe.sendall(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
        response = b""
        while b"}" not in response:
            chunk = probe.recv(4096)
            if not chunk:
                break
            response += chunk
        assert b"503" in response.split(b"\r\n", 1)[0]
        assert b"Retry-After" in response
        assert b"overloaded" in response
        probe.close()
        holder.close()
        assert server.load_status()["shed_connections"] >= 1


def test_busy_timeout_configurable_end_to_end(tmp_path):
    backend = open_backend("sqlite", str(tmp_path / "a.db"),
                           busy_timeout_ms=1234)
    assert backend.busy_timeout_ms == 1234
    assert backend._connection.execute(
        "PRAGMA busy_timeout").fetchone()[0] == 1234
    backend.close()
    with pytest.raises(ValueError, match="sqlite"):
        open_backend("json", str(tmp_path / "store"), busy_timeout_ms=10)
    with pytest.raises(ValueError):
        SQLiteBackend(tmp_path / "b.db", busy_timeout_ms=-1)


def test_cli_serve_resilience_flags(tmp_path, capsys):
    from repro.cli import main
    code = main(["serve", "--backend", "sqlite",
                 "--store", str(tmp_path / "serve.db"),
                 "--busy-timeout", "500", "--queue-depth", "4",
                 "--retry-attempts", "2", "--op-deadline", "5",
                 "--breaker-threshold", "2", "--port", "0",
                 "--max-requests", "0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "/readyz" in out


def test_cli_busy_timeout_requires_sqlite(tmp_path, capsys):
    from repro.cli import main
    assert main(["serve", "--busy-timeout", "10", "--port", "0",
                 "--max-requests", "0"]) == 2
    assert "sqlite" in capsys.readouterr().err
    assert main(["serve", "--backend", "json",
                 "--store", str(tmp_path / "s"),
                 "--busy-timeout", "10", "--port", "0",
                 "--max-requests", "0"]) == 2

