"""Tests for multi-tenant serving (repro.serving.tenants + HTTP).

Covers the :class:`TenantManager` registry (create/describe/delete,
quotas, write-ahead-log coupling, snapshot + log pruning), the HTTP
tenant routing (``tenant`` in the body or ``?tenant=`` on the URL,
default-tenant fallback that keeps the single-tenant wire format
working), the ``/tenants`` admin surface, the ``/healthz`` storage
section, and the isolation property: one tenant's re-finalize never
blocks another tenant's queries.
"""

from __future__ import annotations

import json
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.cli import main
from repro.serving import (QueryService, QuotaExceededError, TenantManager,
                           build_server)
from repro.serving.tenants import create_tenant_record
from repro.storage import (BACKENDS, DEFAULT_TENANT, DirectoryBackend,
                           SQLiteBackend, TenantExistsError,
                           UnknownTenantError)

DOMAIN = 8


@pytest.fixture(params=sorted(BACKENDS))
def backend(request, tmp_path):
    if request.param == "json":
        built = DirectoryBackend(tmp_path / "store")
    else:
        built = SQLiteBackend(tmp_path / "store.db")
    yield built
    built.close()


def _rows(seed: int, n: int = 40) -> list:
    rng = np.random.default_rng(seed)
    return rng.integers(0, DOMAIN, size=(n, 2)).tolist()


def _tdg_config(**overrides) -> dict:
    config = {"mechanism": "TDG", "epsilon": 1.0, "seed": 11,
              "domain_size": DOMAIN}
    config.update(overrides)
    return config


# ----------------------------------------------------------------------
# TenantManager registry
# ----------------------------------------------------------------------
def test_manager_create_list_delete(backend):
    manager = TenantManager(backend)
    manager.create_tenant("a", _tdg_config())
    manager.create_tenant("b", _tdg_config(mechanism="HDG"))
    assert manager.tenant_names() == ["a", "b"]
    assert manager.service("b").mechanism_name == "HDG"
    rows = manager.list_tenants()
    assert [row["name"] for row in rows] == ["a", "b"]
    manager.delete_tenant("a")
    assert manager.tenant_names() == ["b"]
    with pytest.raises(UnknownTenantError):
        manager.service("a")


def test_manager_default_tenant_from_config(backend):
    manager = TenantManager(backend, default_config=_tdg_config())
    assert manager.tenant_names() == ["default"]
    # A second manager over the same backend recovers, not re-creates.
    again = TenantManager(backend, default_config=_tdg_config())
    assert again.tenant_names() == ["default"]


def test_manager_rejects_duplicate_and_bad_configs(backend):
    manager = TenantManager(backend)
    manager.create_tenant("a", _tdg_config())
    with pytest.raises(TenantExistsError):
        manager.create_tenant("a", _tdg_config())
    # A bad config must not leave a half-created tenant behind.
    with pytest.raises(ValueError):
        manager.create_tenant("bad", _tdg_config(mechanism="nope"))
    assert not backend.has_tenant("bad")


BAD_CONFIG_VALUES = [
    ("quota", "lots"), ("quota", -1), ("quota", 1.5), ("keep_last", 0),
    ("keep_last", True), ("total_users", 0), ("total_users", "100"),
    ("domain_size", 1), ("domain_size", 8.7), ("ingest_workers", 0),
    ("ingest_workers", 1_000_000), ("ingest_workers", [2])]


@pytest.mark.parametrize("key, value", BAD_CONFIG_VALUES)
def test_manager_refuses_bad_integer_configs(backend, key, value):
    """A tenant config's integer keys are checked before the record is
    written, for a created tenant and for the default tenant.  No
    worker process is started: the service is never built."""
    manager = TenantManager(backend)
    with pytest.raises(ValueError, match=key):
        manager.create_tenant("bad", _tdg_config(**{key: value}))
    assert not backend.has_tenant("bad")
    with pytest.raises(ValueError, match=key):
        TenantManager(backend, default_config=_tdg_config(**{key: value}))
    assert backend.list_tenants() == []


@pytest.mark.parametrize("key, value", BAD_CONFIG_VALUES)
def test_recovery_quarantines_bad_stored_configs(backend, key, value):
    """A record stored without the check (written directly, or before
    the check existed) is checked when it recovers.  Nothing ingests,
    so no worker process starts."""
    backend.create_tenant("bad", _tdg_config(**{key: value}))
    backend.create_tenant("good", _tdg_config())
    manager = TenantManager(backend)
    assert manager.tenant_names() == ["good"]
    error = manager.quarantined_tenants()["bad"]["error"]
    assert error.startswith("ValueError") and key in error


def test_recovery_bounds_a_snapshot_recipes_ingest_workers(backend):
    """A stream-tier snapshot's own ``ingest_workers`` is bounded as a
    config's is.  The tier never started (no schema), so restoring it
    starts no worker process either way."""
    service = QueryService("TDG", 1.0, seed=11, domain_size=DOMAIN,
                           ingest_workers=2)
    for workers, quarantined in ((1_000_000, True), (0, True),
                                 (64, False)):
        document = service.state_dict()
        assert "schema" not in document["distributed"]
        document["distributed"]["ingest_workers"] = workers
        name = f"w{workers}"
        backend.create_tenant(name, _tdg_config())
        backend.save_snapshot(name, document)
    manager = TenantManager(backend)
    assert sorted(manager.quarantined_tenants()) == ["w0", "w1000000"]
    assert all("ingest_workers" in info["error"]
               for info in manager.quarantined_tenants().values())
    assert manager.service("w64").ingest_workers == 64
    manager.close()


def test_manager_accepts_integer_configs_at_their_bounds(backend):
    manager = TenantManager(backend)
    manager.create_tenant("a", _tdg_config(quota=0, keep_last=1,
                                           total_users=1, domain_size=2))
    assert backend.get_tenant("a").config["keep_last"] == 1


def test_manager_ingest_appends_wal_before_apply(backend):
    manager = TenantManager(backend)
    manager.create_tenant("a", _tdg_config())
    receipt = manager.ingest("a", _rows(0))
    assert receipt["tenant"] == "a"
    assert receipt["wal_seq"] == 1
    assert backend.pending_ingest("a")[0].rows.tolist() == _rows(0)


def test_manager_failed_apply_rolls_back_wal_entry(backend, monkeypatch):
    manager = TenantManager(backend)
    manager.create_tenant("a", _tdg_config())
    manager.ingest("a", _rows(0))
    # The in-memory apply fails after the append (a dead worker, say);
    # the entry must be discarded so recovery cannot replay it.
    collector = manager.service("a")._ingestor

    def fail(batch):
        raise RuntimeError("apply failed")

    monkeypatch.setattr(collector, "submit", fail)
    with pytest.raises(RuntimeError, match="apply failed"):
        manager.ingest("a", _rows(1))
    assert [e.seq for e in backend.pending_ingest("a")] == [1]
    assert backend.last_ingest_seq("a") == 2


def test_manager_rejects_malformed_batches_before_wal(backend):
    manager = TenantManager(backend)
    manager.create_tenant("a", _tdg_config())
    with pytest.raises(ValueError, match="2-D"):
        manager.ingest("a", [1, 2, 3])
    assert backend.pending_ingest("a") == []


def test_manager_quota_enforced(backend):
    manager = TenantManager(backend)
    manager.create_tenant("a", _tdg_config(quota=60))
    manager.ingest("a", _rows(0, 40))
    with pytest.raises(QuotaExceededError):
        manager.ingest("a", _rows(1, 40))
    # The refused batch never reached the write-ahead log.
    assert [e.seq for e in backend.pending_ingest("a")] == [1]
    manager.ingest("a", _rows(1, 20))  # exactly at the quota is fine


def test_manager_snapshot_prunes_captured_log(backend):
    manager = TenantManager(backend)
    manager.create_tenant("a", _tdg_config())
    manager.ingest("a", _rows(0))
    manager.ingest("a", _rows(1))
    record = manager.save_snapshot("a")
    assert record.wal_seq == 2
    assert backend.pending_ingest("a") == []
    # New ingest after the snapshot continues the sequence.
    assert manager.ingest("a", _rows(2))["wal_seq"] == 3


def test_manager_keep_last_retention(backend):
    manager = TenantManager(backend)
    manager.create_tenant("a", _tdg_config(keep_last=2))
    manager.ingest("a", _rows(0))
    for _ in range(3):
        manager.save_snapshot("a")
    assert [r.version for r in backend.list_snapshots("a")] == [2, 3]


def test_manager_describe_tenant(backend):
    manager = TenantManager(backend)
    manager.create_tenant("a", _tdg_config(quota=100))
    manager.ingest("a", _rows(0, 40))
    manager.refinalize("a")
    description = manager.describe_tenant("a")
    assert description["name"] == "a"
    assert description["quota"] == 100
    assert description["quota_remaining"] == 60
    assert description["pending_ingest_log"] == 1
    assert description["status"]["ready"]
    assert json.dumps(description)  # JSON-shaped for the admin surface


def test_manager_recovers_tenants_at_construction(backend):
    first = TenantManager(backend)
    first.create_tenant("a", _tdg_config())
    first.ingest("a", _rows(0))
    first.refinalize("a")
    expected = first.service("a").query_wire([[[0, 0, 3], [1, 2, 5]]])["answers"]
    del first

    second = TenantManager(backend)
    assert second.tenant_names() == ["a"]
    service = second.service("a")
    assert service.reports_ingested == 40
    service.refinalize()
    assert service.query_wire([[[0, 0, 3], [1, 2, 5]]])["answers"] == expected


def test_manager_refinalize_isolated_per_tenant(backend):
    """One tenant's re-finalize must not block another's queries."""
    manager = TenantManager(backend)
    manager.create_tenant("slow", _tdg_config())
    manager.create_tenant("fast", _tdg_config(seed=3))
    manager.ingest("slow", _rows(0))
    manager.ingest("fast", _rows(1))
    manager.refinalize("fast")

    slow_service = manager.service("slow")
    release = threading.Event()
    original = slow_service._refinalize

    def stalled_refinalize():
        release.wait(timeout=10.0)
        original()

    slow_service._refinalize = stalled_refinalize
    slow_thread = threading.Thread(target=manager.refinalize,
                                   args=("slow",))
    slow_thread.start()
    try:
        # While "slow" is stuck mid-refinalize, "fast" answers freely.
        start = time.monotonic()
        answers = manager.service("fast").query_wire([[[0, 0, 3]]])["answers"]
        elapsed = time.monotonic() - start
        assert answers is not None
        assert elapsed < 5.0
        # ...and "fast" can even ingest + snapshot concurrently.
        manager.ingest("fast", _rows(2))
        manager.save_snapshot("fast")
    finally:
        release.set()
        slow_thread.join(timeout=10.0)
    assert not slow_thread.is_alive()
    assert manager.service("slow").is_ready


def test_manager_storage_status(backend):
    manager = TenantManager(backend, default_config=_tdg_config())
    manager.ingest("default", _rows(0))
    status = manager.storage_status()
    assert status["backend"] == backend.name
    assert status["tenants"] == 1
    assert status["pending_ingest_log"] == 1


# ----------------------------------------------------------------------
# HTTP: tenant routing, /tenants surface, healthz storage section
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
        return error.code, json.loads(error.read())
    raise AssertionError("expected an HTTP error")


@pytest.fixture()
def mt_server(tmp_path):
    backend = SQLiteBackend(tmp_path / "serving.db")
    manager = TenantManager(backend, default_config=_tdg_config())
    server = build_server(tenant_manager=manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield manager, server.server_address[1]
    server.shutdown()
    server.server_close()
    backend.close()


def test_http_tenants_round_trip(mt_server):
    _, port = mt_server
    created = _http(port, "/tenants", {"name": "acme",
                                       "config": _tdg_config(seed=5)})
    assert created["name"] == "acme"
    listing = _http(port, "/tenants")
    assert {row["name"] for row in listing["tenants"]} == {"acme", "default"}
    detail = _http(port, "/tenants/acme")
    assert detail["config"]["seed"] == 5
    assert _http(port, "/tenants/acme", method="DELETE") == {
        "deleted": "acme"}
    assert _http_error(port, "/tenants/acme")[0] == 404


def test_http_duplicate_tenant_conflicts(mt_server):
    _, port = mt_server
    status, body = _http_error(port, "/tenants",
                               {"name": "default", "config": {}})
    assert status == 409
    assert body["code"] == "conflict"


def test_http_interleaved_two_tenant_serving(mt_server):
    """Two tenants ingest and query interleaved without crosstalk."""
    _, port = mt_server
    _http(port, "/tenants", {"name": "acme", "config": _tdg_config(seed=5)})
    for seed in (0, 1):
        _http(port, "/ingest", {"rows": _rows(seed)})  # default tenant
        _http(port, "/ingest", {"tenant": "acme", "rows": _rows(seed + 10)})
    _http(port, "/refinalize", {})
    _http(port, "/refinalize", {"tenant": "acme"})
    workload = [[[0, 0, 3], [1, 2, 5]]]
    default_answers = _http(port, "/query", {"queries": workload})["answers"]
    acme_answers = _http(port, "/query", {"tenant": "acme",
                                          "queries": workload})["answers"]
    # Different seeds and different reports: distinct estimates.
    assert default_answers != acme_answers
    health = _http(port, "/healthz")
    assert health["reports_ingested"] == 80  # default tenant's status
    assert health["storage"]["backend"] == "sqlite"
    assert health["storage"]["tenants"] == 2
    assert health["storage"]["pending_ingest_log"] == 4
    # The ?tenant= query-parameter form routes GETs too.
    acme_health = _http(port, f"/healthz?tenant=acme")
    assert acme_health["tenant"] == "acme"


def test_http_single_tenant_wire_format_unchanged(mt_server):
    """Requests that never mention tenants behave exactly like the
    single-service server: ingest -> refinalize -> query -> snapshot."""
    _, port = mt_server
    _http(port, "/ingest", {"rows": _rows(0)})
    _http(port, "/refinalize", {})
    answered = _http(port, "/query", {"queries": [[[0, 0, 3]]]})
    assert "answers" in answered and answered["count"] == 1
    written = _http(port, "/snapshot", {})
    assert written["version"] == 1
    listing = _http(port, "/snapshot")
    assert listing["versions"] == [1]
    assert listing["snapshots"][0]["tenant"] == "default"


def test_http_quota_maps_to_429(mt_server):
    _, port = mt_server
    _http(port, "/tenants", {"name": "tiny",
                             "config": _tdg_config(quota=10)})
    status, body = _http_error(port, "/ingest",
                               {"tenant": "tiny", "rows": _rows(0, 40)})
    assert status == 429
    assert body["code"] == "quota-exceeded"


def test_http_unknown_tenant_maps_to_404(mt_server):
    _, port = mt_server
    for path, payload in (("/ingest", {"tenant": "ghost",
                                       "rows": _rows(0)}),
                          ("/query", {"tenant": "ghost",
                                      "queries": [[[0, 0, 3]]]}),
                          ("/refinalize", {"tenant": "ghost"}),
                          ("/snapshot", {"tenant": "ghost"})):
        status, body = _http_error(port, path, payload)
        assert status == 404, path
        assert body["code"] == "unknown-tenant", path


def test_http_snapshot_restart_round_trip(tmp_path):
    """Snapshots written over HTTP recover on the next server start."""
    db = tmp_path / "serving.db"
    with SQLiteBackend(db) as backend:
        manager = TenantManager(backend, default_config=_tdg_config())
        manager.ingest("default", _rows(0))
        manager.refinalize("default")
        expected = manager.service("default").query_wire([[[0, 0, 3]]])["answers"]
        manager.save_snapshot("default")
    with SQLiteBackend(db) as backend:
        manager = TenantManager(backend)
        answers = manager.service("default").query_wire([[[0, 0, 3]]])["answers"]
        assert answers == expected


def test_manager_adopts_legacy_root_level_snapshots(tmp_path):
    """Root-level snapshot files with no tenants.json (what ``repro
    snapshot create`` writes) recover as the default tenant — they are
    not shadowed by a fresh service built from the default config."""
    saved = QueryService("HDG", 1.0, seed=3, domain_size=DOMAIN)
    saved.ingest(_rows(0, n=400))
    saved.refinalize()
    saved.ingest(_rows(1))  # pending reports travel in the snapshot
    store = tmp_path / "legacy"
    store.mkdir()
    (store / "snapshot-000001.json").write_text(
        json.dumps(saved.state_dict()))
    assert not (store / "tenants.json").exists()

    manager = TenantManager(DirectoryBackend(store),
                            default_config=_tdg_config())
    adopted = manager.service("default")
    assert adopted.mechanism_name == "HDG"
    assert adopted.reports_ingested == saved.reports_ingested == 440
    wire = [[[0, 0, 3]], [[1, 2, 6]], [[0, 1, 5], [1, 0, 2]]]
    assert json.dumps(adopted.query_wire(wire)) == json.dumps(
        saved.query_wire(wire))
    # Same next batch on both: still bitwise (collector state restored).
    manager.ingest("default", _rows(2))
    manager.refinalize("default")
    saved.ingest(_rows(2))
    saved.refinalize()
    assert json.dumps(adopted.query_wire(wire)) == json.dumps(
        saved.query_wire(wire))

    server = build_server(tenant_manager=manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        assert _http(port, "/snapshot", {})["version"] == 2
        assert _http(port, "/snapshot")["versions"] == [1, 2]
    finally:
        server.shutdown()
        server.server_close()


def test_http_bad_integer_fields_are_400(mt_server):
    manager, port = mt_server
    status, body = _http_error(port, "/tenants", {
        "name": "acme", "config": _tdg_config(quota="lots")})
    assert status == 400 and "quota" in body["error"]
    status, body = _http_error(port, "/ingest", {"rows": _rows(0),
                                                 "domain_size": 8.7})
    assert status == 400 and "domain_size" in body["error"]
    assert manager.tenant_names() == ["default"]


def test_hdg_granularities_that_do_not_nest_are_400(mt_server, tmp_path):
    """HDG's Phase 2 needs g1 to be a multiple of g2.  A config without
    it is refused when the tenant is created, before any report is
    accepted, instead of at every re-finalize."""
    manager, port = mt_server
    config = {"mechanism": "HDG", "epsilon": 1.0, "seed": 3,
              "domain_size": 48,
              "mechanism_kwargs": {"granularities": [12, 8]}}
    status, body = _http_error(port, "/tenants",
                               {"name": "acme", "config": config})
    assert status == 400 and "multiple of g2" in body["error"]
    assert manager.tenant_names() == ["default"]
    with SQLiteBackend(tmp_path / "direct.db") as backend:
        with pytest.raises(ValueError, match="multiple of g2"):
            create_tenant_record(backend, "acme", config)
        assert backend.list_tenants() == []
        # Nested granularities, or Phase 2 off, are accepted.
        for kwargs in ({"granularities": [16, 8]},
                       {"granularities": [12, 8], "postprocess": False}):
            _, service = create_tenant_record(
                backend, f"g{len(backend.list_tenants())}",
                {**config, "mechanism_kwargs": kwargs})
            service.close()


BAD_BATCHES = [
    ({"rows": [[0, 0, 8]]}, "domain_size"),     # a value >= c
    ({"rows": [[0, -1, 0]]}, "domain_size"),    # a negative value
    ({"rows": [[0, 0]]}, "d=2"),                # the wrong width
    ({"rows": [[0, 0, 1]], "domain_size": 16}, "c=16"),
]


@pytest.mark.parametrize("payload, match", BAD_BATCHES)
@pytest.mark.parametrize("kind", sorted(BACKENDS))
def test_http_bad_batch_is_400_before_the_log(kind, payload, match,
                                              tmp_path):
    """A batch the tenant's schema refuses answers 400 without any
    backend call: nothing is appended, discarded or sequenced."""
    from repro.resilience import FaultInjectingBackend

    inner = (DirectoryBackend(tmp_path / "store") if kind == "json"
             else SQLiteBackend(tmp_path / "store.db"))
    backend = FaultInjectingBackend(inner)
    manager = TenantManager(backend, default_config=_tdg_config())
    server = build_server(tenant_manager=manager)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        port = server.server_address[1]
        rng = np.random.default_rng(1)
        pinned = rng.integers(0, DOMAIN, size=(20, 3)).tolist()
        assert _http(port, "/ingest", {"rows": pinned})["wal_seq"] == 1
        calls = dict(backend.call_counts)
        status, body = _http_error(port, "/ingest", payload)
        assert status == 400 and match in body["error"]
        assert backend.call_counts == calls
        assert inner.last_ingest_seq("default") == 1
        assert [entry.seq for entry in inner.pending_ingest("default")] \
            == [1]
        assert manager.service("default").reports_ingested == 20
    finally:
        server.shutdown()
        server.server_close()
        inner.close()


# ----------------------------------------------------------------------
# CLI smoke: tenants verb against a real backend
# ----------------------------------------------------------------------
def test_cli_tenants_lifecycle(tmp_path, capsys):
    db = str(tmp_path / "repro.db")
    assert main(["tenants", "create", "--backend", "sqlite", "--store", db,
                 "--name", "acme", "--mechanism", "MSW", "--quota", "1000",
                 "--domain-size", str(DOMAIN)]) == 0
    assert "created tenant 'acme'" in capsys.readouterr().out
    assert main(["tenants", "list", "--backend", "sqlite",
                 "--store", db]) == 0
    out = capsys.readouterr().out
    assert "acme" in out and "MSW" in out
    assert main(["tenants", "inspect", "--backend", "sqlite", "--store", db,
                 "--name", "acme"]) == 0
    assert "'quota': 1000" in capsys.readouterr().out
    assert main(["tenants", "create", "--backend", "sqlite", "--store", db,
                 "--name", "acme", "--mechanism", "TDG"]) == 2
    capsys.readouterr()
    assert main(["tenants", "delete", "--backend", "sqlite", "--store", db,
                 "--name", "acme"]) == 0
    assert "deleted tenant 'acme'" in capsys.readouterr().out


def test_cli_tenants_create_refuses_bad_integer_configs(tmp_path, capsys):
    db = str(tmp_path / "repro.db")
    for flags in (["--quota", "-1"], ["--keep-last", "0"]):
        assert main(["tenants", "create", "--backend", "sqlite", "--store",
                     db, "--name", "acme", *flags]) == 2
        assert flags[0][2:].replace("-", "_") in capsys.readouterr().err
    with SQLiteBackend(db) as backend:
        assert backend.list_tenants() == []


#: Bad tenant configs every creation route can express, with the
#: ``repro tenants create`` flags that spell each one.
BAD_CREATE_CONFIGS = [
    ({"quota": -1}, ["--quota", "-1"], "quota"),
    ({"keep_last": 0}, ["--keep-last", "0"], "keep_last"),
    ({"total_users": 0}, ["--total-users", "0"], "total_users"),
    ({"domain_size": 1}, ["--domain-size", "1"], "domain_size"),
    ({"ingest_workers": 1_000_000}, ["--ingest-workers", "1000000"],
     "ingest_workers"),
    ({"epsilon": -1.0}, ["--epsilon=-1"], "epsilon"),
]


@pytest.mark.parametrize("bad, flags, key", BAD_CREATE_CONFIGS)
def test_every_tenant_creation_route_refuses_a_bad_config(tmp_path, capsys,
                                                          bad, flags, key):
    """``repro tenants create``, ``POST /tenants``,
    ``TenantManager.create_tenant`` and the manager's adoption of
    default-tenant snapshots write a tenant record through one
    function: each refuses the same bad configs and persists nothing.
    No worker process starts: nothing is ingested."""
    db = str(tmp_path / "repro.db")
    assert main(["tenants", "create", "--backend", "sqlite", "--store", db,
                 "--name", "acme", *flags]) == 2
    assert key in capsys.readouterr().err
    with SQLiteBackend(db) as backend:
        manager = TenantManager(backend)
        with pytest.raises(ValueError, match=key):
            manager.create_tenant("acme", _tdg_config(**bad))
        server = build_server(tenant_manager=manager)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            status, body = _http_error(server.server_address[1], "/tenants",
                                       {"name": "acme",
                                        "config": _tdg_config(**bad)})
        finally:
            server.shutdown()
            server.server_close()
        assert status == 400 and key in body["error"]
        assert backend.list_tenants() == [] and manager.tenant_names() == []
    store = DirectoryBackend(tmp_path / "adopted")
    store.save_snapshot(DEFAULT_TENANT, QueryService(
        "TDG", 1.0, seed=11, domain_size=DOMAIN).state_dict())
    with pytest.raises(ValueError, match=key):
        TenantManager(store, default_config=_tdg_config(**bad))
    assert store.list_tenants() == []


def test_cli_serve_multi_tenant_smoke(tmp_path, capsys):
    db = str(tmp_path / "repro.db")
    assert main(["serve", "--backend", "sqlite", "--store", db,
                 "--port", "0", "--max-requests", "0",
                 "--domain-size", str(DOMAIN)]) == 0
    out = capsys.readouterr().out
    assert "tenant(s)" in out and "/tenants" in out


def test_cli_serve_backend_requires_store(capsys):
    assert main(["serve", "--backend", "sqlite", "--port", "0",
                 "--max-requests", "0"]) == 2
    assert "--store" in capsys.readouterr().err
