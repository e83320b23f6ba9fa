"""The process-local storage backend behind ``repro serve`` without
``--backend``.

:class:`~repro.storage.MemoryBackend` honours the tenant contract of
the durable backends, keeps no ingest rows (its log is a sequence
counter) and refuses snapshots with
:class:`~repro.storage.NotDurableError`.  A
:class:`~repro.serving.TenantManager` over it is the only storage-less
server, so the CLI tests here pin its startup output too.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cli import main
from repro.serving import TenantManager
from repro.storage import (DEFAULT_TENANT, MemoryBackend, NotDurableError,
                           SQLiteBackend, StorageError, TenantExistsError,
                           UnknownTenantError)

CONFIG = {"mechanism": "TDG", "epsilon": 1.0, "seed": 5, "domain_size": 8}


def _rows(seed: int, n: int = 40) -> np.ndarray:
    return np.random.default_rng(seed).integers(0, 8, size=(n, 2))


def test_tenant_contract():
    backend = MemoryBackend()
    assert backend.list_tenants() == []
    record = backend.create_tenant("b", {"mechanism": "TDG"})
    backend.create_tenant("a", {})
    assert record.name == "b" and record.config == {"mechanism": "TDG"}
    assert record.created_at
    assert [r.name for r in backend.list_tenants()] == ["a", "b"]
    assert backend.get_tenant("b") == record and backend.has_tenant("a")
    with pytest.raises(TenantExistsError):
        backend.create_tenant("a", {})
    with pytest.raises(ValueError):
        backend.create_tenant("bad/name", {})
    backend.delete_tenant("a")
    assert not backend.has_tenant("a")
    for operation in (lambda: backend.get_tenant("a"),
                      lambda: backend.delete_tenant("a"),
                      lambda: backend.append_ingest("a", [[0]]),
                      lambda: backend.list_snapshots("a")):
        with pytest.raises(UnknownTenantError):
            operation()
    assert backend.describe() == {"backend": "memory",
                                  "location": ":memory:", "tenants": 1,
                                  "pending_ingest_log": 0}


def test_ingest_log_keeps_no_rows():
    backend = MemoryBackend()
    backend.create_tenant(DEFAULT_TENANT, {})
    seqs = [backend.append_ingest(DEFAULT_TENANT, [[1, 2], [3, 4]], 8)
            for _ in range(1_000)]
    assert seqs == list(range(1, 1_001))
    assert backend.pending_ingest(DEFAULT_TENANT) == []
    assert backend.ingest_log_depth(DEFAULT_TENANT) == 0
    assert backend.ingest_log_depth() == 0
    assert backend.last_ingest_seq(DEFAULT_TENANT) == 1_000
    # Prunes and rollbacks never move the sequence backwards.
    assert backend.prune_ingest(DEFAULT_TENANT, 1_000) == 0
    backend.discard_ingest(DEFAULT_TENANT, 1_000)
    assert backend.append_ingest(DEFAULT_TENANT, [[0, 0]]) == 1_001


def test_snapshots_are_not_durable():
    backend = MemoryBackend()
    backend.create_tenant(DEFAULT_TENANT, {})
    with pytest.raises(NotDurableError):
        backend.save_snapshot(DEFAULT_TENANT, {"payload": 1})
    assert issubclass(NotDurableError, StorageError)
    with pytest.raises(FileNotFoundError):
        backend.load_snapshot(DEFAULT_TENANT)
    assert backend.list_snapshots() == []
    assert backend.list_snapshots(DEFAULT_TENANT) == []
    assert backend.latest_snapshot_version(DEFAULT_TENANT) is None
    assert backend.prune_snapshots(DEFAULT_TENANT, 1) == 0


def test_not_offered_by_the_offline_commands(tmp_path):
    """The offline commands take a SQLite store and no backend choice."""
    with pytest.raises(SystemExit) as exited:
        main(["tenants", "list", "--backend", "memory",
              "--store", str(tmp_path / "s.db")])
    assert exited.value.code == 2
    assert MemoryBackend.name == "memory"


def test_tenant_manager_over_memory():
    manager = TenantManager(MemoryBackend(), default_config=CONFIG)
    assert manager.readiness()[0]  # ready before the first re-finalize
    assert not manager.service().is_ready
    receipt = manager.ingest(DEFAULT_TENANT, _rows(1))
    assert receipt["tenant"] == DEFAULT_TENANT and receipt["wal_seq"] == 1
    assert manager.ingest(DEFAULT_TENANT, _rows(2))["wal_seq"] == 2
    manager.refinalize(DEFAULT_TENANT)
    assert manager.service().is_ready
    with pytest.raises(NotDurableError):
        manager.save_snapshot(DEFAULT_TENANT)
    assert manager.storage_status()["pending_ingest_log"] == 0
    manager.create_tenant("other", CONFIG)
    manager.delete_tenant("other")
    assert manager.tenant_names() == [DEFAULT_TENANT]


def test_memory_answers_match_a_durable_tenant(tmp_path):
    """The same batches answer bitwise alike over memory and SQLite."""
    memory = TenantManager(MemoryBackend(), default_config=CONFIG)
    durable = TenantManager(SQLiteBackend(tmp_path / "store.db"),
                            default_config=CONFIG)
    for manager in (memory, durable):
        for seed in (1, 2):
            manager.ingest(DEFAULT_TENANT, _rows(seed))
        manager.refinalize(DEFAULT_TENANT)
    wire = [{"predicates": [[0, 1, 5]]},
            {"predicates": [[0, 0, 3], [1, 2, 7]]}]
    assert (memory.service().query_wire(wire)
            == durable.service().query_wire(wire))


def test_cli_serve_without_backend_is_memory_backed(capsys):
    assert main(["serve", "--mechanism", "CALM", "--port", "0",
                 "--max-requests", "0"]) == 0
    output = capsys.readouterr().out
    assert "1 tenant(s) from memory::memory:" in output
    assert "default tenant: serving CALM" in output
    assert "ready=False" in output
    assert "POST|GET /snapshot" in output


def test_cli_serve_bootstrap_dataset_warms_the_default_tenant(capsys):
    assert main(["serve", "--bootstrap-dataset", "normal", "--n-users",
                 "2000", "--n-attributes", "3", "--domain-size", "8",
                 "--port", "0", "--max-requests", "0"]) == 0
    output = capsys.readouterr().out
    assert "default tenant: serving HDG" in output
    assert "ready=True" in output
