"""Crash-recovery tests: the write-ahead ingest log, pinned bitwise.

The scenario: a serving process ingests a batch, snapshots, ingests
more batches, and dies *mid-ingest* — after a batch's write-ahead-log
append became durable but before the in-memory apply / finalize
happened.  A restarted process recovers the tenant from the newest
snapshot plus the pending log tail, and from then on its answers must
be **bitwise identical** to a process that never crashed.

The property is pinned for TDG, HDG and MSW: recovery restores the
collector's accumulators (grid support counts, or MSW's per-attribute
Square Wave report-bucket counts) and its RNG stream, so the replay
re-draws the same randomness.

One test also kills a real ``repro serve`` process with SIGKILL
between the WAL append and the finalize, then recovers from the
SQLite file it left behind.

The ``chaos``-marked tests extend the scenario to the distributed
ingest tier: SIGKILL one *collector worker* mid-ingest.  The tier
fails the in-flight batch fast (so the manager discards its
already-durable WAL entry — the log never holds a batch the tier only
partially absorbed), and a restarted process recovers from snapshot +
WAL replay bitwise, on a new SQLite store and one imported from a
JSON store (``tests/store_helpers.py``).
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import numpy as np
import pytest

from repro.serving import TenantManager
from repro.storage import SQLiteBackend
from store_helpers import STORE_KINDS, open_store

DOMAIN = 8

#: (mechanism, service config) cases the recovery property is pinned
#: for: two grid mechanisms and MSW, whose Phase 2 is EM.
CASES = {
    "TDG": {"mechanism": "TDG", "epsilon": 1.0, "seed": 13,
            "domain_size": DOMAIN},
    "HDG": {"mechanism": "HDG", "epsilon": 1.0, "seed": 13,
            "domain_size": DOMAIN},
    "MSW": {"mechanism": "MSW", "epsilon": 1.0, "seed": 13,
            "domain_size": DOMAIN},
}

#: A batch of two wire workloads: one 2-dim range query, then two
#: 1-dim range queries.
WORKLOAD = [
    [[[0, 0, 3], [1, 2, 5]]],
    [[[0, 1, 6]], [[1, 0, 2]]],
]


def _rows(seed: int, n: int = 50) -> list:
    rng = np.random.default_rng(seed)
    return rng.integers(0, DOMAIN, size=(n, 2)).tolist()


def _answers(service) -> list:
    return service.query_wire_batch(WORKLOAD)["workloads"]


@pytest.mark.parametrize("mechanism", sorted(CASES))
@pytest.mark.parametrize("kind", STORE_KINDS)
def test_crash_mid_ingest_recovers_bitwise(kind, mechanism, tmp_path):
    config = CASES[mechanism]

    # Reference: an uninterrupted run.
    reference_backend = open_store(kind, tmp_path, "ref")
    reference = TenantManager(reference_backend, default_config=config)
    reference.ingest("default", _rows(0))
    reference.save_snapshot("default")
    reference.ingest("default", _rows(1))
    reference.ingest("default", _rows(2))
    reference.refinalize("default")
    expected = _answers(reference.service("default"))
    reference_backend.close()

    # Crashed: same sequence, but the process dies mid-ingest — the
    # last two batches' WAL appends are durable, the apply/finalize
    # never ran (simulated by appending directly to the backend).
    backend = open_store(kind, tmp_path, "crash")
    crashed = TenantManager(backend, default_config=config)
    crashed.ingest("default", _rows(0))
    crashed.save_snapshot("default")
    backend.append_ingest("default", _rows(1), DOMAIN)
    backend.append_ingest("default", _rows(2), DOMAIN)
    del crashed  # the process is gone; only the backend's files remain
    backend.close()

    # Restart: recovery restores the snapshot and replays the tail.
    backend = open_store(kind, tmp_path, "crash")
    recovered = TenantManager(backend)
    service = recovered.service("default")
    assert service.reports_ingested == 150
    recovered.refinalize("default")
    assert _answers(service) == expected

    # Recovery is idempotent: snapshot now, restart again, same answers.
    recovered.save_snapshot("default")
    backend.close()
    backend = open_store(kind, tmp_path, "crash")
    again = TenantManager(backend)
    assert _answers(again.service("default")) == expected
    backend.close()


@pytest.mark.parametrize("mechanism", sorted(CASES))
def test_crash_before_any_snapshot_recovers_from_log_alone(mechanism,
                                                           tmp_path):
    """No snapshot yet: recovery rebuilds from the config + full log."""
    config = CASES[mechanism]
    reference_backend = SQLiteBackend(tmp_path / "ref.db")
    reference = TenantManager(reference_backend, default_config=config)
    reference.ingest("default", _rows(0))
    reference.refinalize("default")
    expected = _answers(reference.service("default"))
    reference_backend.close()

    backend = SQLiteBackend(tmp_path / "crash.db")
    crashed = TenantManager(backend, default_config=config)
    backend.append_ingest("default", _rows(0), DOMAIN)
    del crashed
    backend.close()

    backend = SQLiteBackend(tmp_path / "crash.db")
    recovered = TenantManager(backend)
    recovered.refinalize("default")
    assert _answers(recovered.service("default")) == expected
    backend.close()


@pytest.mark.chaos
@pytest.mark.parametrize("kind", STORE_KINDS)
def test_sigkill_collector_worker_recovers_bitwise(kind, tmp_path):
    """Kill one ingest-tier worker process mid-stream; the failed
    batch's WAL entry is discarded and a restart replays the surviving
    log tail bitwise."""
    from repro.ingest import IngestWorkerError

    config = {**CASES["TDG"], "ingest_workers": 2}

    # Reference: an uninterrupted distributed run over the batches
    # that will survive the crash (batch 2's ingest fails and its WAL
    # entry is discarded, so it is part of neither history).
    reference_backend = open_store(kind, tmp_path, "ref")
    reference = TenantManager(reference_backend, default_config=config)
    reference.ingest("default", _rows(0))
    reference.save_snapshot("default")
    reference.ingest("default", _rows(1))
    reference.refinalize("default")
    expected = _answers(reference.service("default"))
    reference.close()
    reference_backend.close()

    backend = open_store(kind, tmp_path, "crash")
    crashed = TenantManager(backend, default_config=config)
    crashed.ingest("default", _rows(0))
    crashed.save_snapshot("default")
    crashed.ingest("default", _rows(1))

    # SIGKILL one collector worker: no cleanup, no atexit — the shared
    # memory block survives (the parent owns it) but the worker's
    # inbox will never drain again.
    victim = crashed.service("default")._ingestor.tier.worker_pids()[0]
    os.kill(victim, signal.SIGKILL)
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        alive = crashed.service("default").status()["ingest_tier"]
        if not all(worker["alive"] for worker in alive["workers"]):
            break
        time.sleep(0.05)

    # The next ingest fails fast instead of hanging; the manager
    # discards the batch's already-durable WAL entry, so recovery will
    # not replay a batch the tier never absorbed.
    with pytest.raises(IngestWorkerError):
        crashed.ingest("default", _rows(2))
    assert backend.ingest_log_depth("default") == 1  # batch 1 only
    del crashed  # the process is gone; only the backend's files remain
    backend.close()

    # Restart: snapshot restore rebuilds a fresh 2-worker tier (same
    # worker states + key base), WAL replay re-routes batch 1
    # identically, answers match the uninterrupted run bitwise.
    backend = open_store(kind, tmp_path, "crash")
    recovered = TenantManager(backend)
    assert not recovered.quarantined_tenants()
    service = recovered.service("default")
    assert service.reports_ingested == 100
    recovered.refinalize("default")
    assert _answers(service) == expected
    recovered.close()
    backend.close()


@pytest.mark.parametrize("kind", STORE_KINDS)
def test_failed_automatic_refinalize_keeps_the_batch(kind, tmp_path,
                                                     monkeypatch, caplog):
    """A re-finalize that fails inside ``ingest`` must not undo a batch
    the service already absorbed: its WAL entry stays, the receipt says
    ``refinalized: false``, and the live and recovered tenants agree."""
    from repro import HDG

    finalize = HDG.finalize
    failures = []

    def fail_once(self):
        if not failures:
            failures.append(self)
            raise RuntimeError("injected finalize failure")
        return finalize(self)

    monkeypatch.setattr(HDG, "finalize", fail_once)
    config = {**CASES["HDG"], "refinalize_every": 100}
    backend = open_store(kind, tmp_path, "live")
    manager = TenantManager(backend, default_config=config)
    with caplog.at_level("WARNING", logger="repro.serving"):
        receipt = manager.ingest("default", _rows(0, n=150))
    assert receipt["refinalized"] is False
    assert "automatic re-finalize" in caplog.text
    live = manager.service("default")
    assert live.reports_ingested == 150
    assert live.reports_since_finalize == 150
    manager.refinalize("default")
    expected = _answers(live)
    manager.close()
    backend.close()

    backend = open_store(kind, tmp_path, "live")
    recovered = TenantManager(backend)
    service = recovered.service("default")
    assert service.reports_ingested == 150
    recovered.refinalize("default")
    assert _answers(service) == expected
    recovered.close()
    backend.close()


def _post(port, path, payload):
    request = urllib.request.Request(
        f"http://127.0.0.1:{port}{path}",
        data=json.dumps(payload).encode())
    with urllib.request.urlopen(request, timeout=10) as response:
        return json.loads(response.read())


def test_sigkill_mid_ingest_recovers_bitwise(tmp_path):
    """Kill a real serve process after WAL appends, before finalize;
    restart from the SQLite file and compare answers bitwise."""
    config = CASES["TDG"]
    reference_backend = SQLiteBackend(tmp_path / "ref.db")
    reference = TenantManager(reference_backend, default_config=config)
    reference.ingest("default", _rows(0))
    reference.save_snapshot("default")
    reference.ingest("default", _rows(1))
    reference.refinalize("default")
    expected = _answers(reference.service("default"))
    reference_backend.close()

    db = tmp_path / "crash.db"
    port_file = tmp_path / "port.txt"
    # A tiny launcher that reports its bound port, so the test can talk
    # to the server without racing on a fixed port.
    script = (
        "import sys, pathlib\n"
        "from repro.cli import build_parser\n"
        "from repro.serving import TenantManager, build_server, serve\n"
        "from repro.storage import SQLiteBackend\n"
        f"backend = SQLiteBackend({str(db)!r})\n"
        "manager = TenantManager(backend, default_config="
        f"{config!r})\n"
        "server = build_server(tenant_manager=manager)\n"
        f"pathlib.Path({str(port_file)!r}).write_text("
        "str(server.server_address[1]))\n"
        "server.serve_forever()\n")
    env = {**os.environ,
           "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}
    process = subprocess.Popen([sys.executable, "-c", script], env=env)
    try:
        deadline = time.monotonic() + 30
        while not port_file.exists() and time.monotonic() < deadline:
            time.sleep(0.05)
        port = int(port_file.read_text())
        _post(port, "/ingest", {"rows": _rows(0)})
        _post(port, "/snapshot", {})
        receipt = _post(port, "/ingest", {"rows": _rows(1)})
        assert receipt["wal_seq"] == 2
    finally:
        # SIGKILL: no cleanup, no atexit — exactly a crash. The WAL
        # append for batch 2 is durable; no finalize ever ran.
        process.kill()
        process.wait(timeout=30)

    backend = SQLiteBackend(db)
    recovered = TenantManager(backend)
    service = recovered.service("default")
    assert service.reports_ingested == 100
    recovered.refinalize("default")
    assert _answers(service) == expected
    backend.close()
