"""Stores written by the retired refit ingest still recover.

Refit ingest buffered every raw row and refitted from scratch on each
re-finalize.  ``tests/data/legacy_refit/`` holds stores and documents
that code wrote (``tests/data/make_legacy_refit_fixtures.py``), along
with the answers it gave.  Reading them today:

* an MSW or Uni refit tenant recovers into a stream service: its stored
  estimator is the published epoch, so the first answers equal the
  refit code's bit for bit; the buffered rows replay through
  ``partial_fit`` and the write-ahead-log tail replays after them, so
  ingest continues exactly as if the tenant had streamed from the start;
* the older flat ``distributed.pending_rows`` document does the same;
* an LHIO refit tenant, or a static HIO snapshot, is quarantined, and
  the error names the mechanism.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.baselines import HIO
from repro.datasets import Dataset
from repro.serving import QueryService, TenantManager
from repro.storage import DirectoryBackend, SQLiteBackend

DATA = Path(__file__).resolve().parent / "data" / "legacy_refit"
EXPECTED = json.loads((DATA / "expected.json").read_text())
SERVED = {"msw": "MSW", "uni": "Uni"}


def _reopen(kind: str, tmp_path):
    if kind == "json":
        return DirectoryBackend(tmp_path / "json-store")
    return SQLiteBackend(tmp_path / "store.db")


def _open_copy(kind: str, tmp_path):
    """A writable copy of the fixture store (recovery and ingest write)."""
    if kind == "json":
        shutil.copytree(DATA / "json-store", tmp_path / "json-store")
    else:
        shutil.copy(DATA / "store.db", tmp_path / "store.db")
    return _reopen(kind, tmp_path)


def _answers(service) -> list:
    return service.query_wire_batch(EXPECTED["workload"])["workloads"]


def _bits(document) -> str:
    """Float-exact text: ``repr`` round-trips every double."""
    return json.dumps(document)


def _stream_reference(mechanism: str, batches: list) -> QueryService:
    """A stream service that ingested ``batches`` from the start."""
    service = QueryService(mechanism, 1.0, seed=EXPECTED["seed"],
                           domain_size=EXPECTED["domain_size"])
    for rows in batches:
        service.ingest(rows)
    service.refinalize()
    return service


@pytest.mark.parametrize("kind", ["json", "sqlite"])
def test_refit_tenants_recover_into_stream_services(kind, tmp_path):
    backend = _open_copy(kind, tmp_path)
    try:
        manager = TenantManager(backend)
        assert manager.tenant_names() == sorted(SERVED)
        batches = EXPECTED["batches"]
        extra = np.random.default_rng(7).integers(
            0, EXPECTED["domain_size"], size=(25, 3)).tolist()
        for tenant, mechanism in SERVED.items():
            service = manager.service(tenant)
            assert _bits(_answers(service)) \
                == _bits(EXPECTED["first_answers"][kind][tenant])
            assert service.is_streaming
            assert service.reports_ingested == sum(map(len, batches))
            assert "ingest_mode" not in service.status()
            receipt = manager.ingest(tenant, extra)
            assert receipt["total_reports"] == 145
            manager.refinalize(tenant)
            reference = _stream_reference(mechanism, batches + [extra])
            assert _bits(_answers(service)) == _bits(_answers(reference))
            # The next snapshot is an ordinary stream document.
            manager.save_snapshot(tenant)
            document, _ = backend.load_snapshot(tenant)
            assert "refit" not in document and "ingest_mode" not in document
        backend.close()

        backend = _reopen(kind, tmp_path)
        again = TenantManager(backend)
        for tenant, mechanism in SERVED.items():
            reference = _stream_reference(mechanism, batches + [extra])
            assert _bits(_answers(again.service(tenant))) \
                == _bits(_answers(reference))
    finally:
        backend.close()


@pytest.mark.parametrize("kind", ["json", "sqlite"])
def test_lhio_refit_tenant_is_quarantined_by_name(kind, tmp_path):
    backend = _open_copy(kind, tmp_path)
    try:
        manager = TenantManager(backend)
        quarantined = manager.quarantined_tenants()
        assert sorted(quarantined) == ["lhio"]
        assert "LHIO" in quarantined["lhio"]["error"]
        assert "experiment-only" in quarantined["lhio"]["error"]
        assert manager.readiness()[0] is False
        assert manager.retry_recovery("lhio") is False
        manager.delete_tenant("lhio")
        assert manager.readiness()[0] is True
    finally:
        backend.close()


def test_flat_distributed_refit_document_restores():
    document = json.loads((DATA / "flat_distributed_msw.json").read_text())
    service = QueryService.from_state_dict(document)
    assert _bits(_answers(service)) == _bits(EXPECTED["flat_answers"])
    assert service.ingest_workers is None
    batches = EXPECTED["batches"]
    service.ingest(batches[2])
    service.refinalize()
    # The flat list replays as one batch.
    reference = _stream_reference("MSW", [batches[0] + batches[1],
                                          batches[2]])
    assert _bits(_answers(service)) == _bits(_answers(reference))


def test_static_hio_snapshot_is_quarantined_by_name(tmp_path):
    """A static HIO tenant (a fitted estimator and no collector) was
    servable before; its recovery now fails and names HIO."""
    dataset = Dataset(np.asarray(EXPECTED["batches"][0]),
                      EXPECTED["domain_size"])
    backend = DirectoryBackend(tmp_path / "store")
    try:
        backend.create_tenant("hio", {"mechanism": "HIO", "epsilon": 1.0})
        backend.save_snapshot("hio", {
            "format": "repro.service-snapshot", "version": 1,
            "mechanism": "HIO", "epsilon": 1.0, "ingest_mode": None,
            "epoch_id": 1, "collector_config": None,
            "estimator": HIO(1.0, seed=3).fit(dataset).save_state()})
        manager = TenantManager(backend)
        error = manager.quarantined_tenants()["hio"]["error"]
        assert "HIO cannot be served" in error
    finally:
        backend.close()
