"""Importing a JSON directory store into SQLite keeps what recovery needs.

``tests/data/json_store_blob/`` holds a store the JSON directory
backend wrote (``tests/data/make_json_store_fixtures.py``): tenants
with sidecar'd snapshots and base64 row-blob log entries, a
``floor.json`` raised by a discarded append, a torn final entry, and
root-level snapshots of an unregistered ``default`` tenant (the first
without its sidecar).  ``expected.json`` records what that backend
read back and the answers its recovery gave.  The import must:

* keep every number: tenant configs and creation times, snapshot
  versions, listing metadata and ``wal_seq``, entry sequence numbers,
  domain sizes and the floor;
* make the root-level snapshots the ``default`` tenant, configured
  from the newest one;
* recover to the same answers, compared with ``==``;
* skip the torn tail with a warning, refuse a corrupt entry before it,
  and write nothing when it fails;
* leave the source directory byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import logging
import shutil
from datetime import datetime, timezone
from pathlib import Path

import pytest

from repro.cli import main
from repro.serving import TenantManager
from repro.storage import (DEFAULT_TENANT, CorruptEntryError, SQLiteBackend,
                           TenantExistsError, import_json_store)

DATA = Path(__file__).resolve().parent / "data" / "json_store_blob"
SOURCE = DATA / "json-store"
EXPECTED = json.loads((DATA / "expected.json").read_text())
TENANTS = EXPECTED["tenants"]


def _digest(root: Path) -> str:
    """Every file's relative path and bytes, hashed."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        digest.update(str(path.relative_to(root)).encode())
        if path.is_file():
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _mtime_text(path: Path) -> str:
    modified = datetime.fromtimestamp(path.stat().st_mtime, timezone.utc)
    return modified.isoformat(timespec="seconds")


@pytest.fixture
def imported(tmp_path):
    before = _digest(SOURCE)
    backend = SQLiteBackend(tmp_path / "imported.db")
    assert import_json_store(SOURCE, backend) == sorted(TENANTS)
    assert _digest(SOURCE) == before
    yield backend
    backend.close()


def test_import_keeps_every_number(imported):
    for name, expected in TENANTS.items():
        record = imported.get_tenant(name)
        assert record.config == expected["config"]
        if name != DEFAULT_TENANT:
            assert record.created_at == expected["created_at"]
        snapshots = [snapshot.to_document()
                     for snapshot in imported.list_snapshots(name)]
        for snapshot in expected["snapshots"]:
            if snapshot["created_at"] is None:
                # Written before sidecars: the time comes from the file
                # and the listing metadata from the document.
                path = SOURCE / f"snapshot-{snapshot['version']:06d}.json"
                document = json.loads(path.read_text())
                snapshot = dict(
                    snapshot, created_at=_mtime_text(path),
                    **{key: document[key] for key in (
                        "mechanism", "epsilon", "reports_ingested")})
            assert snapshot in snapshots
        assert len(snapshots) == len(expected["snapshots"])
        assert [{"seq": entry.seq, "rows": entry.rows.tolist(),
                 "domain_size": entry.domain_size,
                 "created_at": entry.created_at}
                for entry in imported.pending_ingest(name)] \
            == expected["entries"]
        assert imported.last_ingest_seq(name) == expected["last_seq"]
    # The floor holds: the next append follows the discarded entry.
    assert imported.append_ingest("tdg", [[1, 2, 3]], 8) == 7


def test_imported_store_recovers_to_the_same_answers(imported):
    manager = TenantManager(imported)
    assert manager.quarantined_tenants() == {}
    assert manager.tenant_names() == sorted(TENANTS)
    for name, expected in TENANTS.items():
        service = manager.service(name)
        assert service.reports_ingested == expected["reports_ingested"]
        answers = service.query_wire_batch(EXPECTED["workload"])
        assert answers["workloads"] == expected["answers"]["snapshot"]
        manager.refinalize(name)
        answers = service.query_wire_batch(EXPECTED["workload"])
        assert answers["workloads"] == expected["answers"]["refinalized"]


def test_torn_tail_is_skipped_with_a_warning(tmp_path, caplog):
    with caplog.at_level(logging.WARNING, logger="repro.storage"):
        with SQLiteBackend(tmp_path / "s.db") as backend:
            import_json_store(SOURCE, backend)
            assert [entry.seq for entry in backend.pending_ingest("hdg")] \
                == [5]
    assert "entry-00000007.json" in caplog.text
    assert "never acknowledged" in caplog.text


@pytest.mark.parametrize("rows", ['"ZZ"', '"@@ not rows @@"', '[[1, "a"]]'])
def test_corrupt_entry_before_the_tail_writes_nothing(tmp_path, rows):
    source = tmp_path / "json-store"
    shutil.copytree(SOURCE, source)
    entry = source / "wal" / DEFAULT_TENANT / "entry-00000001.json"
    entry.write_text('{"seq": 1, "rows": %s}' % rows)
    with SQLiteBackend(tmp_path / "s.db") as backend:
        with pytest.raises(CorruptEntryError, match="seq=1"):
            import_json_store(source, backend)
        assert backend.list_tenants() == []
        assert backend.list_snapshots() == []


def test_a_name_already_in_the_store_writes_nothing(tmp_path):
    with SQLiteBackend(tmp_path / "s.db") as backend:
        backend.create_tenant("tdg", {"mechanism": "MSW"})
        with pytest.raises(TenantExistsError, match="tdg"):
            import_json_store(SOURCE, backend)
        assert [record.name for record in backend.list_tenants()] == ["tdg"]
        assert backend.get_tenant("tdg").config == {"mechanism": "MSW"}
        assert backend.list_snapshots() == []
        assert backend.ingest_log_depth() == 0


def test_a_directory_that_is_no_store_is_refused(tmp_path):
    with SQLiteBackend(tmp_path / "s.db") as backend:
        with pytest.raises(ValueError, match="not a JSON store"):
            import_json_store(tmp_path / "missing", backend)


def test_cli_tenants_import(tmp_path, capsys):
    db = str(tmp_path / "cli.db")
    assert main(["tenants", "import", "--dir", str(SOURCE),
                 "--store", db]) == 0
    assert "imported 3 tenant(s)" in capsys.readouterr().out
    assert main(["tenants", "list", "--store", db]) == 0
    listing = capsys.readouterr().out
    assert [line.split()[0] for line in listing.splitlines()] \
        == sorted(TENANTS)
    # A second import of the same store is refused and changes nothing.
    assert main(["tenants", "import", "--dir", str(SOURCE),
                 "--store", db]) == 2
    assert "already exists" in capsys.readouterr().err
