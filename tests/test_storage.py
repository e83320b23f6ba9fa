"""Tests for the storage backend tier (repro.storage).

One parametrized contract suite runs against both implementations —
the directory-of-JSON backend and the SQLite backend — covering the
three concerns: the tenant registry, versioned snapshots with listing
metadata, and the write-ahead ingest log (including sequence-number
monotonicity across prunes).  Backend-specific sections pin the
DirectoryBackend's adoption of legacy root-level snapshot directories,
the SQLiteBackend's WAL-mode pragmas and trigger-maintained listing
table, and the atomic-write durability regression: a failed write
never leaves a temp file behind.
"""

from __future__ import annotations

import base64
import json
import os
import sqlite3

import numpy as np
import pytest

from repro.serving import QueryService, TenantManager
from repro.storage import (BACKENDS, DEFAULT_TENANT, CorruptEntryError,
                           DirectoryBackend, SQLiteBackend,
                           StorageBackend, TenantExistsError,
                           UnknownTenantError, open_backend,
                           validate_tenant_name)
from repro.storage.base import decode_rows, encode_rows


@pytest.fixture(params=sorted(BACKENDS))
def backend(request, tmp_path) -> StorageBackend:
    if request.param == "json":
        built = DirectoryBackend(tmp_path / "store")
    else:
        built = SQLiteBackend(tmp_path / "store.db")
    yield built
    built.close()


def _service_document(seed: int = 7, reports: int = 50) -> dict:
    service = QueryService("TDG", 1.0, seed=seed, domain_size=8)
    rng = np.random.default_rng(seed)
    service.ingest(rng.integers(0, 8, size=(reports, 2)))
    service.refinalize()
    return service.state_dict()


# ----------------------------------------------------------------------
# Tenant registry
# ----------------------------------------------------------------------
def test_tenant_crud_round_trip(backend):
    record = backend.create_tenant("acme", {"mechanism": "TDG",
                                            "epsilon": 0.5})
    assert record.name == "acme"
    assert record.created_at
    assert backend.get_tenant("acme").config["epsilon"] == 0.5
    assert [r.name for r in backend.list_tenants()] == ["acme"]
    assert backend.has_tenant("acme")
    backend.delete_tenant("acme")
    assert not backend.has_tenant("acme")
    assert backend.list_tenants() == []


def test_tenant_errors(backend):
    backend.create_tenant("acme", {})
    with pytest.raises(TenantExistsError):
        backend.create_tenant("acme", {})
    with pytest.raises(UnknownTenantError):
        backend.get_tenant("nope")
    with pytest.raises(UnknownTenantError):
        backend.delete_tenant("nope")
    with pytest.raises(UnknownTenantError):
        backend.save_snapshot("nope", {"mechanism": "TDG"})
    with pytest.raises(UnknownTenantError):
        backend.append_ingest("nope", [[1, 2]])


@pytest.mark.parametrize("bad", ["", "a/b", "a b", ".hidden", "x" * 65,
                                 "tab\tname"])
def test_tenant_name_validation(backend, bad):
    with pytest.raises(ValueError):
        backend.create_tenant(bad, {})


def test_validate_tenant_name_accepts_safe_names():
    for name in ("default", "acme", "a-b_c.d", "Tenant42"):
        assert validate_tenant_name(name) == name


# ----------------------------------------------------------------------
# Snapshots + listing metadata
# ----------------------------------------------------------------------
def test_snapshot_save_load_round_trip(backend):
    backend.create_tenant("acme", {})
    document = _service_document()
    record = backend.save_snapshot("acme", document, wal_seq=3)
    assert record.version == 1
    assert record.wal_seq == 3
    assert record.size_bytes > 0
    assert record.mechanism == "TDG"
    assert record.reports_ingested == 50
    loaded, loaded_record = backend.load_snapshot("acme")
    assert loaded == document
    assert loaded_record.version == 1
    assert loaded_record.wal_seq == 3


def test_snapshot_versions_increment_and_listing(backend):
    backend.create_tenant("acme", {})
    for wal_seq in (1, 2, 3):
        backend.save_snapshot("acme", _service_document(), wal_seq=wal_seq)
    records = backend.list_snapshots("acme")
    assert [r.version for r in records] == [1, 2, 3]
    assert [r.wal_seq for r in records] == [1, 2, 3]
    assert backend.latest_snapshot_version("acme") == 3
    # Explicit-version load picks the requested document's record.
    _, record = backend.load_snapshot("acme", version=2)
    assert record.version == 2


def test_snapshot_listing_covers_all_tenants(backend):
    backend.create_tenant("a", {})
    backend.create_tenant("b", {})
    backend.save_snapshot("a", _service_document())
    backend.save_snapshot("b", _service_document())
    tenants = {record.tenant for record in backend.list_snapshots()}
    assert {"a", "b"} <= tenants


def test_snapshot_prune_keeps_newest(backend):
    backend.create_tenant("acme", {})
    for _ in range(4):
        backend.save_snapshot("acme", _service_document())
    assert backend.prune_snapshots("acme", 2) == 2
    assert [r.version for r in backend.list_snapshots("acme")] == [3, 4]
    # Pruned versions are gone for load too.
    with pytest.raises(FileNotFoundError):
        backend.load_snapshot("acme", version=1)


def test_load_snapshot_empty_raises_file_not_found(backend):
    backend.create_tenant("acme", {})
    with pytest.raises(FileNotFoundError):
        backend.load_snapshot("acme")


def test_snapshot_record_document_shape(backend):
    backend.create_tenant("acme", {})
    record = backend.save_snapshot("acme", _service_document(), wal_seq=9)
    document = record.to_document()
    assert document["tenant"] == "acme"
    assert document["version"] == 1
    assert document["wal_seq"] == 9
    assert json.dumps(document)  # plain JSON


# ----------------------------------------------------------------------
# Write-ahead ingest log
# ----------------------------------------------------------------------
def test_wal_append_pending_prune(backend):
    backend.create_tenant("acme", {})
    assert backend.last_ingest_seq("acme") == 0
    assert backend.append_ingest("acme", [[1, 2]], 8) == 1
    assert backend.append_ingest("acme", [[3, 4], [5, 6]], 8) == 2
    entries = backend.pending_ingest("acme")
    assert [e.seq for e in entries] == [1, 2]
    assert entries[1].rows.tolist() == [[3, 4], [5, 6]]
    assert entries[0].domain_size == 8
    assert backend.pending_ingest("acme", after_seq=1)[0].seq == 2
    assert backend.ingest_log_depth("acme") == 2
    assert backend.prune_ingest("acme", 1) == 1
    assert [e.seq for e in backend.pending_ingest("acme")] == [2]


@pytest.mark.parametrize("largest, itemsize", [
    (0, 1), (255, 1), (256, 2), (65_535, 2), (65_536, 4),
    (2**32 - 1, 4), (2**32, 8), (2**63 - 1, 8)])
def test_row_blob_uses_the_narrowest_unsigned_type(largest, itemsize):
    rows = np.array([[0, 3, largest], [largest, 1, 2]], dtype=np.int64)
    blob = encode_rows(rows)
    assert len(blob) == 5 + rows.size * itemsize
    decoded = decode_rows(blob)
    assert decoded.dtype == np.int64
    assert decoded.tolist() == rows.tolist()


def test_row_blob_round_trips_lists_and_empty_batches():
    assert decode_rows(encode_rows([[1, 2], [3, 4]])).tolist() == [
        [1, 2], [3, 4]]
    empty = decode_rows(encode_rows(np.zeros((0, 3), dtype=np.int64)))
    assert empty.shape == (0, 3)
    # Entries written before the blob format held the JSON list.
    legacy = decode_rows([[5, 6], [7, 8]])
    assert legacy.dtype == np.int64 and legacy.tolist() == [[5, 6], [7, 8]]


def test_row_blob_refuses_what_it_cannot_store():
    with pytest.raises(TypeError, match="integers"):
        encode_rows([[1.5, 2.0]])
    with pytest.raises(ValueError, match="non-negative"):
        encode_rows([[1, -1]])
    with pytest.raises(ValueError, match="2-D"):
        encode_rows([1, 2, 3])


@pytest.mark.parametrize("stored, match", [
    (b"R1", "shorter than its header"),
    (b"XX\x01\x02\x00\x01\x02", "unknown header"),
    (b"R1\x03\x02\x00\x01\x02\x03", "unknown header"),
    (b"R1\x01\x00\x00", "unknown header"),
    (b"R1\x01\x02\x00\x01\x02\x03", "whole number of 2-column rows"),
    ("[[1, 2]]", "not a row list or blob"),
    ([1, 2], "2-D integer batch"),
    ([["a"]], "2-D integer batch"),
])
def test_row_blob_decode_refuses_corrupt_values(stored, match):
    with pytest.raises(ValueError, match=match):
        decode_rows(stored)


def _corrupt_entry(backend, tenant: str, seq: int, case: str) -> None:
    """Overwrite one stored entry's rows with a bad tag, a truncated
    blob or garbage text, behind the backend's back."""
    blob = encode_rows([[1, 2], [3, 4]])
    stored = {"bad-tag": b"ZZ" + blob[2:], "truncated": blob[:-1],
              "garbage": "@@ not rows @@"}[case]
    if isinstance(backend, SQLiteBackend):
        connection = sqlite3.connect(backend.path)
        try:
            connection.execute("UPDATE ingest_log SET rows = ? WHERE seq = ?",
                               (stored, seq))
            connection.commit()
        finally:
            connection.close()
        return
    if isinstance(stored, bytes):
        stored = base64.b64encode(stored).decode("ascii")
    path = backend._wal_dir(tenant) / f"entry-{seq:08d}.json"
    path.write_text(json.dumps({"seq": seq, "rows": stored,
                                "domain_size": 8}))


@pytest.mark.parametrize("case", ["bad-tag", "truncated", "garbage"])
def test_corrupt_mid_log_entry_is_corrupt_entry_error(backend, case):
    backend.create_tenant("acme", {"mechanism": "TDG", "seed": 3,
                                   "domain_size": 8})
    for value in range(3):
        backend.append_ingest("acme", [[value, value]], 8)
    _corrupt_entry(backend, "acme", 2, case)
    with pytest.raises(CorruptEntryError, match="seq=2"):
        backend.pending_ingest("acme")
    quarantined = TenantManager(backend).quarantined_tenants()
    assert "CorruptEntryError" in quarantined["acme"]["error"]


@pytest.mark.parametrize("case", ["bad-tag", "truncated", "garbage"])
def test_corrupt_log_tail(backend, case):
    """A directory store quarantines an unreadable tail entry as a torn
    write; SQLite appends are transactional, so there it is corrupt."""
    backend.create_tenant("acme", {})
    for value in range(3):
        backend.append_ingest("acme", [[value, value]], 8)
    _corrupt_entry(backend, "acme", 3, case)
    if isinstance(backend, SQLiteBackend):
        with pytest.raises(CorruptEntryError, match="seq=3"):
            backend.pending_ingest("acme")
        return
    entries = backend.pending_ingest("acme")
    assert [entry.rows.tolist() for entry in entries] == [[[0, 0]], [[1, 1]]]
    assert [path.name for path in backend._wal_dir("acme").glob("*.torn")] \
        == ["entry-00000003.json.torn"]


def test_wal_sequence_monotonic_across_prunes(backend):
    """Pruning every entry must not restart sequence numbering:
    otherwise a later snapshot's recorded position would shadow new
    entries and recovery would silently drop them."""
    backend.create_tenant("acme", {})
    backend.append_ingest("acme", [[1, 2]])
    backend.append_ingest("acme", [[3, 4]])
    backend.prune_ingest("acme", 2)
    assert backend.ingest_log_depth("acme") == 0
    assert backend.last_ingest_seq("acme") == 2
    assert backend.append_ingest("acme", [[5, 6]]) == 3


def test_wal_discard_removes_one_entry(backend):
    backend.create_tenant("acme", {})
    backend.append_ingest("acme", [[1, 2]])
    seq = backend.append_ingest("acme", [[3, 4]])
    backend.discard_ingest("acme", seq)
    assert [e.seq for e in backend.pending_ingest("acme")] == [1]
    # Discard does not lower the sequence horizon.
    assert backend.last_ingest_seq("acme") == 2


def test_wal_depth_across_tenants(backend):
    backend.create_tenant("a", {})
    backend.create_tenant("b", {})
    backend.append_ingest("a", [[1, 2]])
    backend.append_ingest("b", [[3, 4]])
    backend.append_ingest("b", [[5, 6]])
    assert backend.ingest_log_depth("a") == 1
    assert backend.ingest_log_depth("b") == 2
    assert backend.ingest_log_depth() == 3


def test_delete_tenant_drops_snapshots_and_log(backend):
    backend.create_tenant("acme", {})
    backend.save_snapshot("acme", _service_document())
    backend.append_ingest("acme", [[1, 2]])
    backend.delete_tenant("acme")
    backend.create_tenant("acme", {})
    assert backend.list_snapshots("acme") == []
    assert backend.pending_ingest("acme") == []


def test_describe_and_location(backend):
    backend.create_tenant("acme", {})
    backend.append_ingest("acme", [[1, 2]])
    description = backend.describe()
    assert description["backend"] in BACKENDS
    assert description["tenants"] == 1
    assert description["pending_ingest_log"] == 1
    assert description["location"] == backend.location()


def test_open_backend_dispatch(tmp_path):
    with open_backend("json", str(tmp_path / "d")) as built:
        assert isinstance(built, DirectoryBackend)
    with open_backend("sqlite", str(tmp_path / "s.db")) as built:
        assert isinstance(built, SQLiteBackend)
    with pytest.raises(ValueError, match="unknown storage backend"):
        open_backend("postgres", "x")


# ----------------------------------------------------------------------
# DirectoryBackend: legacy store adoption
# ----------------------------------------------------------------------
def test_directory_backend_adopts_legacy_snapshot_store(tmp_path):
    """A legacy directory — root-level snapshot files, no sidecars, no
    tenants.json — opens as the default tenant's history: size and
    creation time fall back to stat, wal_seq to 0."""
    document = _service_document()
    legacy = tmp_path / "snapshot-000001.json"
    legacy.write_text(json.dumps(document))
    backend = DirectoryBackend(tmp_path)
    records = backend.list_snapshots("default")
    assert [r.version for r in records] == [1]
    assert records[0].size_bytes == legacy.stat().st_size
    assert records[0].wal_seq == 0
    loaded, _ = backend.load_snapshot("default")
    assert loaded == document


def test_directory_backend_meta_sidecars_ignored_by_snapshot_store(tmp_path):
    """Sidecar .meta.json files must not count as snapshot versions,
    although they match the ``snapshot-*.json`` version glob."""
    backend = DirectoryBackend(tmp_path)
    backend.save_snapshot("default", _service_document())
    assert (tmp_path / "snapshot-000001.meta.json").exists()
    assert [r.version for r in backend.list_snapshots("default")] == [1]
    assert backend.save_snapshot("default", _service_document()).version == 2


# ----------------------------------------------------------------------
# SQLiteBackend: pragmas, listing triggers, cascade
# ----------------------------------------------------------------------
def test_sqlite_backend_runs_in_wal_mode(tmp_path):
    backend = SQLiteBackend(tmp_path / "s.db")
    assert str(backend.pragma("journal_mode")).lower() == "wal"
    assert int(backend.pragma("foreign_keys")) == 1
    backend.close()


def test_sqlite_listing_table_maintained_by_triggers(tmp_path):
    backend = SQLiteBackend(tmp_path / "s.db")
    backend.create_tenant("acme", {})
    backend.save_snapshot("acme", _service_document())
    backend.save_snapshot("acme", _service_document())
    backend.prune_snapshots("acme", 1)
    backend.close()
    connection = sqlite3.connect(tmp_path / "s.db")
    try:
        rows = connection.execute(
            "SELECT tenant, version FROM snapshot_listing").fetchall()
        assert rows == [("acme", 2)]
    finally:
        connection.close()


def test_sqlite_delete_tenant_cascades(tmp_path):
    backend = SQLiteBackend(tmp_path / "s.db")
    backend.create_tenant("acme", {})
    backend.save_snapshot("acme", _service_document())
    backend.append_ingest("acme", [[1, 2]])
    backend.delete_tenant("acme")
    backend.close()
    connection = sqlite3.connect(tmp_path / "s.db")
    try:
        for table in ("snapshots", "snapshot_blobs", "ingest_log",
                      "snapshot_listing"):
            count = connection.execute(
                f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            assert count == 0, table
    finally:
        connection.close()


def test_sqlite_reopen_preserves_everything(tmp_path):
    path = tmp_path / "s.db"
    document = _service_document()
    with SQLiteBackend(path) as backend:
        backend.create_tenant("acme", {"mechanism": "TDG"})
        backend.save_snapshot("acme", document, wal_seq=1)
        backend.append_ingest("acme", [[1, 2]], 8)
    with SQLiteBackend(path) as backend:
        assert backend.get_tenant("acme").config == {"mechanism": "TDG"}
        loaded, record = backend.load_snapshot("acme")
        assert loaded == document and record.wal_seq == 1
        assert backend.pending_ingest("acme")[0].rows.tolist() == [[1, 2]]
        assert backend.last_ingest_seq("acme") == 1


# ----------------------------------------------------------------------
# Atomic-write durability regression (snapshot claims + backends)
# ----------------------------------------------------------------------
def _temp_files(directory) -> list:
    return [path for path in directory.iterdir()
            if path.suffix == ".tmp" or path.name.endswith(".json.tmp")]


def _versions(backend: DirectoryBackend) -> list[int]:
    return [record.version
            for record in backend.list_snapshots(DEFAULT_TENANT)]


def test_snapshot_store_failed_save_leaves_no_temp_file(tmp_path):
    """A save that dies mid-serialization must clean up its temp file
    and must not claim a version slot."""
    store = DirectoryBackend(tmp_path)
    store.save_snapshot(DEFAULT_TENANT, {"ok": 1})
    with pytest.raises(TypeError):
        # not JSON-serializable
        store.save_snapshot(DEFAULT_TENANT, {"bad": object()})
    assert _versions(store) == [1]
    assert _temp_files(tmp_path) == []


def test_snapshot_store_failed_link_leaves_no_temp_file(tmp_path,
                                                        monkeypatch):
    """Even a failure at the claim step (os.link) cleans up."""
    store = DirectoryBackend(tmp_path)

    def refuse_link(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "link", refuse_link)
    with pytest.raises(OSError, match="disk full"):
        store.save_snapshot(DEFAULT_TENANT, {"ok": 1})
    monkeypatch.undo()
    assert _versions(store) == []
    assert _temp_files(tmp_path) == []
    # The store still works after the failure.
    assert store.save_snapshot(DEFAULT_TENANT, {"ok": 1}).version == 1


def test_directory_backend_failed_write_leaves_no_temp_file(tmp_path):
    backend = DirectoryBackend(tmp_path)
    backend.create_tenant("acme", {})
    with pytest.raises(TypeError):
        backend.append_ingest("acme", [[object()]])
    wal_dir = tmp_path / "wal" / "acme"
    assert _temp_files(wal_dir) == []
    assert backend.pending_ingest("acme") == []
