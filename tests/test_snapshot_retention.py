"""Snapshot retention edge cases of the JSON directory backend.

The directory backend versions snapshots with an exclusive hard-link
claim and prunes them with ``prune_snapshots(tenant, keep_last)`` (the
``keep_last`` retention a tenant config or ``repro snapshot create
--keep-last`` applies after each save).  These tests pin the behaviours
the ops guide promises: pruning removes exactly the oldest versions,
the latest version always survives (and restores) right after a prune,
and concurrent writers never overwrite or skip-number each other's
snapshots.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.storage import DEFAULT_TENANT, DirectoryBackend


def _document(tag: int) -> dict:
    return {"format": "test-doc", "version": 1, "tag": tag}


class _Store:
    """The default tenant's snapshots in one directory backend, saved
    with the tenant-config retention (prune after every save)."""

    def __init__(self, directory, keep_last=None):
        self.backend = DirectoryBackend(directory)
        self.keep_last = keep_last

    def save(self, document):
        record = self.backend.save_snapshot(DEFAULT_TENANT, document)
        if self.keep_last is not None:
            self.backend.prune_snapshots(DEFAULT_TENANT, self.keep_last)
        return record

    def load(self, version=None):
        return self.backend.load_snapshot(DEFAULT_TENANT, version)[0]

    def versions(self):
        return [record.version
                for record in self.backend.list_snapshots(DEFAULT_TENANT)]

    def latest_version(self):
        return self.backend.latest_snapshot_version(DEFAULT_TENANT)

    def path_of(self, version):
        return self.backend.snapshot_path(DEFAULT_TENANT, version)


# ----------------------------------------------------------------------
# keep_last pruning order
# ----------------------------------------------------------------------
def test_keep_last_prunes_oldest_versions_in_order(tmp_path):
    store = _Store(tmp_path, keep_last=3)
    for tag in range(6):
        store.save(_document(tag))
    # Exactly the newest three survive, oldest three are gone.
    assert store.versions() == [4, 5, 6]
    for version in (1, 2, 3):
        assert not store.path_of(version).exists()
        with pytest.raises(FileNotFoundError, match=f"version {version}"):
            store.load(version)
    # Surviving documents are the ones written under those versions.
    assert [store.load(version)["tag"] for version in (4, 5, 6)] == [3, 4, 5]


def test_keep_last_one_keeps_only_the_newest(tmp_path):
    store = _Store(tmp_path, keep_last=1)
    for tag in range(4):
        info = store.save(_document(tag))
    assert store.versions() == [info.version] == [4]
    assert store.load()["tag"] == 3


def test_keep_last_validation_and_unbounded_default(tmp_path):
    with pytest.raises(ValueError, match="keep_last"):
        DirectoryBackend(tmp_path).prune_snapshots(DEFAULT_TENANT, 0)
    store = _Store(tmp_path)  # no cap
    for tag in range(5):
        store.save(_document(tag))
    assert store.versions() == [1, 2, 3, 4, 5]


def test_pruning_applies_to_preexisting_versions(tmp_path):
    """Opening an existing store with a cap prunes on the next save."""
    unbounded = _Store(tmp_path)
    for tag in range(5):
        unbounded.save(_document(tag))
    capped = _Store(tmp_path, keep_last=2)
    capped.save(_document(99))
    assert capped.versions() == [5, 6]


# ----------------------------------------------------------------------
# Restore-after-prune of the latest version
# ----------------------------------------------------------------------
def test_latest_version_restores_right_after_prune(tmp_path):
    store = _Store(tmp_path, keep_last=2)
    for tag in range(10):
        saved = store.save(_document(tag))
        # After every save (and its prune) the just-written version is
        # the latest and loads back byte-identically.
        assert store.latest_version() == saved.version
        assert store.load() == _document(tag)
        assert store.load(saved.version) == _document(tag)


def test_load_of_pruned_explicit_version_names_the_version(tmp_path):
    store = _Store(tmp_path, keep_last=1)
    first = store.save(_document(0))
    store.save(_document(1))
    with pytest.raises(FileNotFoundError,
                       match=f"no snapshot version {first.version}"):
        store.load(first.version)


# ----------------------------------------------------------------------
# Concurrent version-claim collisions
# ----------------------------------------------------------------------
def test_concurrent_saves_claim_distinct_contiguous_versions(tmp_path):
    """Racing writers never overwrite or skip a version slot."""
    store = _Store(tmp_path)
    n_writers, per_writer = 8, 5
    barrier = threading.Barrier(n_writers)
    claims: list[tuple[int, int]] = []
    lock = threading.Lock()

    def writer(writer_id: int) -> None:
        barrier.wait()
        for sequence in range(per_writer):
            info = store.save(_document(writer_id * 1000 + sequence))
            with lock:
                claims.append((writer_id, info.version))

    threads = [threading.Thread(target=writer, args=(writer_id,))
               for writer_id in range(n_writers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    versions = sorted(version for _, version in claims)
    # Every claim is unique and the numbering has no holes.
    assert versions == list(range(1, n_writers * per_writer + 1))
    assert store.versions() == versions
    # Every stored document is intact (no torn/overwritten writes), and
    # each writer's documents all landed.
    tags = {store.load(version)["tag"] for version in versions}
    assert tags == {writer_id * 1000 + sequence
                    for writer_id in range(n_writers)
                    for sequence in range(per_writer)}


def test_concurrent_saves_with_retention_keep_the_newest(tmp_path):
    store = _Store(tmp_path, keep_last=4)
    n_writers = 6
    barrier = threading.Barrier(n_writers)

    def writer(writer_id: int) -> None:
        barrier.wait()
        store.save(_document(writer_id))

    threads = [threading.Thread(target=writer, args=(writer_id,))
               for writer_id in range(n_writers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    survivors = store.versions()
    # At most keep_last versions remain, they are the newest slots, and
    # the latest one loads.
    assert len(survivors) <= 4
    assert survivors == sorted(survivors)
    assert survivors[-1] == n_writers
    assert store.load() == store.load(n_writers)
    for version in survivors:
        json.dumps(store.load(version))  # intact JSON
