"""SQLite stores for the store-parametrized tests.

SQLite is the only durable backend.  The suites that exercise the
storage contract run over two kinds of store:

``sqlite``
    A new database.
``json``
    A database made by importing a JSON directory store
    (:func:`repro.storage.import_json_store`), the way a store of that
    retired layout is carried over.  The imported store is empty, so
    both kinds start from the same state and every assertion holds for
    an imported store as for a new one.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.storage import SQLiteBackend, import_json_store

STORE_KINDS = ("json", "sqlite")


def open_store(kind: str, directory: Path, name: str = "store",
               **options) -> SQLiteBackend:
    """The ``kind`` store ``name`` in ``directory``, made on first use;
    later calls reopen it.  ``options`` go to :class:`SQLiteBackend`."""
    path = Path(directory) / f"{name}.db"
    if kind == "json" and not path.exists():
        source = Path(directory) / f"{name}-json"
        source.mkdir(parents=True)
        (source / "tenants.json").write_text(json.dumps(
            {"format": "repro.tenants", "version": 1, "tenants": {}}))
        with SQLiteBackend(path) as backend:
            import_json_store(source, backend)
    elif kind not in STORE_KINDS:
        raise ValueError(f"unknown store kind {kind!r}")
    return SQLiteBackend(path, **options)
