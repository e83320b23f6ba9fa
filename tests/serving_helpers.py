"""A running HTTP server over a memory-backed TenantManager.

``build_server`` takes only a :class:`~repro.serving.TenantManager`;
tests that need no durable storage serve their default tenant over a
process-local :class:`~repro.storage.MemoryBackend`, the same way
``repro serve`` without ``--backend`` does.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from repro.serving import TenantManager, build_server
from repro.storage import DEFAULT_TENANT, MemoryBackend


@contextmanager
def memory_server(config: dict, rows=None, **server_options):
    """Serve ``config`` as the default tenant; yields (manager, server).

    ``rows``, when given, are ingested and re-finalized before the
    server starts, so the default tenant is ready.  ``server_options``
    go to :func:`~repro.serving.build_server` (``port`` defaults to 0).
    The server runs on a daemon thread and is shut down on exit, and
    the manager's services are closed.
    """
    manager = TenantManager(MemoryBackend(), default_config=config)
    try:
        if rows is not None:
            manager.ingest(DEFAULT_TENANT, rows)
            manager.refinalize(DEFAULT_TENANT)
        server = build_server(manager, **{"port": 0, **server_options})
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            yield manager, server
        finally:
            server.shutdown()
            server.server_close()
    finally:
        manager.close()
