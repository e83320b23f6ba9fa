"""Distributed ingest tier: routed collector worker processes.

See ``docs/ingest.md`` for the architecture.  The tier runs the
mechanisms that support sharded aggregation; the serving layer
(:class:`repro.serving.QueryService`) enables it for stream ingest with
``ingest_workers=N``.  It can also be driven standalone::

    tier = IngestTier("TDG", 1.0, n_workers=4, n_attributes=4,
                      domain_size=16, seed=7, planning_users=100_000)
    tier.submit(rows)
    estimator = tier.merge()
"""

from .routing import ConsistentHashRouter, mix64
from .tier import IngestError, IngestTier, IngestWorkerError
from .worker import WorkerSpec

__all__ = [
    "ConsistentHashRouter",
    "IngestError",
    "IngestTier",
    "IngestWorkerError",
    "WorkerSpec",
    "mix64",
]
