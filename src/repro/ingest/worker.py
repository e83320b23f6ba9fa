"""Collector worker process: the ingest tier's per-core unit.

A worker owns one inbound queue and a private mechanism instance,
seeded by the :func:`repro.mechanisms.shard_seed` convention that
sharded experiment runs use too.  Its state leaves the process only
as a reply on its outbox.

Protocol over the worker's inbox queue (FIFO, one consumer):

``("batch", rows)``
    Ingest one routed sub-batch; rows arrive in submission order.
``("state",)``
    Reply on the outbox with ``("state", index, payload)`` where the
    payload carries the collector's ``shard_state`` and RNG state.
    Merges and snapshots both use this exchange.
``("stop",)``
    Exit the loop cleanly.

Progress goes into a two-word shared counter array (batches done,
reports done) that only this worker writes, after each batch; the
parent reads it without a lock for ``flush`` and ``/healthz``.

Determinism: a worker's accumulator state is a pure function of
``(worker seed, ordered sub-batch sequence)`` — exactly the state the
same sub-batches produce through single-process ``partial_fit`` — so
merging the workers' replies reproduces the single-process shard plan
bit for bit (``tests/test_distributed_ingest.py``).
"""

from __future__ import annotations

import dataclasses
import traceback

from ..datasets import Dataset
from ..mechanisms import mechanism_class

#: Slots of a worker's progress counter array.
PROGRESS_BATCHES = 0
PROGRESS_REPORTS = 1


@dataclasses.dataclass
class WorkerSpec:
    """Everything a worker process needs to build its collector.

    Plain data (picklable) so workers start under ``fork`` and
    ``spawn`` alike.
    """

    index: int
    mechanism: str
    epsilon: float
    seed: int | None
    mechanism_kwargs: dict
    n_attributes: int
    domain_size: int
    #: Population fed to the granularity guideline (resolved once by
    #: the tier so every worker pins the same layout).
    planning_users: int | None
    #: ``partial_fit``'s total_users argument (service-level setting).
    total_users: int | None
    #: Restored per-worker state (snapshot recovery): ``{"shard_state":
    #: ..., "rng_state": ...}`` or None for a fresh worker.
    initial_state: dict | None = None


def worker_main(spec: WorkerSpec, inbox, outbox, progress) -> None:
    """Process entry point: report fatal errors, then re-raise."""
    try:
        _run_worker(spec, inbox, outbox, progress)
    except BaseException:
        outbox.put(("error", spec.index, traceback.format_exc()))
        raise


def _build_collector(spec: WorkerSpec):
    """The worker's mechanism instance, layout pinned, state restored."""
    factory = mechanism_class(spec.mechanism)
    collector = factory(spec.epsilon, seed=spec.seed,
                        **spec.mechanism_kwargs)
    if spec.initial_state is not None:
        collector.load_shard_state(spec.initial_state["shard_state"])
        collector.rng.bit_generator.state = spec.initial_state["rng_state"]
        # load_shard_state restores the layout, so prepare_aggregation
        # below only validates the schema instead of re-deriving it.
    collector.prepare_aggregation(spec.n_attributes, spec.domain_size,
                                  total_users=spec.planning_users)
    return collector


def _run_worker(spec: WorkerSpec, inbox, outbox, progress) -> None:
    collector = _build_collector(spec)
    progress[PROGRESS_REPORTS] = int(collector.population or 0)
    outbox.put(("ready", spec.index, progress[PROGRESS_REPORTS]))
    while True:
        message = inbox.get()
        kind = message[0]
        if kind == "batch":
            collector.partial_fit(Dataset(message[1], spec.domain_size),
                                  total_users=spec.total_users)
            progress[PROGRESS_REPORTS] = collector.population
            progress[PROGRESS_BATCHES] += 1
        elif kind == "state":
            outbox.put(("state", spec.index, {
                "shard_state": collector.shard_state(),
                "rng_state": collector.rng.bit_generator.state,
            }))
        elif kind == "stop":
            return
        else:
            raise ValueError(f"unknown worker message {kind!r}")
