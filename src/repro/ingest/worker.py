"""Collector worker process: the ingest tier's per-core unit.

A worker owns one shared-memory block and one inbound queue.  It holds
a private mechanism instance (seeded by the
:func:`repro.mechanisms.shard_seed` convention that sharded experiment
runs use too) whose accumulator slots are bound onto the shared block,
so every ``partial_fit`` lands directly in memory the merge coordinator
can read.

Protocol over the worker's inbox queue (FIFO, one consumer):

``("batch", seq, rows)``
    Ingest one routed sub-batch.  ``seq`` is the tier-wide submission
    sequence number; rows arrive in submission order.
``("state",)``
    Reply on the outbox with ``("state", index, payload)`` where the
    payload carries the collector's ``shard_state`` and RNG state.
    Used for snapshots.
``("stop",)``
    Exit the loop cleanly.

The worker publishes its header (report totals, batches done, last
sequence) under the per-worker lock after every batch; holding the
lock across the whole ``partial_fit`` is what gives the coordinator
batch-granular consistent cuts.

Determinism: a worker's accumulator state is a pure function of
``(worker seed, ordered sub-batch sequence)`` — exactly the state the
same sub-batches produce through single-process ``partial_fit`` — so
merging worker blocks reproduces the single-process shard plan bit for
bit (``tests/test_distributed_ingest.py``).
"""

from __future__ import annotations

import dataclasses
import traceback

from ..datasets import Dataset
from ..mechanisms import mechanism_class
from .shared_state import (HEADER_BATCHES_DONE, HEADER_FIXED_FIELDS,
                           HEADER_LAST_SEQ, HEADER_TOTAL_REPORTS,
                           AccumulatorLayout, SharedAccumulatorBlock)

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
    #: the tier so every worker pins the same layout as the template).
    planning_users: int | None
    #: ``partial_fit``'s total_users argument (service-level setting).
    total_users: int | None
    shm_name: str
    slots: list[tuple[str, int]]
    #: Restored per-worker state (snapshot recovery): ``{"shard_state":
    #: ..., "rng_state": ...}`` or None for a fresh worker.
    initial_state: dict | None = None
    #: Whether to unregister the attached segment from this process's
    #: resource tracker (spawn start method only; see shared_state).
    unregister_shm: bool = False


def worker_main(spec: WorkerSpec, inbox, outbox, lock) -> None:
    """Process entry point: report fatal errors, then re-raise."""
    try:
        _run_worker(spec, inbox, outbox, lock)
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


def _run_worker(spec: WorkerSpec, inbox, outbox, lock) -> None:
    collector = _build_collector(spec)
    layout = AccumulatorLayout(spec.slots)
    block = SharedAccumulatorBlock.attach(layout, spec.shm_name,
                                          unregister=spec.unregister_shm)
    slot_index = {key: i for i, (key, _) in enumerate(layout.slots)}
    with lock:
        collector.bind_accumulator_views(block.views())
        _publish_counts(collector, block, slot_index)
    outbox.put(("ready", spec.index))
    while True:
        message = inbox.get()
        kind = message[0]
        if kind == "batch":
            _, seq, rows = message
            batch = Dataset(rows, spec.domain_size)
            with lock:
                collector.partial_fit(batch, total_users=spec.total_users)
                _publish_counts(collector, block, slot_index)
                block.header[HEADER_BATCHES_DONE] += 1
                block.header[HEADER_LAST_SEQ] = seq
        elif kind == "state":
            with lock:
                payload = {
                    "shard_state": collector.shard_state(),
                    "rng_state": collector.rng.bit_generator.state,
                }
            outbox.put(("state", spec.index, payload))
        elif kind == "stop":
            return
        else:
            raise ValueError(f"unknown worker message {kind!r}")


def _publish_counts(collector, block: SharedAccumulatorBlock,
                    slot_index: dict[str, int]) -> None:
    counts = collector.accumulator_counts()
    header = block.header
    for key, count in counts.items():
        header[HEADER_FIXED_FIELDS + slot_index[key]] = count
    header[HEADER_TOTAL_REPORTS] = int(collector.population or 0)
