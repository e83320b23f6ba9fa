"""Ingest tier orchestration: router, collector workers, merge coordinator.

:class:`IngestTier` is the parent-process face of the multi-process
ingest path (see ``docs/ingest.md``):

* :meth:`submit` assigns each report a global key (its submission
  index), routes rows to workers through a
  :class:`~repro.ingest.routing.ConsistentHashRouter`, and enqueues
  per-worker sub-batches in submission order;
* collector worker processes (:mod:`repro.ingest.worker`) run
  ``partial_fit`` into shared-memory accumulator blocks;
* :class:`MergeCoordinator` folds the worker blocks into a fresh
  serving estimator through the existing ``load_shard_state`` /
  ``finalize`` path, so distributed results stay bitwise identical to
  the equivalent single-process ingest.

The tier runs only mechanisms that support sharded aggregation (TDG,
HDG, ITDG, IHDG, CALM): their per-grid counts are additive, so the
work splits across processes exactly.  The other mechanisms do all
their work in ``fit``; a service refitting them buffers raw rows in
its own process instead.

Back-pressure contract: worker inboxes are bounded queues
(:data:`QUEUE_BATCHES` deep), and ``submit`` blocks when a worker
falls behind — bounded memory, no loss.

Determinism: the tier's finalized estimator is a pure function of
``(mechanism config, seed, n_workers, router seed, submitted row
sequence)`` — independent of timing, because routing keys are
submission indices and every worker consumes its sub-batches FIFO.
``tests/test_distributed_ingest.py`` pins this against the
single-process execution of the same shard plan.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import queue as queue_module
import time
import weakref

import numpy as np

from ..mechanisms import mechanism_class, shard_seed
from .routing import ConsistentHashRouter
from .shared_state import (HEADER_BATCHES_DONE, HEADER_FIXED_FIELDS,
                           HEADER_TOTAL_REPORTS, AccumulatorLayout,
                           SharedAccumulatorBlock)
from .worker import WorkerSpec, worker_main

#: Virtual nodes per worker on the consistent-hash ring.
REPLICAS = 64

#: Depth of each worker's bounded inbox, in sub-batches.
QUEUE_BATCHES = 64

#: Seconds to wait for a worker's ready handshake before giving up.
STARTUP_TIMEOUT = 60.0

#: Seconds to wait for a worker's block lock.  A worker killed while
#: publishing (SIGKILL inside its locked ``partial_fit`` window) leaves
#: the lock held forever; every parent-side acquisition is bounded so a
#: dead worker surfaces as :class:`IngestWorkerError` instead of a
#: deadlock.
LOCK_TIMEOUT = 10.0


class IngestError(RuntimeError):
    """An operation the ingest tier cannot perform."""


class IngestWorkerError(IngestError):
    """A collector worker died or reported a fatal error."""


def _queue_depth(q) -> int | None:
    """Approximate queue depth; None where unsupported (macOS)."""
    try:
        return q.qsize()
    except NotImplementedError:
        return None


def _shutdown(processes, inboxes, outboxes, blocks) -> None:
    """Stop workers and release queues + shared memory (idempotent)."""
    for process, inbox in zip(processes, inboxes):
        if process.is_alive():
            try:
                inbox.put_nowait(("stop",))
            except queue_module.Full:
                process.terminate()
    for process in processes:
        process.join(timeout=5)
        if process.is_alive():
            process.terminate()
            process.join(timeout=5)
    for q in list(inboxes) + list(outboxes):
        q.close()
        q.cancel_join_thread()
    for block in blocks:
        block.close()


class MergeCoordinator:
    """Folds worker accumulators into a fresh serving estimator.

    The coordinator does not run on its own timer — the owner (a
    :class:`~repro.serving.QueryService` re-finalize policy, a
    benchmark loop) decides when to merge; the coordinator contributes
    the consistent fold and the merge-lag bookkeeping that ``/healthz``
    reports.
    """

    def __init__(self, tier: "IngestTier"):
        self.tier = tier
        self.merges = 0
        self.reports_merged = 0
        self.last_merge_seconds: float | None = None
        #: Epoch-publication bookkeeping: merged estimators the owning
        #: service actually swapped in as published read epochs.
        self.epochs_published = 0
        self.last_published_epoch: int | None = None

    def merge(self):
        """Flush, fold every worker's state, finalize a fresh estimator."""
        started = time.perf_counter()
        estimator, reports = self.tier._finalize_estimator()
        self.merges += 1
        self.reports_merged = reports
        self.last_merge_seconds = time.perf_counter() - started
        return estimator

    def record_publication(self, epoch_id: int) -> None:
        """Note that a merged estimator was published as ``epoch_id``.

        Called by the owning :class:`~repro.serving.QueryService` after
        its epoch swap, so ``/healthz`` can show how far merge output
        lags behind what readers currently observe.
        """
        self.epochs_published += 1
        self.last_published_epoch = int(epoch_id)

    @property
    def merge_lag_reports(self) -> int:
        """Reports ingested but not yet folded into a serving estimator."""
        return self.tier.reports_total - self.reports_merged

    def status(self) -> dict:
        return {
            "merges": self.merges,
            "reports_merged": self.reports_merged,
            "merge_lag_reports": self.merge_lag_reports,
            "last_merge_seconds": self.last_merge_seconds,
            "epochs_published": self.epochs_published,
            "last_published_epoch": self.last_published_epoch,
        }


class IngestTier:
    """Multi-process ingest: consistent-hash routed collector workers.

    Parameters
    ----------
    mechanism:
        Paper name of a mechanism that supports sharded aggregation
        (TDG, HDG, ITDG, IHDG, CALM); any other raises ``ValueError``.
    epsilon:
        Per-user privacy budget.
    n_workers:
        Number of collector processes.
    n_attributes, domain_size:
        Report schema (must be known up front to size shared memory).
    seed:
        Base seed; worker ``i`` collects under ``shard_seed(seed, i)``
        (the :func:`repro.mechanisms.shard_seed` convention).
    planning_users:
        Population fed to the granularity guideline when the mechanism
        has no explicit granularity.  Callers that learn it from the
        first batch must resolve it before constructing the tier.
    total_users:
        Forwarded to every worker's ``partial_fit`` (service setting).
    worker_states:
        Per-worker restore payloads from :meth:`capture_worker_states`
        (snapshot recovery); workers resume their exact accumulator
        and RNG state.
    key_base:
        First report key this tier will assign — the number of reports
        already routed before a restart, so WAL replay reproduces the
        original routing.
    """

    def __init__(self, mechanism: str, epsilon: float, *, n_workers: int,
                 n_attributes: int, domain_size: int,
                 seed: int | None = None,
                 planning_users: int | None = None,
                 total_users: int | None = None,
                 mechanism_kwargs: dict | None = None,
                 worker_states: list | None = None, key_base: int = 0):
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self._factory = mechanism_class(mechanism, sharded=True)
        self.mechanism = mechanism
        self.epsilon = float(epsilon)
        self.n_workers = int(n_workers)
        self.n_attributes = int(n_attributes)
        self.domain_size = int(domain_size)
        self.seed = seed
        self.planning_users = planning_users
        self.total_users = total_users
        self._mechanism_kwargs = dict(mechanism_kwargs or {})
        if worker_states is not None and len(worker_states) != n_workers:
            raise ValueError(
                f"got {len(worker_states)} worker states for {n_workers} "
                "workers; restore with the same worker count")

        template = self._factory(self.epsilon, **self._mechanism_kwargs)
        template.prepare_aggregation(self.n_attributes, self.domain_size,
                                     total_users=planning_users)
        self._slots = template.accumulator_slots()
        self._layout = AccumulatorLayout(self._slots)
        self._base_state = template.shard_state()

        start_methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in start_methods else "spawn")
        unregister = self._ctx.get_start_method() != "fork"

        self._router = ConsistentHashRouter(self.n_workers,
                                            replicas=REPLICAS,
                                            seed=seed or 0)
        self._blocks: list = []
        self._locks: list = []
        self._inboxes: list = []
        self._outboxes: list = []
        self._processes: list = []
        self._stray: dict[int, list] = {}
        self._next_key = int(key_base)
        self._global_seq = 0
        self._batches_routed = [0] * self.n_workers
        self._reports_routed = 0
        self.coordinator = MergeCoordinator(self)

        for index in range(self.n_workers):
            block = SharedAccumulatorBlock.create(self._layout)
            lock = self._ctx.Lock()
            inbox = self._ctx.Queue(maxsize=QUEUE_BATCHES)
            outbox = self._ctx.Queue()
            spec = WorkerSpec(
                index=index, mechanism=mechanism,
                epsilon=self.epsilon,
                seed=(shard_seed(seed, index) if seed is not None else None),
                mechanism_kwargs=dict(self._mechanism_kwargs),
                n_attributes=self.n_attributes,
                domain_size=self.domain_size,
                planning_users=planning_users, total_users=total_users,
                shm_name=block.name, slots=self._slots,
                initial_state=(worker_states[index]
                               if worker_states is not None else None),
                unregister_shm=unregister)
            process = self._ctx.Process(
                target=worker_main, args=(spec, inbox, outbox, lock),
                daemon=True, name=f"repro-ingest-{mechanism}-{index}")
            self._blocks.append(block)
            self._locks.append(lock)
            self._inboxes.append(inbox)
            self._outboxes.append(outbox)
            self._processes.append(process)
            process.start()
        self._finalizer = weakref.finalize(
            self, _shutdown, self._processes, self._inboxes, self._outboxes,
            self._blocks)
        for index in range(self.n_workers):
            self._await(index, "ready", STARTUP_TIMEOUT)
        self._restored_reports = sum(
            int(block.header[HEADER_TOTAL_REPORTS]) for block in self._blocks)

    # ------------------------------------------------------------------
    # Worker plumbing
    # ------------------------------------------------------------------
    def _await(self, index: int, kind: str, timeout: float):
        """Next outbox message of ``kind`` from one worker."""
        stray = self._stray.get(index)
        if stray:
            for position, message in enumerate(stray):
                if message[0] == kind:
                    return stray.pop(position)
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise IngestWorkerError(
                    f"timed out waiting for {kind!r} from collector worker "
                    f"{index}")
            try:
                message = self._outboxes[index].get(
                    timeout=min(remaining, 0.5))
            except queue_module.Empty:
                if not self._processes[index].is_alive():
                    raise IngestWorkerError(
                        f"collector worker {index} died (exit code "
                        f"{self._processes[index].exitcode}) before "
                        f"replying {kind!r}") from None
                continue
            if message[0] == "error":
                raise IngestWorkerError(
                    f"collector worker {index} failed:\n{message[2]}")
            if message[0] == kind:
                return message
            self._stray.setdefault(index, []).append(message)

    def _check_worker(self, index: int) -> None:
        """Raise if a worker reported an error or silently died."""
        while True:
            try:
                message = self._outboxes[index].get_nowait()
            except queue_module.Empty:
                break
            if message[0] == "error":
                raise IngestWorkerError(
                    f"collector worker {index} failed:\n{message[2]}")
            self._stray.setdefault(index, []).append(message)
        process = self._processes[index]
        if not process.is_alive():
            raise IngestWorkerError(
                f"collector worker {index} died (exit code "
                f"{process.exitcode}); restart the service to recover "
                "through the WAL replay path")

    @contextlib.contextmanager
    def _worker_lock(self, index: int, timeout: float = LOCK_TIMEOUT):
        """Bounded acquisition of one worker's block lock.

        A worker that dies holding its lock (SIGKILL mid-publish)
        abandons it; blocking indefinitely would deadlock the parent,
        so a timeout re-checks the worker and raises instead.
        """
        if not self._locks[index].acquire(timeout=timeout):
            self._check_worker(index)  # dead worker: the precise error
            raise IngestWorkerError(
                f"collector worker {index} held its lock for more than "
                f"{timeout}s; it is likely stuck — restart the service "
                "to recover through the WAL replay path")
        try:
            yield
        finally:
            self._locks[index].release()

    def worker_pids(self) -> list[int]:
        """OS pids of the collector workers (chaos tests kill these)."""
        return [process.pid for process in self._processes]

    # ------------------------------------------------------------------
    # Ingest path
    # ------------------------------------------------------------------
    @property
    def reports_routed(self) -> int:
        """Reports submitted through this tier instance."""
        return self._reports_routed

    @property
    def reports_total(self) -> int:
        """Reports in the tier overall (restored state + routed)."""
        return self._restored_reports + self._reports_routed

    @property
    def next_key(self) -> int:
        """Key the next submitted report will receive."""
        return self._next_key

    def submit(self, rows) -> dict:
        """Route one batch of reports to the collector workers.

        ``rows`` is an ``(n, d)`` integer array.  Each row's key is its
        global submission index; sub-batches preserve submission order
        per worker.  Blocks while any target worker's inbox is full.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.n_attributes:
            raise ValueError(
                f"rows must be (n, {self.n_attributes}); got shape "
                f"{rows.shape}")
        n = rows.shape[0]
        keys = np.arange(self._next_key, self._next_key + n, dtype=np.int64)
        split = self._router.split(keys)
        for worker_index in sorted(split):
            sequence = self._global_seq
            self._global_seq += 1
            self._check_worker(worker_index)
            self._inboxes[worker_index].put(
                ("batch", sequence, rows[split[worker_index]]))
            self._batches_routed[worker_index] += 1
        self._next_key += n
        self._reports_routed += n
        return {"submitted": n, "routed": n}

    def flush(self, timeout: float = 120.0) -> None:
        """Wait until every worker has applied all routed batches."""
        deadline = time.monotonic() + timeout
        while True:
            lagging = []
            for index in range(self.n_workers):
                if self._locks[index].acquire(timeout=0.5):
                    try:
                        done = int(
                            self._blocks[index].header[HEADER_BATCHES_DONE])
                    finally:
                        self._locks[index].release()
                else:
                    done = -1  # lock abandoned or long-held: keep waiting
                if done < self._batches_routed[index]:
                    lagging.append(index)
            if not lagging:
                return
            for index in lagging:
                self._check_worker(index)
            if time.monotonic() >= deadline:
                raise IngestError(
                    f"flush timed out after {timeout}s; workers still "
                    f"applying batches: {lagging}")
            time.sleep(0.002)

    # ------------------------------------------------------------------
    # Merge path
    # ------------------------------------------------------------------
    def merged_shard_state(self) -> dict:
        """Fold every worker's shared accumulators into one shard state.

        Flushes first, then copies each worker's block under its lock
        (a per-worker batch-consistent cut) and sums support vectors in
        worker order — the same left fold ``merge`` performs — so the
        result loads into ``load_shard_state`` and finalizes bitwise
        identically to the single-process execution of the shard plan.
        No JSON round-trip: the state dict carries the summed arrays.
        """
        self.flush()
        total_reports = 0
        slot_sums: dict[str, np.ndarray | None] = {
            key: None for key, _ in self._slots}
        slot_counts = [0] * len(self._slots)
        for index in range(self.n_workers):
            with self._worker_lock(index):
                header = self._blocks[index].header.copy()
                payload = {key: view.copy() for key, view
                           in self._blocks[index].views().items()}
            total_reports += int(header[HEADER_TOTAL_REPORTS])
            for position, (key, _) in enumerate(self._slots):
                slot_counts[position] += int(
                    header[HEADER_FIXED_FIELDS + position])
                if slot_sums[key] is None:
                    slot_sums[key] = payload[key]
                else:
                    slot_sums[key] += payload[key]
        accumulators: dict[str, dict] = {}
        for position, (key, _) in enumerate(self._slots):
            section, _, subkey = key.partition(":")
            entry = None
            if slot_counts[position] > 0:
                entry = {"supports": slot_sums[key],
                         "n_reports": slot_counts[position]}
            accumulators.setdefault(section, {})[subkey] = entry
        state = dict(self._base_state)
        state["total_reports"] = total_reports
        state["accumulators"] = accumulators
        return state

    def _finalize_estimator(self):
        """Build and finalize a fresh estimator from the workers' state."""
        state = self.merged_shard_state()
        clone = self._factory(self.epsilon, **self._mechanism_kwargs)
        clone.load_shard_state(state)
        clone.finalize()
        return clone, int(state["total_reports"])

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def capture_worker_states(self) -> list:
        """Per-worker restore payloads (shard + RNG state).

        Flushes first so each payload reflects every routed batch; the
        round-trip through :class:`IngestTier` construction with
        ``worker_states`` resumes the exact per-worker accumulator and
        RNG streams, which keeps post-restore ingest bitwise identical
        to an uninterrupted run.
        """
        self.flush()
        states = []
        for index in range(self.n_workers):
            self._inboxes[index].put(("state",))
        for index in range(self.n_workers):
            message = self._await(index, "state", STARTUP_TIMEOUT)
            states.append(message[2])
        return states

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Back-pressure and progress counters for ``/healthz``.

        Never blocks on a dead worker: if a block lock cannot be taken
        promptly (a worker SIGKILLed mid-publish abandons it), the
        header is read without the lock — the counters are advisory and
        monotonic, and ``alive`` still reports the process state.
        """
        workers = []
        for index in range(self.n_workers):
            if self._locks[index].acquire(timeout=0.5):
                try:
                    header = self._blocks[index].header.copy()
                finally:
                    self._locks[index].release()
            else:
                header = self._blocks[index].header.copy()
            workers.append({
                "index": index,
                "alive": self._processes[index].is_alive(),
                "queue_depth": _queue_depth(self._inboxes[index]),
                "batches_routed": self._batches_routed[index],
                "batches_done": int(header[HEADER_BATCHES_DONE]),
                "batches_pending": (self._batches_routed[index]
                                    - int(header[HEADER_BATCHES_DONE])),
                "reports_done": int(header[HEADER_TOTAL_REPORTS]),
            })
        return {
            "mechanism": self.mechanism,
            "n_workers": self.n_workers,
            "reports_routed": self._reports_routed,
            "reports_total": self.reports_total,
            "workers": workers,
            "merge": self.coordinator.status(),
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop workers, release queues and unlink shared memory."""
        self._finalizer()

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def __enter__(self) -> "IngestTier":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
