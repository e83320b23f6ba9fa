"""Ingest tier orchestration: router, collector workers, merge.

:class:`IngestTier` is the parent-process face of the multi-process
ingest path (see ``docs/ingest.md``):

* :meth:`~IngestTier.submit` assigns each report a global key (its
  submission index), routes rows to workers through a
  :class:`~repro.ingest.routing.ConsistentHashRouter`, and enqueues
  per-worker sub-batches in submission order;
* collector worker processes (:mod:`repro.ingest.worker`) run
  ``partial_fit`` into their own private mechanism instance;
* :meth:`~IngestTier.merge` asks every worker for its ``shard_state``
  and folds the replies into a fresh serving estimator through the
  existing ``load_shard_state`` / ``merge`` / ``finalize`` path, so
  distributed results stay bitwise identical to the equivalent
  single-process ingest.

The tier runs the mechanisms that support sharded aggregation (TDG,
HDG, ITDG, IHDG, CALM, MSW, Uni): their per-grid or per-attribute
counts are additive, so the work splits across processes exactly.
HIO and LHIO do all their work in ``fit`` and are experiment-only.

Back-pressure contract: worker inboxes are bounded queues
(:data:`QUEUE_BATCHES` deep), and ``submit`` blocks when a worker
falls behind — bounded memory, no loss.

Consistency: one tier lock serializes routing a whole batch and the
state exchange (a ``("state",)`` request to every inbox, then every
reply).  Inboxes are FIFO, so each reply reflects exactly the batches
routed before the request, and a merge or snapshot cut always falls
between whole submitted batches.

Determinism: the tier's finalized estimator is a pure function of
``(mechanism config, seed, n_workers, router seed, submitted row
sequence)`` — independent of timing, because routing keys are
submission indices and every worker consumes its sub-batches FIFO.
``tests/test_distributed_ingest.py`` pins this against the
single-process execution of the same shard plan.
"""

from __future__ import annotations

import multiprocessing
import queue as queue_module
import threading
import time
import weakref

import numpy as np

from ..mechanisms import mechanism_class, shard_seed
from .routing import ConsistentHashRouter
from .worker import PROGRESS_BATCHES, PROGRESS_REPORTS, WorkerSpec, worker_main

#: Virtual nodes per worker on the consistent-hash ring.
REPLICAS = 64

#: Depth of each worker's bounded inbox, in sub-batches.
QUEUE_BATCHES = 64

#: Seconds to wait for a worker's reply (the ready handshake, or its
#: state once every batch queued ahead of the request is applied).
REPLY_TIMEOUT = 60.0


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


def _failure(index: int, message: tuple, expected: str) -> IngestWorkerError:
    """The error for an outbox ``message`` the parent did not expect."""
    if message[0] == "error":
        return IngestWorkerError(
            f"collector worker {index} failed:\n{message[2]}")
    return IngestWorkerError(
        f"collector worker {index} sent {message[0]!r} where {expected} "
        "was expected")


def _shutdown(processes, inboxes, outboxes) -> None:
    """Stop workers and release their queues (idempotent)."""
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


class IngestTier:
    """Multi-process ingest: consistent-hash routed collector workers.

    Parameters
    ----------
    mechanism:
        Paper name of a mechanism that supports sharded aggregation
        (TDG, HDG, ITDG, IHDG, CALM, MSW, Uni); HIO and LHIO raise
        ``ValueError``.
    epsilon:
        Per-user privacy budget.
    n_workers:
        Number of collector processes.
    n_attributes, domain_size:
        Report schema, fixed for the tier's lifetime.
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
        # Reject a bad configuration before any process starts.
        self._fresh().prepare_aggregation(self.n_attributes,
                                          self.domain_size,
                                          total_users=planning_users)

        start_methods = multiprocessing.get_all_start_methods()
        self._ctx = multiprocessing.get_context(
            "fork" if "fork" in start_methods else "spawn")
        self._router = ConsistentHashRouter(self.n_workers,
                                            replicas=REPLICAS,
                                            seed=seed or 0)
        #: Serializes routing a whole batch against the state exchange.
        self._lock = threading.Lock()
        self._progress: list = []
        self._inboxes: list = []
        self._outboxes: list = []
        self._processes: list = []
        self._next_key = int(key_base)
        self._batches_routed = [0] * self.n_workers
        self._reports_routed = 0
        self.merges = 0
        self.reports_merged = 0
        self.last_merge_seconds: float | None = None
        #: Merged estimators the owning service published as read epochs.
        self.epochs_published = 0
        self.last_published_epoch: int | None = None

        for index in range(self.n_workers):
            progress = self._ctx.RawArray("q", 2)
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
                initial_state=(worker_states[index]
                               if worker_states is not None else None))
            process = self._ctx.Process(
                target=worker_main, args=(spec, inbox, outbox, progress),
                daemon=True, name=f"repro-ingest-{mechanism}-{index}")
            self._progress.append(progress)
            self._inboxes.append(inbox)
            self._outboxes.append(outbox)
            self._processes.append(process)
            process.start()
        self._finalizer = weakref.finalize(
            self, _shutdown, self._processes, self._inboxes, self._outboxes)
        self._restored_reports = sum(
            int(self._await(index, "ready")[2])
            for index in range(self.n_workers))

    def _fresh(self):
        """An empty instance of the tier's mechanism configuration."""
        return self._factory(self.epsilon, **self._mechanism_kwargs)

    # ------------------------------------------------------------------
    # Worker plumbing
    # ------------------------------------------------------------------
    def _await(self, index: int, kind: str):
        """One worker's next outbox message, which must be ``kind``."""
        deadline = time.monotonic() + REPLY_TIMEOUT
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
            if message[0] != kind:
                raise _failure(index, message, repr(kind))
            return message

    def _check_worker(self, index: int) -> None:
        """Raise if a worker reported an error or silently died.

        Callers hold the tier lock, so no state reply is in flight and
        any outbox message is an error report.
        """
        try:
            message = self._outboxes[index].get_nowait()
        except queue_module.Empty:
            pass
        else:
            raise _failure(index, message, "no message")
        process = self._processes[index]
        if not process.is_alive():
            raise IngestWorkerError(
                f"collector worker {index} died (exit code "
                f"{process.exitcode}); restart the service to recover "
                "through the WAL replay path")

    def _exchange(self) -> list[dict]:
        """Every worker's ``{"shard_state", "rng_state"}``, in order.

        Each reply reflects every batch routed before the request: the
        inboxes are FIFO and the tier lock keeps ``submit`` out until
        every reply is in.
        """
        with self._lock:
            for index in range(self.n_workers):
                self._check_worker(index)
            for inbox in self._inboxes:
                inbox.put(("state",))
            return [self._await(index, "state")[2]
                    for index in range(self.n_workers)]

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

        ``rows`` is an ``(n, d)`` integer array with every value in
        ``[0, domain_size)``; a batch that is not is rejected whole,
        before any row is routed.  Each row's key is its global
        submission index; sub-batches preserve submission order per
        worker.  Blocks while any target worker's inbox is full.
        """
        rows = np.asarray(rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != self.n_attributes:
            raise ValueError(
                f"rows must be (n, {self.n_attributes}); got shape "
                f"{rows.shape}")
        if rows.size and (rows.min() < 0
                          or rows.max() >= self.domain_size):
            raise ValueError(
                "all attribute values must lie in [0, domain_size); got "
                f"[{rows.min()}, {rows.max()}] with c={self.domain_size}")
        n = rows.shape[0]
        with self._lock:
            keys = np.arange(self._next_key, self._next_key + n,
                             dtype=np.int64)
            split = sorted(self._router.split(keys).items())
            for worker_index, _ in split:
                self._check_worker(worker_index)
            for worker_index, positions in split:
                self._inboxes[worker_index].put(("batch", rows[positions]))
                self._batches_routed[worker_index] += 1
            self._next_key += n
            self._reports_routed += n
        return {"submitted": n, "routed": n}

    def flush(self, timeout: float = 120.0) -> None:
        """Wait until every worker has applied all routed batches.

        Raises :class:`IngestWorkerError` as soon as any worker is dead
        or has failed, whether or not it still had batches to apply.
        """
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                for index in range(self.n_workers):
                    self._check_worker(index)
            lagging = [index for index in range(self.n_workers)
                       if self._progress[index][PROGRESS_BATCHES]
                       < self._batches_routed[index]]
            if not lagging:
                return
            if time.monotonic() >= deadline:
                raise IngestError(
                    f"flush timed out after {timeout}s; workers still "
                    f"applying batches: {lagging}")
            time.sleep(0.002)

    # ------------------------------------------------------------------
    # Merge path
    # ------------------------------------------------------------------
    def merge(self):
        """Fold every worker's shard state into a fresh finalized estimator.

        The fold is the single-process shard plan: load worker 0's
        state, ``merge`` workers 1…N−1 in order, then ``finalize``.
        The tier does not merge on its own timer — the owner (a
        :class:`~repro.serving.QueryService` re-finalize policy, a
        benchmark loop) decides when.
        """
        started = time.perf_counter()
        states = [reply["shard_state"] for reply in self._exchange()]
        estimator = self._fresh().load_shard_state(states[0])
        for state in states[1:]:
            estimator.merge(self._fresh().load_shard_state(state))
        estimator.finalize()
        self.merges += 1
        self.reports_merged = sum(int(state["total_reports"])
                                  for state in states)
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
        return self.reports_total - self.reports_merged

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def capture_worker_states(self) -> list:
        """Per-worker restore payloads (shard + RNG state).

        Each payload reflects every routed batch; the round-trip
        through :class:`IngestTier` construction with ``worker_states``
        resumes the exact per-worker accumulator and RNG streams, which
        keeps post-restore ingest bitwise identical to an uninterrupted
        run.
        """
        return self._exchange()

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """Back-pressure and progress counters for ``/healthz``.

        Lock-free, so it never waits on a state exchange or a dead
        worker: the progress counters are advisory and monotonic, and
        ``alive`` reports the process state.
        """
        workers = []
        for index in range(self.n_workers):
            batches_done = int(self._progress[index][PROGRESS_BATCHES])
            workers.append({
                "index": index,
                "alive": self._processes[index].is_alive(),
                "queue_depth": _queue_depth(self._inboxes[index]),
                "batches_routed": self._batches_routed[index],
                "batches_done": batches_done,
                "batches_pending": self._batches_routed[index] - batches_done,
                "reports_done": int(self._progress[index][PROGRESS_REPORTS]),
            })
        return {
            "mechanism": self.mechanism,
            "n_workers": self.n_workers,
            "reports_routed": self._reports_routed,
            "reports_total": self.reports_total,
            "workers": workers,
            "merge": {
                "merges": self.merges,
                "reports_merged": self.reports_merged,
                "merge_lag_reports": self.merge_lag_reports,
                "last_merge_seconds": self.last_merge_seconds,
                "epochs_published": self.epochs_published,
                "last_published_epoch": self.last_published_epoch,
            },
        }

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the workers and release their queues."""
        self._finalizer()

    @property
    def closed(self) -> bool:
        return not self._finalizer.alive

    def __enter__(self) -> "IngestTier":
        return self

    def __exit__(self, exc_type, exc_value, traceback) -> None:
        self.close()
