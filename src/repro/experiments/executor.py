"""Parallel, resumable execution of experiment-cell grids.

``run_experiment`` and ``sweep_parameter`` decompose into a grid of
independent **cells** — one per (configuration point, repetition,
mechanism) — because every cell derives all of its randomness from the
configuration seed alone:

* dataset:   ``default_rng(seed + 1_000_003 * repeat)``
* workload:  ``default_rng(seed + 7_000_003 * repeat + 17)``
* mechanism: ``default_rng(seed + 31 * repeat + position)``

No cell reads another cell's RNG stream, so executing them on a process
pool in any order reproduces the sequential loop bit-for-bit.  The
executor partitions pending cells into one contiguous chunk per worker
process and ships each chunk as a single task, so every worker is
dispatched exactly once — per-cell pickling round-trips and task
hand-off latency no longer dominate small sweeps.  Only the (small)
configuration dataclasses cross the boundary — datasets and workloads
are rebuilt worker-side from their seeds and memoized per worker
(:mod:`repro.experiments.cache`), which chunking exploits: contiguous
cells of one repetition share a worker and hit its warm memos; a
finished cell returns one float and one ``n_queries``-length error
vector.

With a :class:`~repro.experiments.cache.ResultCache`, completed cells
are skipped entirely on re-runs: the parent process resolves hits
before scheduling, stores misses as workers finish, and an interrupted
sweep resumes from whatever cells it completed.
"""

from __future__ import annotations

import concurrent.futures
import json
import os
import pickle
import warnings
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from ..mechanisms import build_mechanism
from ..metrics import (absolute_errors, mean_absolute_error, per_kind_errors,
                       workload_result_errors)
from ..queries import RangeQuery, query_kind
from .cache import (CellResult, ResultCache, _MemoStore, cell_key,
                    config_fingerprint, memoized_dataset, memoized_truths,
                    memoized_workload, true_answers)
from .config import ExperimentConfig

#: Signature of the optional workload override: (config, dataset, repeat).
WorkloadFactory = Callable[..., list]

#: Per-process memo of factory-built workloads and their exact answers,
#: so a worker evaluating several mechanisms of one repetition builds
#: the factory workload (and answers it over the full dataset) once.
#: Keyed by (config, repeat, factory identity); sound because parallel
#: execution already requires factories to be deterministic in those
#: inputs.
_factory_inputs_memo = _MemoStore(max_entries=4)


def _factory_identity(factory: WorkloadFactory) -> str:
    return (f"{getattr(factory, '__module__', '?')}"
            f".{getattr(factory, '__qualname__', repr(factory))}")


def score_workload(queries: list, estimates, truths) -> CellResult:
    """Fold one cell's estimates and truths into a :class:`CellResult`.

    Pure range workloads score exactly as before (flat absolute
    errors); mixed typed workloads score each result against its typed
    truth (:func:`repro.metrics.result_error`) and additionally record
    the query kinds and per-kind mean errors.  ``method``/``repeat``
    are filled by the caller.
    """
    if any(not isinstance(query, RangeQuery) for query in queries):
        errors = workload_result_errors(estimates, truths)
        return CellResult(method="", repeat=0, mae=float(errors.mean()),
                          per_query_errors=errors,
                          query_kinds=[query_kind(query) for query in queries],
                          per_kind_mae=per_kind_errors(queries, errors))
    return CellResult(method="", repeat=0,
                      mae=mean_absolute_error(estimates, truths),
                      per_query_errors=absolute_errors(estimates, truths))


@dataclass(frozen=True)
class Cell:
    """One schedulable unit: a mechanism at one config point and repetition."""

    config_index: int
    repeat: int
    position: int
    method: str


def evaluate_cell(config: ExperimentConfig, repeat: int, position: int,
                  method: str,
                  workload_factory: WorkloadFactory | None = None,
                  queries: list | None = None,
                  truths: np.ndarray | None = None) -> CellResult:
    """Execute one cell exactly as the sequential loop body does.

    ``queries``/``truths`` may be passed to reuse already-built inputs
    (the in-process path builds a factory workload and its exact answers
    once per repetition); otherwise both are rebuilt from the cell's
    seeds.
    """
    # Imported lazily: the runner imports this module at load time.
    from .runner import fit_sharded

    dataset = memoized_dataset(config, repeat)
    if queries is None:
        if workload_factory is None:
            queries = memoized_workload(config, repeat)
            truths = memoized_truths(config, repeat, dataset, queries)
        else:
            memo_key = json.dumps(
                [config_fingerprint(config), repeat,
                 _factory_identity(workload_factory)],
                sort_keys=True, default=str)

            def build_factory_inputs():
                built = workload_factory(config, dataset, repeat)
                return built, true_answers(dataset, built)

            queries, truths = _factory_inputs_memo.get_or_build(
                memo_key, build_factory_inputs)
    elif truths is None:
        truths = true_answers(dataset, queries)

    kwargs: dict[str, Any] = dict(config.mechanism_kwargs.get(method, {}))
    method_seed = config.seed + 31 * repeat + position
    mechanism = build_mechanism(method, config.epsilon, seed=method_seed,
                                **kwargs)
    if config.n_shards > 1 and mechanism.supports_sharding:
        mechanism = fit_sharded(method, method_seed, kwargs, dataset, config)
    else:
        mechanism.fit(dataset)
    estimates = mechanism.answer_workload(queries)
    result = score_workload(queries, estimates, truths)
    result.method = method
    result.repeat = repeat
    return result


def _evaluate_cell_task(payload: tuple) -> tuple[int, CellResult]:
    """Worker-side entry point; must stay module-level for pickling."""
    task_index, config, repeat, position, method, workload_factory = payload
    result = evaluate_cell(config, repeat, position, method,
                           workload_factory=workload_factory)
    return task_index, result


def _evaluate_cell_chunk(payload: tuple) -> list[tuple[int, CellResult]]:
    """Worker-side chunk entry point; must stay module-level for pickling.

    Evaluates a whole contiguous slice of the pending list in order, so
    one warm worker process (and its per-process memos) serves every
    cell of the chunk.
    """
    tasks, workload_factory = payload
    return [_evaluate_cell_task((*task, workload_factory)) for task in tasks]


def chunk_indices(n_tasks: int, n_chunks: int) -> list[range]:
    """Partition ``range(n_tasks)`` into ``n_chunks`` contiguous,
    near-equal ranges (earlier chunks take the remainder).

    Contiguity is the point: the pending list is repeat-major, so a
    contiguous chunk keeps one repetition's cells on one worker, where
    the dataset/workload memos are already warm.
    """
    if n_tasks < 0:
        raise ValueError("n_tasks must be >= 0")
    n_chunks = max(1, min(int(n_chunks), n_tasks))
    base, extra = divmod(n_tasks, n_chunks)
    chunks: list[range] = []
    start = 0
    for index in range(n_chunks):
        size = base + (1 if index < extra else 0)
        chunks.append(range(start, start + size))
        start += size
    return chunks


def _is_picklable(value: Any) -> bool:
    try:
        pickle.dumps(value)
    except Exception:
        return False
    return True


def _available_cpus() -> int:
    """Physical parallelism available to worker processes (test seam)."""
    return os.cpu_count() or 1


def resolve_n_jobs(configs: list[ExperimentConfig],
                   n_jobs: int | None) -> int:
    """The worker count for a grid: explicit override or the first config's."""
    if n_jobs is not None:
        return max(1, int(n_jobs))
    if configs:
        return max(1, int(configs[0].n_jobs))
    return 1


def execute_grid(configs: list[ExperimentConfig],
                 workload_factory: WorkloadFactory | None = None,
                 cache: ResultCache | None = None,
                 n_jobs: int | None = None) -> list[dict[tuple[int, str],
                                                         CellResult]]:
    """Evaluate every cell of every configuration, in parallel when asked.

    Parameters
    ----------
    configs:
        The configuration points (one for ``run_experiment``, one per
        sweep value for ``sweep_parameter``).  Each is validated first.
    workload_factory:
        Optional workload override.  Cells with a factory bypass the
        result cache (the factory's output is not part of the cache
        key) and, when parallel, the factory must be picklable and
        deterministic in ``(config, dataset, repeat)`` — closures fall
        back to in-process execution with a warning.
    cache:
        Optional on-disk cell cache; hits skip execution entirely.
    n_jobs:
        Worker-process count; defaults to the first config's ``n_jobs``
        field.  ``1`` runs every cell in-process in deterministic order.
        Requests beyond the machine's core count are capped — forked
        workers that cannot run concurrently only add start-up and
        context-switch overhead (the source of the old negative
        scaling on small machines); a request that caps to one worker
        takes the in-process path outright, skipping the fork.

    Returns
    -------
    list of dict
        Per configuration, a map from ``(repeat, method)`` to that
        cell's result.  Cells are bit-for-bit identical regardless of
        ``n_jobs`` or cache state.
    """
    for config in configs:
        config.validate()
    jobs = resolve_n_jobs(configs, n_jobs)

    # Repeat-major order: all config points of one repetition run
    # consecutively, so a sweep whose points share data parameters hits
    # the (FIFO-bounded) dataset memo instead of rebuilding each
    # repetition's dataset once per point.  Cell results do not depend
    # on execution order.
    max_repeats = max((config.n_repeats for config in configs), default=0)
    cells = [Cell(config_index, repeat, position, method)
             for repeat in range(max_repeats)
             for config_index, config in enumerate(configs)
             if repeat < config.n_repeats
             for position, method in enumerate(config.methods)]

    outcomes: dict[Cell, CellResult] = {}
    pending: list[Cell] = []
    use_cache = cache is not None and workload_factory is None
    for cell in cells:
        if use_cache:
            cached = cache.load(cell_key(configs[cell.config_index],
                                         cell.repeat, cell.method))
            if cached is not None:
                outcomes[cell] = cached
                continue
        pending.append(cell)

    if (jobs > 1 and pending and workload_factory is not None
            and not _is_picklable(workload_factory)):
        warnings.warn(
            "workload_factory is not picklable (closure or lambda?); "
            "falling back to in-process execution (n_jobs=1)",
            stacklevel=2)
        jobs = 1

    def record(cell: Cell, result: CellResult) -> None:
        """Keep a finished cell, persisting it immediately so an
        interrupted run resumes from every cell it completed."""
        outcomes[cell] = result
        if use_cache:
            cache.store(cell_key(configs[cell.config_index], cell.repeat,
                                 cell.method), result)

    effective_jobs = min(jobs, len(pending), _available_cpus())
    if effective_jobs <= 1:
        # Build factory workloads (and their exact answers) once per
        # (config, repetition), like the original sequential loop did.
        factory_inputs: dict[tuple[int, int], tuple[list, np.ndarray]] = {}
        for cell in pending:
            config = configs[cell.config_index]
            queries = truths = None
            if workload_factory is not None:
                inputs_key = (cell.config_index, cell.repeat)
                if inputs_key not in factory_inputs:
                    dataset = memoized_dataset(config, cell.repeat)
                    built = workload_factory(config, dataset, cell.repeat)
                    factory_inputs[inputs_key] = (
                        built, true_answers(dataset, built))
                queries, truths = factory_inputs[inputs_key]
            record(cell, evaluate_cell(config, cell.repeat, cell.position,
                                       cell.method,
                                       workload_factory=workload_factory,
                                       queries=queries, truths=truths))
    else:
        # One contiguous chunk per worker: each worker process receives
        # exactly one task covering its whole share of the pending list,
        # so dispatch/pickle overhead is paid per worker, not per cell.
        # Results land (and persist to the cache) as whole chunks
        # finish.
        chunks = chunk_indices(len(pending), effective_jobs)
        payloads = [([(task_index, configs[pending[task_index].config_index],
                       pending[task_index].repeat,
                       pending[task_index].position,
                       pending[task_index].method)
                      for task_index in chunk],
                     workload_factory)
                    for chunk in chunks]
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=len(payloads)) as pool:
            for chunk_results in pool.map(_evaluate_cell_chunk, payloads):
                for task_index, result in chunk_results:
                    record(pending[task_index], result)

    grouped: list[dict[tuple[int, str], CellResult]] = [{} for _ in configs]
    for cell, result in outcomes.items():
        grouped[cell.config_index][(cell.repeat, cell.method)] = result
    return grouped


def validate_equal_workload_lengths(config: ExperimentConfig,
                                    cells: dict[tuple[int, str], CellResult]
                                    ) -> None:
    """Reject variable-length workloads across repetitions with a clear error.

    Per-query errors are averaged over repetitions with ``np.stack``,
    which needs every repetition's workload to have the same length; a
    ``workload_factory`` that varies the query count per repetition used
    to surface as an opaque stack-shape crash.
    """
    lengths: dict[int, int] = {}
    kinds: dict[int, list[str] | None] = {}
    for (repeat, _method), result in cells.items():
        lengths.setdefault(repeat, int(result.per_query_errors.shape[0]))
        kinds.setdefault(repeat, result.query_kinds)
    distinct = sorted(set(lengths.values()))
    if len(distinct) > 1:

        def describe(repeat: int) -> str:
            """'repeat 0: 12 queries (8 range, 4 marginal)'."""
            summary = f"repeat {repeat}: {lengths[repeat]} queries"
            if kinds.get(repeat):
                counts: dict[str, int] = {}
                for kind in kinds[repeat]:
                    counts[kind] = counts.get(kind, 0) + 1
                breakdown = ", ".join(f"{count} {kind}"
                                      for kind, count in sorted(counts.items()))
                summary += f" ({breakdown})"
            return summary

        # Majority length = the expected one; the anomaly is the first
        # repetition that deviates from it (ties go to the length seen
        # in the earliest repetition).
        counts: dict[int, int] = {}
        for repeat in sorted(lengths):
            counts[lengths[repeat]] = counts.get(lengths[repeat], 0) + 1
        majority = max(counts, key=counts.get)
        baseline = min(repeat for repeat in lengths
                       if lengths[repeat] == majority)
        offender = min(repeat for repeat in lengths
                       if lengths[repeat] != majority)
        raise ValueError(
            "workload_factory returned workloads of different lengths across "
            f"repetitions ({', '.join(describe(r) for r in sorted(lengths))}); "
            f"repeat {offender} first disagrees with repeat {baseline}. "
            "Per-query errors can only be averaged over repetitions when "
            "every repetition answers the same number of queries")

    # Equal lengths are not enough for mixed workloads: per-query errors
    # are averaged position-wise, so the query *kind* at each position
    # must agree across repetitions too.  Pure-range cells record no
    # kind list — that means "range at every position", which must
    # still be compared against typed repetitions of the same length.
    recorded = {repeat: (list(kind_list) if kind_list is not None
                         else ["range"] * lengths[repeat])
                for repeat, kind_list in kinds.items()}
    if len({tuple(kind_list) for kind_list in recorded.values()}) > 1:
        baseline = min(recorded)
        offender = next(repeat for repeat in sorted(recorded)
                        if recorded[repeat] != recorded[baseline])
        position = next(index for index, (a, b)
                        in enumerate(zip(recorded[offender],
                                         recorded[baseline]))
                        if a != b)
        raise ValueError(
            "workload_factory returned kind-misaligned workloads across "
            f"repetitions: query {position} is a "
            f"{recorded[offender][position]} query in repeat {offender} but "
            f"a {recorded[baseline][position]} query in repeat {baseline}; "
            "per-query errors can only be averaged position-wise when every "
            "repetition asks the same kind at each position")


def assemble_method_series(config: ExperimentConfig,
                           cells: dict[tuple[int, str], CellResult],
                           method: str) -> tuple[list[float], np.ndarray]:
    """Per-repetition MAEs (in repeat order) and the averaged error vector."""
    maes = [cells[(repeat, method)].mae for repeat in range(config.n_repeats)]
    errors = np.stack([cells[(repeat, method)].per_query_errors
                       for repeat in range(config.n_repeats)])
    return maes, np.mean(errors, axis=0)
