"""On-disk experiment-cell cache and in-process input memoization.

Figure reproduction evaluates a grid of (sweep value x repetition x
mechanism) cells, and interrupting or re-running a sweep used to redo
every cell from scratch.  Two layers make the grid incremental:

* :class:`ResultCache` — a directory of JSON files, one per completed
  cell, keyed by a stable SHA-256 hash of the fully-resolved
  configuration point plus the repetition index and mechanism name.
  The execution-only knob ``n_jobs`` and the number of repetitions are
  excluded from the key: they do not change what a cell computes, so a
  sweep resumed with more workers or more repetitions still hits every
  cell it already finished.  Any field that does change the numbers —
  population, budget, seed, sharding, the query kinds, the mechanism
  line-up (whose order fixes the per-cell seed) — invalidates the key.
* Input memoization — within one process, datasets, workloads and
  ground-truth answers are rebuilt from their generation parameters
  only when those parameters change.  An epsilon sweep re-uses one
  dataset per repetition across all sweep points instead of
  regenerating identical data per point; executor workers inherit the
  same memo, so each worker builds a dataset at most once per
  (parameters, repetition) pair.

Everything here is deterministic: a memoized object is bit-for-bit the
object the un-memoized builder would have produced, because the builders
derive their randomness from the key fields alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
from collections import OrderedDict
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Callable

import numpy as np

from ..datasets import Dataset, make_dataset
from ..queries import RangeQuery, WorkloadGenerator
from ..queries import answer_workload as true_range_answers
from ..queries import evaluate_workload as true_evaluate_workload
from .config import ExperimentConfig

#: Bump when the cached cell schema or the cell computation changes
#: incompatibly; old entries then miss instead of being misread.
#: v2: cells carry query kinds and per-kind MAEs for mixed workloads.
#: v3: sharded CALM collects full-resolution grids (v2 cells held TDG
#: guideline-grid numbers under the CALM name).
#: v4: MSW shards under ``n_shards > 1`` (v3 cells held one-shot numbers).
CACHE_VERSION = 4

#: Config fields that do not affect what one cell computes.
EXECUTION_ONLY_FIELDS = frozenset({"n_jobs", "n_repeats"})


def _canonical(value: Any) -> Any:
    """JSON-stable form of a config field value (tuples, numpy scalars...)."""
    if isinstance(value, dict):
        return {str(key): _canonical(item) for key, item in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(item) for item in value]
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def config_fingerprint(config: ExperimentConfig) -> dict:
    """Resolved, JSON-stable view of every result-affecting config field."""
    fingerprint = {}
    for field_info in fields(config):
        if field_info.name in EXECUTION_ONLY_FIELDS:
            continue
        fingerprint[field_info.name] = _canonical(getattr(config, field_info.name))
    return fingerprint


def cell_key(config: ExperimentConfig, repeat: int, method: str) -> str:
    """Stable cache key of one (config point, repetition, mechanism) cell."""
    payload = {
        "version": CACHE_VERSION,
        "config": config_fingerprint(config),
        "repeat": int(repeat),
        "method": method,
    }
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


@dataclass
class CellResult:
    """Outcome of one executed cell: the MAE and per-query errors.

    Mixed-kind workloads additionally record each query's kind (aligned
    with ``per_query_errors``) and the per-kind mean errors; pure range
    workloads leave both None.
    """

    method: str
    repeat: int
    mae: float
    per_query_errors: np.ndarray
    query_kinds: list[str] | None = None
    per_kind_mae: dict[str, float] | None = None

    def to_dict(self) -> dict:
        """JSON-serialisable form (what the on-disk cache stores)."""
        return {
            "method": self.method,
            "repeat": self.repeat,
            "mae": self.mae,
            "per_query_errors": self.per_query_errors.tolist(),
            "query_kinds": self.query_kinds,
            "per_kind_mae": self.per_kind_mae,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CellResult":
        per_kind = payload.get("per_kind_mae")
        return cls(method=str(payload["method"]), repeat=int(payload["repeat"]),
                   mae=float(payload["mae"]),
                   per_query_errors=np.asarray(payload["per_query_errors"],
                                               dtype=float),
                   query_kinds=payload.get("query_kinds"),
                   per_kind_mae=({str(kind): float(value)
                                  for kind, value in per_kind.items()}
                                 if per_kind is not None else None))


class ResultCache:
    """Directory-backed cell cache with hit/miss accounting.

    Entries are written atomically (temp file + rename) so an
    interrupted run never leaves a truncated entry behind; unreadable or
    schema-mismatched entries count as misses and are overwritten.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"{key}.json"

    def load(self, key: str) -> CellResult | None:
        """Cached cell for ``key``, or None (and a counted miss)."""
        path = self._path(key)
        try:
            payload = json.loads(path.read_text())
            result = CellResult.from_dict(payload)
        except (OSError, ValueError, KeyError, TypeError):
            self.misses += 1
            return None
        self.hits += 1
        return result

    def store(self, key: str, result: CellResult) -> None:
        """Persist one completed cell under its key (atomic write)."""
        path = self._path(key)
        # A fresh temp name per write keeps the rename atomic even when
        # concurrent sweeps share one cache directory and finish the
        # same cell; both then promote a complete file.
        descriptor, temporary = tempfile.mkstemp(dir=self.directory,
                                                 suffix=".tmp")
        try:
            with os.fdopen(descriptor, "w") as handle:
                handle.write(json.dumps(result.to_dict()))
            os.replace(temporary, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(temporary)
            raise

    def __len__(self) -> int:
        return sum(1 for _ in self.directory.glob("*.json"))

    def stats(self) -> str:
        """Human-readable hit/miss summary (printed by the CLI)."""
        return f"{self.hits} hits, {self.misses} misses ({self.directory})"


# ----------------------------------------------------------------------
# Deterministic input builders (moved here from the runner so the
# executor's worker processes can construct inputs without importing the
# runner's mechanism registry).
# ----------------------------------------------------------------------
def build_dataset(config: ExperimentConfig, repeat: int) -> Dataset:
    """The repetition's dataset, derived from the config's data fields only."""
    rng = np.random.default_rng(config.seed + 1_000_003 * repeat)
    return make_dataset(config.dataset, config.n_users, config.n_attributes,
                        config.domain_size, rng=rng, **config.dataset_kwargs)


def build_workload(config: ExperimentConfig, repeat: int) -> list[RangeQuery]:
    """The repetition's default random workload.

    ``config.query_kinds == ("range",)`` (the paper's default) keeps the
    original pure range workload and RNG stream; any other tuple cycles
    the listed typed IR kinds round-robin.
    """
    rng = np.random.default_rng(config.seed + 7_000_003 * repeat + 17)
    generator = WorkloadGenerator(config.n_attributes, config.domain_size, rng=rng)
    if config.is_mixed_workload:
        return generator.mixed_workload(config.n_queries,
                                        config.query_dimension, config.volume,
                                        query_kinds=tuple(config.query_kinds),
                                        k=config.top_k)
    return generator.random_workload(config.n_queries, config.query_dimension,
                                     config.volume)


def dataset_memo_key(config: ExperimentConfig, repeat: int) -> str:
    """Key over exactly the fields :func:`build_dataset` reads."""
    payload = _canonical([config.dataset, config.n_users, config.n_attributes,
                          config.domain_size, config.seed,
                          config.dataset_kwargs, repeat])
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))

def workload_memo_key(config: ExperimentConfig, repeat: int) -> str:
    """Key over exactly the fields :func:`build_workload` reads."""
    payload = [config.n_attributes, config.domain_size, config.seed,
               config.n_queries, config.query_dimension, config.volume,
               list(config.query_kinds), config.top_k, repeat]
    return json.dumps(payload, separators=(",", ":"))


#: Every live memo store, so :func:`clear_memos` can reset them all.
_ALL_MEMO_STORES: list["_MemoStore"] = []


class _MemoStore:
    """Tiny FIFO-bounded memo; bounded because datasets can be tens of MB."""

    def __init__(self, max_entries: int):
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[str, Any] = OrderedDict()
        _ALL_MEMO_STORES.append(self)

    def get_or_build(self, key: str, builder: Callable[[], Any]) -> Any:
        if key in self._entries:
            self._entries.move_to_end(key)
            return self._entries[key]
        value = builder()
        self._entries[key] = value
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
        return value

    def clear(self) -> None:
        self._entries.clear()


_dataset_memo = _MemoStore(max_entries=3)
_workload_memo = _MemoStore(max_entries=8)
_truths_memo = _MemoStore(max_entries=8)


def memoized_dataset(config: ExperimentConfig, repeat: int) -> Dataset:
    """Dataset for (config, repeat), reused while its parameters repeat.

    Datasets are treated as immutable by every mechanism (collection only
    reads ``values``), so sharing one instance across sweep points is
    safe and exact.
    """
    return _dataset_memo.get_or_build(dataset_memo_key(config, repeat),
                                      lambda: build_dataset(config, repeat))


def memoized_workload(config: ExperimentConfig, repeat: int) -> list[RangeQuery]:
    return _workload_memo.get_or_build(workload_memo_key(config, repeat),
                                       lambda: build_workload(config, repeat))


def true_answers(dataset: Dataset, queries: list):
    """Exact answers of a workload: flat floats, or typed results if mixed.

    Dispatches on the workload's *content* — the same check the
    mechanisms' ``answer_workload`` applies — so truths and estimates
    always come back in matching shapes (a mixed ``query_kinds`` config
    can still generate an all-range workload when ``n_queries`` is
    smaller than the kind cycle).
    """
    if any(not isinstance(query, RangeQuery) for query in queries):
        return true_evaluate_workload(dataset, queries)
    return true_range_answers(dataset, queries)


def memoized_truths(config: ExperimentConfig, repeat: int, dataset: Dataset,
                    queries: list):
    """Exact workload answers, reused across the mechanisms of one cell row.

    A float vector for pure range workloads; a list of typed
    :class:`~repro.queries.QueryResult` objects for mixed workloads.
    """
    key = dataset_memo_key(config, repeat) + "|" + workload_memo_key(config, repeat)
    return _truths_memo.get_or_build(key,
                                     lambda: true_answers(dataset, queries))


def clear_memos() -> None:
    """Drop every memoized input (tests and benchmarks)."""
    for store in _ALL_MEMO_STORES:
        store.clear()
