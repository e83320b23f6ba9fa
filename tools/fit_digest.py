"""Print a digest of ``fit`` outputs, to show a change leaves them bitwise.

Fits each named mechanism with fixed seeds on a few fixed datasets and
hashes its ``save_state`` document together with its answers to a fixed
range workload and its ``answer_typed`` results for a fixed mixed
workload (all five query kinds, λ ≤ 3 ranges, points and counts, 1- and
2-attribute marginal and top-k tables).  The typed results are hashed
through their wire form, whose floats print round-trip exact.

Every shardable mechanism is also run through the sharded path on the
same cases: two shards each ``partial_fit`` one half of the dataset
with ``total_users`` set, both shards' ``shard_state`` documents are
hashed, and a fresh estimator restores the first document with
``load_shard_state``, merges the second, finalizes, and is hashed like
a fitted one.  ``TOTAL`` covers the fitted path alone and ``SHARDED
TOTAL`` the sharded path.  Run it on two checkouts and compare the last
two lines::

    PYTHONPATH=src python tools/fit_digest.py MSW Uni
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from repro.datasets import Dataset, make_dataset
from repro.mechanisms import build_mechanism, shard_seed
from repro.queries import WorkloadGenerator

#: (dataset, n, d, c): a mid-size case, a small one, a wide one, and one
#: with fewer users than attributes (some attributes get no reports).
CASES = [("normal", 20_000, 4, 32), ("laplace", 5_000, 3, 16),
         ("uniform", 3_001, 6, 64), ("normal", 7, 5, 8)]
SEEDS = (0, 5, 123)


def _document(document: dict) -> bytes:
    return json.dumps(document, sort_keys=True).encode()


def _fitted_blob(mechanism, queries: list, typed: list) -> bytes:
    """A fitted estimator's state, range answers and typed results."""
    return (_document(mechanism.save_state())
            + np.asarray(mechanism.answer_workload(queries)).tobytes()
            + json.dumps([result.to_wire() for result
                          in mechanism.answer_typed(typed)]).encode())


def _sharded_blob(name: str, seed: int, dataset: Dataset, queries: list,
                  typed: list) -> bytes:
    """Two shards' states, then their restored, merged and finalized
    estimator."""
    halves = np.array_split(dataset.values, 2)
    states = [json.loads(_document(
        build_mechanism(name, 1.0, seed=shard_seed(seed, index))
        .partial_fit(Dataset(half, dataset.domain_size),
                     total_users=dataset.n_users)
        .shard_state())) for index, half in enumerate(halves)]
    merged = build_mechanism(name, 1.0, seed=seed).load_shard_state(states[0])
    merged.merge(build_mechanism(name, 1.0).load_shard_state(states[1]))
    merged.finalize()
    return (b"".join(map(_document, states))
            + _fitted_blob(merged, queries, typed))


def main(names: list[str]) -> None:
    total, sharded_total = hashlib.sha256(), hashlib.sha256()
    for dataset_name, n, d, c in CASES:
        dataset = make_dataset(dataset_name, n, d, c,
                               rng=np.random.default_rng(1))
        generator = WorkloadGenerator(d, c, rng=np.random.default_rng(2))
        queries = [query for dimension in range(1, min(d, 4) + 1)
                   for query in generator.random_workload(20, dimension, 0.5)]
        typed_generator = WorkloadGenerator(d, c,
                                            rng=np.random.default_rng(3))
        typed = [query for dimension in (1, 2, 3)
                 for query in typed_generator.mixed_workload(10, dimension,
                                                             0.5)]
        case = f"{dataset_name} n={n} d={d} c={c}"
        for name in names:
            for seed in SEEDS:
                blob = _fitted_blob(
                    build_mechanism(name, 1.0, seed=seed).fit(dataset),
                    queries, typed)
                total.update(blob)
                print(f"{case} {name} seed={seed} "
                      f"{hashlib.sha256(blob).hexdigest()[:16]}")
            if not build_mechanism(name, 1.0).supports_sharding:
                continue
            for seed in SEEDS:
                blob = _sharded_blob(name, seed, dataset, queries, typed)
                sharded_total.update(blob)
                print(f"{case} {name} seed={seed} sharded "
                      f"{hashlib.sha256(blob).hexdigest()[:16]}")
    print(f"TOTAL {total.hexdigest()}")
    print(f"SHARDED TOTAL {sharded_total.hexdigest()}")


if __name__ == "__main__":
    main(sys.argv[1:] or ["MSW", "Uni"])
