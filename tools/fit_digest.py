"""Print a digest of ``fit`` outputs, to show a change leaves them bitwise.

Fits each named mechanism with fixed seeds on a few fixed datasets and
hashes its ``save_state`` document together with its answers to a fixed
range workload and its ``answer_typed`` results for a fixed mixed
workload (all five query kinds, λ ≤ 3 ranges, points and counts, 1- and
2-attribute marginal and top-k tables).  The typed results are hashed
through their wire form, whose floats print round-trip exact.  Run it on
two checkouts and compare the last line::

    PYTHONPATH=src python tools/fit_digest.py MSW Uni
"""

from __future__ import annotations

import hashlib
import json
import sys

import numpy as np

from repro.datasets import make_dataset
from repro.mechanisms import build_mechanism
from repro.queries import WorkloadGenerator

#: (dataset, n, d, c): a mid-size case, a small one, a wide one, and one
#: with fewer users than attributes (some attributes get no reports).
CASES = [("normal", 20_000, 4, 32), ("laplace", 5_000, 3, 16),
         ("uniform", 3_001, 6, 64), ("normal", 7, 5, 8)]
SEEDS = (0, 5, 123)


def main(names: list[str]) -> None:
    total = hashlib.sha256()
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
        for name in names:
            for seed in SEEDS:
                mechanism = build_mechanism(name, 1.0, seed=seed).fit(dataset)
                blob = (json.dumps(mechanism.save_state(), sort_keys=True)
                        .encode()
                        + np.asarray(mechanism.answer_workload(queries))
                        .tobytes()
                        + json.dumps([result.to_wire() for result
                                      in mechanism.answer_typed(typed)])
                        .encode())
                total.update(blob)
                print(f"{dataset_name} n={n} d={d} c={c} {name} seed={seed} "
                      f"{hashlib.sha256(blob).hexdigest()[:16]}")
    print(f"TOTAL {total.hexdigest()}")


if __name__ == "__main__":
    main(sys.argv[1:] or ["MSW", "Uni"])
