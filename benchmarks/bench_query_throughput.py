"""Queries/sec of the legacy per-query loop vs the batch query engine.

Fits each mechanism once, generates a mixed-λ workload (λ = 1, 2, 3, 4 in
equal parts, shuffled) and times two answering paths over the identical
fitted state:

* **legacy** — ``use_legacy_answering=True``: the original Python
  cell-loop grid answering and one Weighted Update per λ-D query.
* **batch**  — the vectorised engine: prefix-sum/summed-area corner
  lookups grouped per grid plus one batched Weighted Update per distinct
  λ.

The two paths must agree to 1e-9 on every query (the script fails
otherwise), so this doubles as an end-to-end equivalence check.

A second, λ>2-only section times the batched Weighted Update kernel
(``weighted_update_batch``) alone, on λ = 3, 4, 5 and 6 batches whose
targets are HDG's clipped 2-D sub-answers (2000 rows each; 64 under
``--smoke``), and reports rows/s.  Under ``--smoke`` every row must be
bitwise equal to the sequential ``weighted_update`` on that row.

Run directly::

    PYTHONPATH=src python benchmarks/bench_query_throughput.py
    PYTHONPATH=src python benchmarks/bench_query_throughput.py --smoke

``--smoke`` shrinks the population and workload so CI can exercise the
fast path on every PR in a few seconds (no speedup assertion — shared
runners are too noisy for that; the full run asserts ≥ 10x on TDG/HDG).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _scale import report  # noqa: E402

from repro.baselines import CALM, LHIO, MSW, Uniform  # noqa: E402
from repro.core import HDG, TDG  # noqa: E402
from repro.core.query_estimation import (  # noqa: E402
    lambda_constraint_index_sets)
from repro.datasets import make_dataset  # noqa: E402
from repro.estimation import (Constraint, weighted_update,  # noqa: E402
                              weighted_update_batch)
from repro.queries import WorkloadGenerator  # noqa: E402

#: Mechanisms measured, in report order.  HIO is excluded: its answering
#: cost is dominated by the lazy noisy-node path, which the engine keeps.
MECHANISMS = ("Uni", "MSW", "CALM", "LHIO", "TDG", "HDG")

FACTORIES = {
    "Uni": lambda epsilon, seed: Uniform(epsilon, seed=seed),
    "MSW": lambda epsilon, seed: MSW(epsilon, seed=seed),
    "CALM": lambda epsilon, seed: CALM(epsilon, seed=seed),
    "LHIO": lambda epsilon, seed: LHIO(epsilon, seed=seed),
    "TDG": lambda epsilon, seed: TDG(epsilon, seed=seed),
    "HDG": lambda epsilon, seed: HDG(epsilon, seed=seed),
}


def mixed_workload(n_queries: int, n_attributes: int, domain_size: int,
                   seed: int):
    """Shuffled workload with λ = 1..4 in equal parts (the paper's range)."""
    generator = WorkloadGenerator(n_attributes, domain_size,
                                  rng=np.random.default_rng(seed))
    dimensions = [d for d in (1, 2, 3, 4) if d <= n_attributes]
    queries = []
    per_dimension = n_queries // len(dimensions)
    for dimension in dimensions:
        queries.extend(generator.random_workload(per_dimension, dimension, 0.5))
    while len(queries) < n_queries:
        queries.append(generator.random_query(dimensions[-1], 0.5))
    order = np.random.default_rng(seed + 1).permutation(len(queries))
    return [queries[index] for index in order]


def time_workload(mechanism, queries, legacy: bool,
                  min_seconds: float = 0.2) -> tuple[np.ndarray, float]:
    """Answers plus best-of-repeats seconds for one answering path."""
    mechanism.use_legacy_answering = legacy
    answers = mechanism.answer_workload(queries)  # warm any lazy indexes
    best = float("inf")
    elapsed_total = 0.0
    while elapsed_total < min_seconds:
        start = time.perf_counter()
        answers = mechanism.answer_workload(queries)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        elapsed_total += elapsed
    mechanism.use_legacy_answering = False
    return answers, best


def weighted_update_targets(mechanism, dimension: int, n_rows: int,
                            n_attributes: int, domain_size: int,
                            seed: int) -> np.ndarray:
    """Algorithm 2 targets for ``n_rows`` random λ-D queries: the
    mechanism's clipped 2-D sub-answers plus the normalisation to 1."""
    generator = WorkloadGenerator(n_attributes, domain_size,
                                  rng=np.random.default_rng(seed))
    queries = generator.random_workload(n_rows, dimension, 0.5)
    pair_answers = mechanism.answer_workload(
        [sub for query in queries for sub in query.pairwise_subqueries()])
    targets = np.ones((n_rows, dimension * (dimension - 1) // 2 + 1))
    targets[:, :-1] = np.maximum(0.0, pair_answers.reshape(n_rows, -1))
    return targets


def weighted_update_section(mechanism, n_rows: int, n_attributes: int,
                            domain_size: int, seed: int,
                            check: bool) -> tuple[list[str], list[str]]:
    """Rows/s of ``weighted_update_batch`` per λ > 2; with ``check``,
    every row is compared bitwise with the sequential engine."""
    lines = [f"weighted_update_batch: {n_rows}-row batches of HDG "
             "pair answers",
             f"{'lambda':>10}  {'rows/s':>12}  {'best ms':>10}"]
    failures = []
    for dimension in (3, 4, 5, 6):
        if dimension > n_attributes:
            continue
        size = 1 << dimension
        index_sets = lambda_constraint_index_sets(dimension)
        targets = weighted_update_targets(mechanism, dimension, n_rows,
                                          n_attributes, domain_size,
                                          seed + dimension)
        best = float("inf")
        elapsed_total = 0.0
        while elapsed_total < 0.5:
            start = time.perf_counter()
            estimates = weighted_update_batch(size, index_sets, targets)
            elapsed = time.perf_counter() - start
            best = min(best, elapsed)
            elapsed_total += elapsed
        lines.append(f"{dimension:>10}  {n_rows / best:>12.0f}  "
                     f"{best * 1e3:>10.2f}")
        if check:
            for row, estimate in zip(targets, estimates):
                reference = weighted_update(
                    size, [Constraint(idx, target)
                           for idx, target in zip(index_sets, row)]).estimate
                if not np.array_equal(estimate, reference):
                    failures.append(f"lambda={dimension}: a batched row "
                                    "differs from weighted_update")
                    break
    return lines, failures


def run(n_users: int, n_queries: int, epsilon: float, n_attributes: int,
        domain_size: int, seed: int, smoke: bool) -> str:
    rng = np.random.default_rng(seed)
    dataset = make_dataset("normal", n_users, n_attributes, domain_size,
                           rng=rng)
    queries = mixed_workload(n_queries, n_attributes, domain_size, seed + 7)

    lines = [f"query throughput: n={n_users} d={n_attributes} c={domain_size} "
             f"eps={epsilon} |Q|={len(queries)} (mixed lambda 1-4)",
             f"{'mechanism':>10}  {'legacy q/s':>12}  {'batch q/s':>12}  "
             f"{'speedup':>8}"]
    failures = []
    fitted = {}
    for name in MECHANISMS:
        mechanism = fitted[name] = FACTORIES[name](epsilon, seed).fit(dataset)
        legacy_answers, legacy_seconds = time_workload(mechanism, queries,
                                                       legacy=True)
        batch_answers, batch_seconds = time_workload(mechanism, queries,
                                                     legacy=False)
        worst = float(np.abs(legacy_answers - batch_answers).max())
        if worst > 1e-9:
            failures.append(f"{name}: legacy/batch answers differ by {worst:.3e}")
        legacy_qps = len(queries) / legacy_seconds
        batch_qps = len(queries) / batch_seconds
        speedup = legacy_seconds / batch_seconds
        lines.append(f"{name:>10}  {legacy_qps:>12.0f}  {batch_qps:>12.0f}  "
                     f"{speedup:>7.1f}x")
        if not smoke and name in ("TDG", "HDG") and speedup < 10.0:
            failures.append(
                f"{name}: batch engine only {speedup:.1f}x over the legacy "
                "loop (expected >= 10x)")
    section, section_failures = weighted_update_section(
        fitted["HDG"], 64 if smoke else 2_000, n_attributes, domain_size,
        seed + 11, check=smoke)
    lines += [""] + section
    failures += section_failures
    text = "\n".join(lines)
    if failures:
        raise SystemExit(text + "\n\nFAILURES:\n" + "\n".join(failures))
    return text


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI: exercises both "
                             "paths and checks agreement, skips the "
                             "speedup assertion")
    parser.add_argument("--n-users", type=int, default=None)
    parser.add_argument("--n-queries", type=int, default=None)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--n-attributes", type=int, default=6)
    parser.add_argument("--domain-size", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    n_users = args.n_users or (5_000 if args.smoke else 200_000)
    n_queries = args.n_queries or (200 if args.smoke else 2_000)
    text = run(n_users, n_queries, args.epsilon, args.n_attributes,
               args.domain_size, args.seed, smoke=args.smoke)
    report("query_throughput", text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
