"""Ingest-tier scaling: reports/sec vs collector worker count.

The distributed ingest tier (:mod:`repro.ingest`) routes reports to N
collector processes that each ``partial_fit`` into their own
accumulators, so collection throughput should scale with workers until
the router/queue machinery saturates.  This benchmark pushes one
synthetic population through tiers of growing worker counts and
reports reports/sec plus the speedup over one worker, and times one
``merge()`` per worker count (the state exchange plus the fold and
``finalize``) as ``merge ms``.

Run directly::

    PYTHONPATH=src python benchmarks/bench_ingest_scaling.py
    PYTHONPATH=src python benchmarks/bench_ingest_scaling.py --smoke

``--smoke`` shrinks the population so CI exercises the whole
multi-process path in seconds.  Unless ``--batch-size`` pins it, the
submit batch is auto-sized per worker count so every worker sees
several batches — a fixed batch that leaves 4 workers one batch each
measures queue overhead, not scaling (the ``speedup_at_4: 0.77``
regression).  On hosts with at least 4 CPUs the 4-worker tier must
sustain >= 3x the single-worker rate (>= 1.5x in smoke mode, whose
tiny population amortizes less startup cost); single-core hosts skip
the assertion in both modes.  Every run appends a record to the
``BENCH_fit.json`` trajectory artifact at the repository root.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _scale import append_trajectory, report  # noqa: E402

from repro.ingest import IngestTier  # noqa: E402

#: 4-worker speedup the full run must sustain on multi-core hosts.
TARGET_SPEEDUP_AT_4 = 3.0

#: Smoke-mode target: the tiny population amortizes less worker
#: startup cost, so the bar is lower — but the gate still runs.
SMOKE_TARGET_SPEEDUP_AT_4 = 1.5

#: Auto-sizing: batches per worker each tier should see (enough to
#: overlap routing with collection without starving anyone).
BATCHES_PER_WORKER = 4


def batch_size_for(n_users: int, workers: int,
                   override: int | None = None) -> int:
    """Submit batch size for one tier: explicit override or auto-sized.

    Auto-sizing gives every worker ``BATCHES_PER_WORKER`` batches so
    the sweep measures collection scaling at each worker count rather
    than how a fixed batch count divides across workers.
    """
    if override is not None:
        return override
    return max(1_000, n_users // (workers * BATCHES_PER_WORKER))


def time_ingest(mechanism: str, epsilon: float, workers: int,
                rows: np.ndarray, domain_size: int, batch_size: int,
                seed: int) -> tuple[float, float]:
    """Wall seconds to route + collect every row through one tier,
    then to merge the collected tier once."""
    tier = IngestTier(mechanism, epsilon, n_workers=workers,
                      n_attributes=rows.shape[1], domain_size=domain_size,
                      seed=seed, planning_users=rows.shape[0],
                      total_users=rows.shape[0])
    try:
        started = time.perf_counter()
        for start in range(0, rows.shape[0], batch_size):
            tier.submit(rows[start:start + batch_size])
        tier.flush()
        elapsed = time.perf_counter() - started
        if tier.reports_total != rows.shape[0]:
            raise RuntimeError(
                f"tier absorbed {tier.reports_total} of {rows.shape[0]} "
                "reports")
        started = time.perf_counter()
        tier.merge()
        merge_seconds = time.perf_counter() - started
    finally:
        tier.close()
    return elapsed, merge_seconds


def run(n_users: int, epsilon: float, n_attributes: int, domain_size: int,
        batch_size: int | None, worker_counts: tuple[int, ...],
        mechanism: str, seed: int, smoke: bool) -> tuple[str, dict]:
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, domain_size, size=(n_users, n_attributes))
    cpus = os.cpu_count() or 1
    lines = [f"ingest scaling: {mechanism} n={n_users} d={n_attributes} "
             f"c={domain_size} eps={epsilon} "
             f"batch={batch_size or 'auto'} cpus={cpus}",
             f"{'workers':>8}  {'batch':>8}  {'seconds':>10}  "
             f"{'reports/sec':>12}  {'speedup':>8}  {'merge ms':>9}"]
    rates: dict[str, float] = {}
    merge_ms: dict[str, float] = {}
    batch_sizes: dict[str, int] = {}
    base_rate = None
    for workers in worker_counts:
        batch = batch_size_for(n_users, workers, batch_size)
        batch_sizes[str(workers)] = batch
        seconds, merge_seconds = time_ingest(mechanism, epsilon, workers,
                                             rows, domain_size, batch, seed)
        rate = n_users / seconds
        if base_rate is None:
            base_rate = rate
        rates[str(workers)] = round(rate, 1)
        merge_ms[str(workers)] = round(1000 * merge_seconds, 2)
        lines.append(f"{workers:>8}  {batch:>8}  {seconds:>10.3f}  "
                     f"{rate:>12.0f}  {rate / base_rate:>7.2f}x  "
                     f"{1000 * merge_seconds:>9.2f}")
    speedup_at_4 = (rates.get("4", 0.0) / rates["1"]) if "1" in rates else None
    text = "\n".join(lines)
    entry = {
        "mechanism": mechanism,
        "n_users": n_users,
        "n_attributes": n_attributes,
        "domain_size": domain_size,
        "epsilon": epsilon,
        "batch_size": batch_size,
        "batch_sizes": batch_sizes,
        "cpus": cpus,
        "smoke": smoke,
        "reports_per_second": rates,
        "merge_ms": merge_ms,
        "speedup_at_4_workers": (round(speedup_at_4, 2)
                                 if speedup_at_4 else None),
    }
    return text, entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI (lower scaling "
                             "target, same >=4-CPU gate)")
    parser.add_argument("--mechanism", default="TDG")
    parser.add_argument("--n-users", type=int, default=None)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--n-attributes", type=int, default=4)
    parser.add_argument("--domain-size", type=int, default=16)
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--workers", type=int, nargs="+", default=None,
                        help="worker counts to sweep (default 1 2 4)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    n_users = args.n_users or (20_000 if args.smoke else 1_000_000)
    worker_counts = tuple(args.workers or (1, 2, 4))
    text, entry = run(n_users, args.epsilon, args.n_attributes,
                      args.domain_size, args.batch_size, worker_counts,
                      args.mechanism, args.seed, smoke=args.smoke)
    report("ingest_scaling", text)
    append_trajectory("ingest_scaling", entry)
    speedup = entry["speedup_at_4_workers"]
    target = SMOKE_TARGET_SPEEDUP_AT_4 if args.smoke else TARGET_SPEEDUP_AT_4
    if (speedup is not None and (os.cpu_count() or 1) >= 4
            and speedup < target):
        print(f"FAIL: 4-worker speedup {speedup:.2f}x "
              f"< target {target:.1f}x", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
