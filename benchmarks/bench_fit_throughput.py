"""Reports/sec of the collection (``fit``) path per mechanism.

PR 2 made query answering 17-130x faster, which left the collection
path — user perturbation, support counting, Phase-2 post-processing —
as the dominant cost of figure reproduction.  This benchmark times
``fit`` for every mechanism on one dataset and reports user reports
collected per second, so the vectorised collection paths (Square Wave's
broadcast transition matrix, LHIO's per-level OLH aggregation, TDG/HDG's
layer arrays and stacked Phase-2 consistency) stay measured.

Run directly::

    PYTHONPATH=src python benchmarks/bench_fit_throughput.py
    PYTHONPATH=src python benchmarks/bench_fit_throughput.py --smoke

It also times the streaming path of TDG and HDG at perfbench's
serving configuration (ε = 1, d = 6, c = 64, 1,000-report batches into
one collector sized for the whole population): the p50/p99 of one
batch's ``partial_fit``, and of the serving re-finalize's capture
(a fresh instance merging the collector's layer arrays) through its
``finalize`` (debias, Phase 2, Algorithm 1 for HDG, the answering
tables).

``--smoke`` shrinks the population so CI exercises the whole path in a
few seconds.  Every run appends a record, with ``os.cpu_count()``, to
the ``BENCH_fit.json`` trajectory artifact at the repository root.
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

from repro.baselines import CALM, LHIO, MSW  # noqa: E402
from repro.core import HDG, TDG  # noqa: E402
from repro.datasets import Dataset, make_dataset  # noqa: E402

#: Mechanisms measured, in report order.  Uni is left out: its ``fit``
#: returns at once, so a reports/sec figure for it would time a no-op.
#: HIO is left out too: its ``fit`` only permutes users into groups and
#: its OLH work runs when a query first touches a level, so the figure
#: would time almost nothing.
MECHANISMS = ("MSW", "CALM", "LHIO", "TDG", "HDG")

FACTORIES = {
    "MSW": lambda epsilon, seed: MSW(epsilon, seed=seed),
    "CALM": lambda epsilon, seed: CALM(epsilon, seed=seed),
    "LHIO": lambda epsilon, seed: LHIO(epsilon, seed=seed),
    "TDG": lambda epsilon, seed: TDG(epsilon, seed=seed),
    "HDG": lambda epsilon, seed: HDG(epsilon, seed=seed),
}


def time_fit(name: str, epsilon: float, seed: int, dataset,
             min_seconds: float = 0.2) -> float:
    """Best-of-repeats seconds for one mechanism's full collection."""
    best = float("inf")
    elapsed_total = 0.0
    while elapsed_total < min_seconds:
        mechanism = FACTORIES[name](epsilon, seed)
        start = time.perf_counter()
        mechanism.fit(dataset)
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
        elapsed_total += elapsed
    return best


#: Mechanisms of the streaming measurement, and perfbench's serving
#: configuration it runs at: (users, d, c, ε, batch size).
STREAMING = ("TDG", "HDG")
SERVING_CONFIG = (100_000, 6, 64, 1.0, 1_000)


def _percentiles(seconds: list[float]) -> dict[str, float]:
    p50, p99 = np.percentile(seconds, [50, 99]) * 1e3
    return {"p50_ms": round(float(p50), 4), "p99_ms": round(float(p99), 4)}


def time_streaming(name: str, seed: int, dataset, refinalizes: int) -> dict:
    """Per-batch ``partial_fit`` and capture→finalize times."""
    epsilon, batch_size = SERVING_CONFIG[3:]
    collector = FACTORIES[name](epsilon, seed)
    batch_seconds = []
    for start in range(0, dataset.n_users, batch_size):
        batch = Dataset(dataset.values[start:start + batch_size],
                        dataset.domain_size)
        began = time.perf_counter()
        collector.partial_fit(batch, total_users=dataset.n_users)
        batch_seconds.append(time.perf_counter() - began)
    refinalize_seconds = []
    for _ in range(refinalizes):
        began = time.perf_counter()
        clone = type(collector)(epsilon, **collector._snapshot_config())
        clone.merge(collector).finalize()
        refinalize_seconds.append(time.perf_counter() - began)
    return {"partial_fit": _percentiles(batch_seconds),
            "capture_finalize": _percentiles(refinalize_seconds)}


def run(n_users: int, epsilon: float, n_attributes: int, domain_size: int,
        seed: int, smoke: bool) -> tuple[str, dict]:
    rng = np.random.default_rng(seed)
    dataset = make_dataset("normal", n_users, n_attributes, domain_size,
                           rng=rng)
    lines = [f"fit throughput: n={n_users} d={n_attributes} c={domain_size} "
             f"eps={epsilon}",
             f"{'mechanism':>10}  {'fit seconds':>12}  {'reports/sec':>12}"]
    throughput: dict[str, float] = {}
    for name in MECHANISMS:
        seconds = time_fit(name, epsilon, seed, dataset,
                           min_seconds=0.05 if smoke else 0.2)
        rate = n_users / seconds
        throughput[name] = round(rate, 1)
        lines.append(f"{name:>10}  {seconds:>12.4f}  {rate:>12.0f}")
    streaming_users, d, c, _, batch_size = SERVING_CONFIG
    if smoke:
        streaming_users = n_users
    lines.append(f"streaming: n={streaming_users} d={d} c={c}, "
                 f"{batch_size}-report batches, ms p50 / p99")
    streaming_data = make_dataset("normal", streaming_users, d, c,
                                  rng=np.random.default_rng(seed))
    streaming = {}
    for name in STREAMING:
        times = time_streaming(name, seed, streaming_data,
                               refinalizes=3 if smoke else 30)
        streaming[name] = times
        lines.append(
            f"{name:>10}  partial_fit {times['partial_fit']['p50_ms']:.3f}"
            f" / {times['partial_fit']['p99_ms']:.3f}   capture→finalize "
            f"{times['capture_finalize']['p50_ms']:.3f} / "
            f"{times['capture_finalize']['p99_ms']:.3f}")
    lines.append(f"cpu_count {os.cpu_count()}")
    text = "\n".join(lines)
    entry = {
        "n_users": n_users,
        "n_attributes": n_attributes,
        "domain_size": domain_size,
        "epsilon": epsilon,
        "smoke": smoke,
        "cpu_count": os.cpu_count(),
        "reports_per_second": throughput,
        "streaming_config": dict(zip(
            ("n_users", "n_attributes", "domain_size", "epsilon",
             "batch_size"), (streaming_users, *SERVING_CONFIG[1:]))),
        "streaming": streaming,
    }
    return text, entry


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configuration for CI")
    parser.add_argument("--n-users", type=int, default=None)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--n-attributes", type=int, default=6)
    parser.add_argument("--domain-size", type=int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    n_users = args.n_users or (5_000 if args.smoke else 200_000)
    text, entry = run(n_users, args.epsilon, args.n_attributes,
                      args.domain_size, args.seed, smoke=args.smoke)
    report("fit_throughput", text)
    append_trajectory("fit_throughput", entry)
    return 0


if __name__ == "__main__":
    sys.exit(main())
