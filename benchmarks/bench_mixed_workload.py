"""Throughput of mixed typed workloads through the planner stack.

The typed query IR compiles marginal/point/count/top-k queries onto
range primitives answered by the compiled plan's grouped prefix-sum
lookups.  This benchmark measures what the typed surface costs and
delivers, per mechanism (TDG, HDG):

* **mixed (typed)** — queries/sec of a workload cycling all five kinds
  through ``answer_workload`` (compile → fused batch answer →
  vectorised reassembly), exactly as the serving path runs it.  One
  warm-up call outside the timer populates the compiled-plan cache, so
  the timed rounds measure steady-state serving; the one-time
  plan-compilation cost is reported separately as ``compile_seconds``;
* **kernel only** — the mechanism's ``_answer_compiled`` on the warm
  compiled plan of the typed workload, with no plan-cache lookup and no
  reassembly.  Each round times one typed call and then one kernel
  call, and ``typed over kernel`` is the median over rounds of their
  ratio minus one: what the typed surface (plan-cache lookup and typed
  reassembly) costs on top of the kernels.  Interleaving keeps drifts
  in host speed out of the ratio;
* **pre-lowered ranges** — the same primitive ranges answered as a
  pure range workload through ``answer_workload`` (recorded only, no
  gate; that workload's plan-cache key hashes every primitive, so it
  is slower than the typed surface and no baseline for it);
* **primitives/query** — how many range primitives one typed query
  expands to on average (marginals dominate: ``c²`` cells each);
* **cold compile** — median milliseconds of ``QueryPlanner.plan`` plus
  ``CompiledPlan.from_plan`` over fresh workloads of the same shape,
  the stage a plan-cache miss pays (recorded only, no gate).  It is
  timed before any round, after a ``gc.collect()``, so no round's
  results are alive for the collector to walk.

Run directly::

    PYTHONPATH=src python benchmarks/bench_mixed_workload.py
    PYTHONPATH=src python benchmarks/bench_mixed_workload.py --smoke

``--smoke`` shrinks the load so CI exercises the whole path in seconds.
``--max-overhead-fraction X`` turns the run into a regression gate: it
exits non-zero if any mechanism's typed-over-kernel fraction exceeds
``X`` (CI runs ``--smoke --max-overhead-fraction 1.0``).  Every run
appends a ``mixed_workload`` record to the ``BENCH_fit.json``
trajectory artifact at the repository root.
"""

from __future__ import annotations

import argparse
import gc
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

from _scale import append_trajectory, report  # noqa: E402

from repro import HDG, TDG, make_dataset  # noqa: E402
from repro.queries import (CompiledPlan, WorkloadGenerator,  # noqa: E402
                           query_kind)

#: Fresh workloads timed per mechanism for the cold-compile figure.
COLD_WORKLOADS = 7


def cold_compile_ms(mechanism, workloads) -> float:
    """Median ms to plan and compile one workload never seen before."""
    timings = []
    for queries in workloads:
        start = time.perf_counter()
        CompiledPlan.from_plan(mechanism.query_planner().plan(queries))
        timings.append(time.perf_counter() - start)
    return float(np.median(timings)) * 1e3


def run(n_users: int, n_attributes: int, domain_size: int, n_queries: int,
        rounds: int, epsilon: float, seed: int,
        smoke: bool) -> tuple[str, dict]:
    if rounds < 1:
        raise ValueError("rounds must be >= 1")
    rng = np.random.default_rng(seed)
    dataset = make_dataset("normal", n_users, n_attributes, domain_size,
                           rng=rng)
    generator = WorkloadGenerator(n_attributes, domain_size,
                                  rng=np.random.default_rng(seed + 1))
    mixed = generator.mixed_workload(n_queries, 2, 0.5)
    kinds = sorted({query_kind(query) for query in mixed})
    fresh = [generator.mixed_workload(n_queries, 2, 0.5)
             for _ in range(COLD_WORKLOADS)]

    lines = [f"mixed-workload throughput: eps={epsilon} n={n_users} "
             f"d={n_attributes} c={domain_size} |Q|={n_queries} "
             f"kinds={','.join(kinds)} ({'smoke' if smoke else 'full'})"]
    entry: dict = {
        "mode": "smoke" if smoke else "full",
        "n_queries": n_queries,
        "rounds": rounds,
        "domain_size": domain_size,
    }
    worst = 0.0
    mechanisms = [factory(epsilon, seed=seed).fit(dataset)
                  for factory in (TDG, HDG)]
    gc.collect()
    cold = {mechanism.name: cold_compile_ms(mechanism, fresh)
            for mechanism in mechanisms}
    for mechanism in mechanisms:
        # Warm-up: compile the plan (and populate the LRU) outside the
        # timer, so the rounds below measure the steady-state serving
        # rate and the one-time compilation cost is reported on its own.
        start = time.perf_counter()
        results = mechanism.answer_workload(mixed)
        compile_seconds = time.perf_counter() - start
        assert mechanism.plan_cache_stats()["size"] == 1

        compiled = mechanism._plan_for(mixed)  # the warm plan, cached
        primitives = compiled.n_primitives
        typed_times, kernel_times = [], []
        for _ in range(rounds):
            start = time.perf_counter()
            results = mechanism.answer_workload(mixed)
            typed_times.append(time.perf_counter() - start)
            start = time.perf_counter()
            kernel = mechanism._answer_compiled(compiled)
            kernel_times.append(time.perf_counter() - start)
        assert len(results) == n_queries
        assert kernel.shape == (primitives,)
        typed_seconds, kernel_seconds = sum(typed_times), sum(kernel_times)
        typed_over_kernel = float(np.median(
            np.divide(typed_times, kernel_times))) - 1.0

        flat_ranges = compiled.flat_ranges
        mechanism.answer_workload(flat_ranges)  # compile outside the timer
        start = time.perf_counter()
        for _ in range(rounds):
            flat = mechanism.answer_workload(flat_ranges)
        flat_seconds = time.perf_counter() - start
        assert np.isfinite(flat).all()
        cold_ms = cold[mechanism.name]

        typed_rate = rounds * n_queries / typed_seconds
        primitive_rate = rounds * primitives / flat_seconds
        overhead = (typed_seconds - flat_seconds) / max(flat_seconds, 1e-12)
        worst = max(worst, typed_over_kernel)
        lines += [
            f"  {mechanism.name:>4}: {primitives} primitives for "
            f"{n_queries} typed queries "
            f"({primitives / n_queries:.1f} primitives/query, "
            f"compile {compile_seconds * 1e3:.1f}ms once)",
            f"        cold plan+compile : {cold_ms:6.2f}ms per fresh workload",
            f"        typed workload    : {typed_seconds:6.2f}s "
            f"-> {typed_rate:10.1f} queries/sec",
            f"        pre-lowered ranges: {flat_seconds:6.2f}s "
            f"-> {primitive_rate:10.1f} primitives/sec "
            f"(typed over ranges {overhead * 100:+.1f}%)",
            f"        kernel only       : {kernel_seconds:6.2f}s "
            f"-> {rounds * primitives / kernel_seconds:10.1f} primitives/sec "
            f"(typed over kernel {typed_over_kernel * 100:+.1f}%)",
        ]
        entry[mechanism.name] = {
            "primitives": primitives,
            "compile_seconds": round(compile_seconds, 4),
            "cold_compile_ms": round(cold_ms, 3),
            "typed_queries_per_sec": round(typed_rate, 1),
            "primitive_ranges_per_sec": round(primitive_rate, 1),
            "typed_over_ranges_fraction": round(overhead, 4),
            "kernel_primitives_per_sec": round(
                rounds * primitives / kernel_seconds, 1),
            "typed_over_kernel_fraction": round(typed_over_kernel, 4),
        }
    entry["worst_typed_over_kernel_fraction"] = round(worst, 4)
    return "\n".join(lines), entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: small population and workload")
    parser.add_argument("--max-overhead-fraction", type=float, default=None,
                        help="fail (exit 1) if any mechanism's typed-"
                             "over-kernel fraction exceeds this")
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.smoke:
        settings = dict(n_users=4_000, n_attributes=3, domain_size=16,
                        n_queries=50, rounds=100)
    else:
        settings = dict(n_users=100_000, n_attributes=4, domain_size=32,
                        n_queries=400, rounds=5)
    text, entry = run(epsilon=args.epsilon, seed=args.seed, smoke=args.smoke,
                      **settings)
    report("mixed_workload", text)
    append_trajectory("mixed_workload", entry)
    worst = entry["worst_typed_over_kernel_fraction"]
    if (args.max_overhead_fraction is not None
            and worst > args.max_overhead_fraction):
        print(f"FAIL: typed-over-kernel fraction {worst:+.4f} exceeds the "
              f"--max-overhead-fraction gate {args.max_overhead_fraction}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
