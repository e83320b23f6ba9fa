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
* **pre-lowered ranges** — the same primitive ranges answered as a
  pure range workload through ``answer_workload``.  Such a workload is
  compiled too (once, in a warm-up call outside the timer) into a plan
  with the same execution groups, so both timings run the same fused
  kernels; the reported overhead is the typed surface's plan-cache
  lookup and typed reassembly minus the range workload's own
  plan-cache lookup, whose key holds every primitive;
* **kernel only** — the mechanism's ``_answer_compiled`` on the warm
  compiled plan of the typed workload, with no plan-cache lookup and no
  reassembly: the baseline the typed surface's own cost (``typed over
  kernel``) is measured against (recorded only, no gate);
* **primitives/query** — how many range primitives one typed query
  expands to on average (marginals dominate: ``c²`` cells each);
* **cold compile** — median milliseconds of ``QueryPlanner.plan`` plus
  ``CompiledPlan.from_plan`` over fresh workloads of the same shape,
  the stage a plan-cache miss pays (recorded only, no gate).

Run directly::

    PYTHONPATH=src python benchmarks/bench_mixed_workload.py
    PYTHONPATH=src python benchmarks/bench_mixed_workload.py --smoke

``--smoke`` shrinks the load so CI exercises the whole path in seconds.
``--max-overhead-fraction X`` turns the run into a regression gate: it
exits non-zero if any mechanism's plan-and-reassemble overhead exceeds
``X`` (CI runs ``--smoke --max-overhead-fraction 0.5``).  Every run
appends a ``mixed_workload`` record to the ``BENCH_fit.json``
trajectory artifact at the repository root.
"""

from __future__ import annotations

import argparse
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
        planner = mechanism.query_planner()
        plan = planner.plan(queries, capabilities=mechanism.query_capabilities)
        CompiledPlan.from_plan(plan, planner.domain_size,
                               population=planner.population)
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
    worst_overhead = 0.0
    for factory in (TDG, HDG):
        mechanism = factory(epsilon, seed=seed).fit(dataset)
        plan = mechanism.query_planner().plan(mixed)
        primitives = plan.n_primitives

        # Warm-up: compile the plan (and populate the LRU) outside the
        # timer, so the rounds below measure the steady-state serving
        # rate and the one-time compilation cost is reported on its own.
        start = time.perf_counter()
        results = mechanism.answer_workload(mixed)
        compile_seconds = time.perf_counter() - start
        assert mechanism.plan_cache_stats()["size"] == 1

        start = time.perf_counter()
        for _ in range(rounds):
            results = mechanism.answer_workload(mixed)
        typed_seconds = time.perf_counter() - start
        assert len(results) == n_queries

        compiled = mechanism._plan_for(mixed)  # the warm plan, cached
        start = time.perf_counter()
        for _ in range(rounds):
            kernel = mechanism._answer_compiled(compiled)
        kernel_seconds = time.perf_counter() - start
        assert kernel.shape == (primitives,)

        flat_ranges = plan.ranges
        mechanism.answer_workload(flat_ranges)  # compile outside the timer
        start = time.perf_counter()
        for _ in range(rounds):
            flat = mechanism.answer_workload(flat_ranges)
        flat_seconds = time.perf_counter() - start
        assert np.isfinite(flat).all()
        cold_ms = cold_compile_ms(mechanism, fresh)

        typed_rate = rounds * n_queries / typed_seconds
        primitive_rate = rounds * primitives / flat_seconds
        overhead = (typed_seconds - flat_seconds) / max(flat_seconds, 1e-12)
        typed_over_kernel = ((typed_seconds - kernel_seconds)
                             / max(kernel_seconds, 1e-12))
        worst_overhead = max(worst_overhead, overhead)
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
            f"(plan+reassemble overhead {overhead * 100:+.1f}%)",
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
            "plan_and_reassemble_overhead_fraction": round(overhead, 4),
            "kernel_primitives_per_sec": round(
                rounds * primitives / kernel_seconds, 1),
            "typed_over_kernel_fraction": round(typed_over_kernel, 4),
        }
    entry["worst_overhead_fraction"] = round(worst_overhead, 4)
    return "\n".join(lines), entry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized run: small population and workload")
    parser.add_argument("--max-overhead-fraction", type=float, default=None,
                        help="fail (exit 1) if any mechanism's plan-and-"
                             "reassemble overhead fraction exceeds this")
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.smoke:
        settings = dict(n_users=4_000, n_attributes=3, domain_size=16,
                        n_queries=50, rounds=2)
    else:
        settings = dict(n_users=100_000, n_attributes=4, domain_size=32,
                        n_queries=400, rounds=5)
    text, entry = run(epsilon=args.epsilon, seed=args.seed, smoke=args.smoke,
                      **settings)
    report("mixed_workload", text)
    append_trajectory("mixed_workload", entry)
    if (args.max_overhead_fraction is not None
            and entry["worst_overhead_fraction"] > args.max_overhead_fraction):
        print(f"FAIL: plan-and-reassemble overhead "
              f"{entry['worst_overhead_fraction']:+.4f} exceeds the "
              f"--max-overhead-fraction gate {args.max_overhead_fraction}",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
