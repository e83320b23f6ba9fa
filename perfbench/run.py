"""Serving benchmark: the real ``repro serve`` over HTTP, three workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload range-single --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --trace 1
    python3 perfbench/run.py --write-benchmark-json

Each run starts ``repro serve --backend sqlite`` in a child process
four times, bootstrapping 100k users over ``/ingest`` each time
(``setup_s`` is the median), drives the first server with one
closed-loop workload for ``--seconds`` and checks its answers against
an in-process ``QueryService`` and exact ground truth.  The clients
time a fixed probe between requests, and the timing metrics are
reported at the probe's reference speed (README.md).  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and the end-to-end metrics (``--trace 0``) or the per-layer
metrics of a traced server (``--trace 1``).  ``--workload all`` runs
every workload (with ``--trace 1``, untraced and traced, and prints the
tracing overhead).  ``--write-benchmark-json`` writes the metric
declarations below to ``BENCHMARK.json``.  See README.md for why each
workload exists.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

RUN_SECONDS = 30
#: Server start-ups per run; ``setup_s`` is their median.
SETUPS = 4
#: Single-query probes per dimension for ``trace.coverage``.
PROBES = 15
#: Answers must match the in-process reference this closely.
TOLERANCE = 1e-9

WORKLOADS = {
    "range-single": "one connection, one fresh lambda=3 range per request: "
                    "Weighted Update does most of the work",
    "analytics-batch": "one connection, fresh 100-query batches of all five "
                       "kinds: planner, compiler, assembly, JSON and GC; "
                       "Weighted Update never runs",
    "ingest-refresh": "1,000-report ingest batches through the SQLite WAL "
                      "with refinalize every 20, beside a reader posting "
                      "fresh lambda=2 ranges",
}
#: (name, unit, better, bound): the share of the parent's median a
#: metric may worsen by before a change counts as a regression.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("queries_per_s", "1/s", "higher", 0.25),
    ("reports_per_s", "1/s", "higher", 0.25),
    ("refinalize_mean_ms", "ms", "lower", 0.25),
    ("store_bytes_per_report", "B", "lower", 0.05),
    ("answer_mae", "fraction", "lower", 0.15),
    ("server_rss_mb", "MB", "lower", 0.1),
]
#: (name, unit, better).
PER_LAYER = [
    ("http.decode_ms", "ms", "lower"),
    ("http.encode_ms", "ms", "lower"),
    ("http.admission_wait_ms", "ms", "lower"),
    ("http.shed", "count", "lower"),
    ("wire.parse_ms", "ms", "lower"),
    ("epoch.answer_ms", "ms", "lower"),
    ("epoch.answer_cache_hit_ratio", "ratio", "lower"),
    ("epoch.answer_cache_entries", "count", "lower"),
    ("plan.compile_ms", "ms", "lower"),
    ("plan.cache_hit_ratio", "ratio", "higher"),
    ("plan.primitives_per_query", "count", "lower"),
    ("kernel.answer_ms", "ms", "lower"),
    ("wu.calls", "count", "lower"),
    ("wu.rows_per_call", "count", "higher"),
    ("assemble.ms", "ms", "lower"),
    ("storage.append_ms", "ms", "lower"),
    ("storage.bytes_per_report", "B", "lower"),
    ("resilience.retries", "count", "lower"),
    ("resilience.breaker_opens", "count", "lower"),
    ("collect.partial_fit_ms", "ms", "lower"),
    ("finalize.capture_ms", "ms", "lower"),
    ("finalize.phase2_ms", "ms", "lower"),
    ("finalize.publish_ms", "ms", "lower"),
    ("runtime.gc_pause_ms", "ms", "lower"),
    ("runtime.gc_pause_max_ms", "ms", "lower"),
    ("runtime.gc2_count", "count", "lower"),
    ("runtime.peak_rss_mb", "MB", "lower"),
    ("trace.coverage_l2", "ratio", "higher"),
    ("trace.coverage_l3", "ratio", "higher"),
    ("trace.query_mean_ms", "ms", "lower"),
    ("trace.ingest_mean_ms", "ms", "lower"),
    ("loadgen.gap_ms", "ms", "lower"),
]


def benchmark_json() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }


def environment(seed: int) -> dict:
    import numpy
    commit = None
    if (ROOT / ".git").exists():
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=30)
        commit = result.stdout.strip() or None
    from harness import WORKERS
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit, "seed": seed,
            "server_workers": WORKERS}


def _ms(values: list[float], percentile: float) -> float:
    import numpy as np
    return float(np.percentile(values, percentile)) * 1e3


def _max_diff(left, right) -> float:
    """Largest absolute numeric difference between two JSON values
    (infinite when their shapes differ)."""
    if isinstance(left, bool) or isinstance(right, bool):
        return 0.0 if left == right else float("inf")
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return abs(left - right)
    if isinstance(left, list) and isinstance(right, list):
        if len(left) != len(right):
            return float("inf")
        return max((_max_diff(a, b) for a, b in zip(left, right)),
                   default=0.0)
    if isinstance(left, dict) and isinstance(right, dict):
        if left.keys() != right.keys():
            return float("inf")
        return max((_max_diff(left[key], right[key]) for key in left),
                   default=0.0)
    return 0.0 if left == right else float("inf")


def reference_service(batches):
    """An in-process ``QueryService`` with the server tenant's config,
    fed the same batches in the same order, then finalized."""
    from harness import (BOOTSTRAP_USERS, DOMAIN_SIZE, EPSILON, MECHANISM,
                         POPULATION_SEED)
    from repro.serving import QueryService
    service = QueryService(MECHANISM, EPSILON, seed=POPULATION_SEED,
                           total_users=BOOTSTRAP_USERS,
                           domain_size=DOMAIN_SIZE)
    for rows in batches:
        service.ingest(rows)
    service.refinalize()
    return service


def _wire_answers(service, queries) -> dict:
    """The reference's ``/query`` document, normalized through JSON."""
    return json.loads(json.dumps(service.query_wire(queries)))


def _guard(before: dict, after: dict) -> dict:
    """Cache-proof guard and counters from two ``/healthz`` documents."""
    answers0, answers1 = before["answer_cache"], after["answer_cache"]
    hits = answers1["hits"] - answers0["hits"]
    lookups = hits + answers1["misses"] - answers0["misses"]
    resilience = after["resilience"]
    return {
        "answer_cache_hits": hits,
        "answer_cache_lookups": lookups,
        "answer_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "answer_cache_entries": answers1["size"],
        "plan_cache_before": before["plan_cache"],
        "plan_cache_after": after["plan_cache"],
        "epochs": (before["epoch"], after["epoch"]),
        "shed": (after["load"]["shed_connections"]
                 - before["load"]["shed_connections"]),
        "retries": resilience["retry_policy"]["retries_performed"],
        "breaker_opens": sum(breaker["open_count"] for breaker
                             in resilience["breakers"].values()),
    }


class Result:
    def __init__(self, correct: bool, attempted: int, failed: int,
                 end_to_end: dict, per_layer: dict | None,
                 lines: list[str], mean_ms: dict):
        self.mean_ms = mean_ms
        self.correct = correct
        self.attempted = attempted
        self.failed = failed
        self.end_to_end = end_to_end
        self.per_layer = per_layer
        self.lines = lines

    def document(self, traced: bool) -> dict:
        values, spec = ((self.per_layer, PER_LAYER) if traced
                        else (self.end_to_end, END_TO_END))
        return {"correct": self.correct, "attempted": self.attempted,
                "failed": self.failed,
                "metrics": {entry[0]: {"value": values[entry[0]],
                                       "unit": entry[1]} for entry in spec}}


def run_workload(name: str, seed: int, seconds: float,
                 traced: bool) -> Result:
    import numpy as np
    import harness
    from harness import (BOOTSTRAP_USERS, Connection, Inputs, Server, Tally,
                         bootstrap, encode, slowness)
    from layers import layer_metrics
    from repro.queries import answer_workload
    from repro.serving.service import query_to_wire

    inputs = Inputs(seed)
    writes = name == "ingest-refresh"
    if name == "range-single":
        workloads = harness.single_queries(inputs.fresh_ranges(3, stream=2))
    elif name == "analytics-batch":
        workloads = inputs.analytics_batches(prefetch=int(seconds * 40))
    else:
        workloads = harness.single_queries(inputs.fresh_ranges(2, stream=3))
        bodies = inputs.ingest_stream()
    check_wire = [query_to_wire(query) for query in inputs.check_queries]
    reference = reference_service(inputs.bootstrap_rows)
    reference_check = _wire_answers(reference, check_wire)["answers"]
    truth = answer_workload(inputs.population, inputs.check_queries)

    work = HERE / "work" / f"{name}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    servers: list[Server] = []
    load = Tally()
    setup_seconds, setup_raw, load_seconds, load_bytes = [], [], [], []

    def start(index: int) -> Server:
        """Spawn a server and bootstrap it; record the set-up figures."""
        started = time.perf_counter()
        server = Server(work / f"store{index}.db",
                        work / f"trace{index}.json" if traced else None)
        servers.append(server)
        empty_bytes = server.store_bytes()
        connection = Connection(server.port)
        probes, probing = len(load.probes), load.probing
        ingest_seconds = bootstrap(connection, inputs.bootstrap_bodies, load)
        elapsed = time.perf_counter() - started - (load.probing - probing)
        setup_raw.append(elapsed)
        setup_seconds.append(elapsed / slowness(load.probes[probes:]))
        connection.close()
        load_seconds.append(ingest_seconds)
        load_bytes.append((server.store_bytes() - empty_bytes)
                          / BOOTSTRAP_USERS)
        return server

    harness.warm_probe()
    try:
        server = start(0)
        control = Connection(server.port)
        checked = control.json("POST", "/query", {"queries": check_wire},
                               "check-q-0")["answers"]
        diffs = [_max_diff(checked, reference_check)]
        answer_mae = float(np.mean(np.abs(np.asarray(checked) - truth)))
        before = control.json("GET", "/healthz", None, "guard-0")
        control.close()
        window_bytes = server.store_bytes()

        # The window runs in SETUPS segments with a start-up of another
        # server between them, so that setup_s (and a read workload's
        # bootstrap ingest figures) sample the whole run.  The measured
        # server idles meanwhile.  A traced run reports none of those
        # and runs one segment.
        segments = 1 if traced else SETUPS
        tally = Tally()
        duration = 0.0
        for segment in range(segments):
            if segment:
                start(segment).stop()
            # The load generator's own collector pauses would count as
            # server latency; it allocates little, so it runs without one.
            gc.disable()
            try:
                started = time.perf_counter()
                if writes:
                    part = harness.run_ingest_refresh(
                        server.port, workloads, bodies, seconds / segments,
                        first_batch=tally.batches)
                else:
                    part = harness.run_queries(
                        server.port, workloads, seconds / segments,
                        sample_every=10 if name == "range-single" else 8)
                ended = time.perf_counter()
            finally:
                gc.enable()
            if segment == 0:
                window_start = started
            window_end = ended
            duration += ended - started - part.probing
            tally.merge(part)

        control = Connection(server.port)
        after = control.json("GET", "/healthz", None, "guard-1")
        rss_mb = server.peak_rss_mb()
        window_bytes = server.store_bytes() - window_bytes
        if writes:
            # The final state must equal a reference fed the bootstrap
            # plus every acknowledged batch, in order.
            control.json("POST", "/refinalize", {}, "check-r-0")
            final = control.json("POST", "/query", {"queries": check_wire},
                                 "check-q-1")["answers"]
            replay = reference_service(
                inputs.bootstrap_rows
                + [inputs.stream_rows(index) for index in tally.acked])
            diffs.append(_max_diff(final,
                                   _wire_answers(replay, check_wire)["answers"]))
        probe_rtts = {}
        if traced:
            top = harness.DOMAIN_SIZE - 1
            gc.disable()
            try:
                for probe in range(PROBES):
                    for dimension in (2, 3):
                        request_id = f"probe-l{dimension}-{probe}"
                        body = encode({"queries": [{"predicates": [
                            [attribute, 0, top - probe]
                            for attribute in range(dimension)]}]})
                        status, _, rtt = control.post("/query", body,
                                                      request_id)
                        if status == 200:
                            probe_rtts[request_id] = rtt
            finally:
                gc.enable()
        control.close()
        server.stop()
        for queries, data in tally.samples:
            diffs.append(_max_diff(json.loads(data)["results"],
                                   _wire_answers(reference,
                                                 queries)["results"]))
    finally:
        for server in servers:
            server.stop()
        trace_path = work / "trace0.json"
        trace = (json.loads(trace_path.read_text())
                 if traced and trace_path.exists() else None)
        shutil.rmtree(work, ignore_errors=True)

    guard = _guard(before, after)
    queries = tally.latencies["query"]
    ingests = (tally if writes else load).latencies["ingest"]
    refinalizes = (tally if writes else load).latencies["refinalize"]
    # Timings at the reference host speed: see README.md.
    window_slowness = slowness(tally.probes)
    ingest_slowness = window_slowness if writes else slowness(load.probes)
    raw = {
        "setup_s": statistics.median(setup_raw),
        "queries_per_s": tally.queries / duration,
        "reports_per_s": (tally.reports / duration if writes
                          else load.reports / sum(load_seconds)),
        "refinalize_mean_ms": statistics.fmean(refinalizes) * 1e3,
    }
    end_to_end = {
        "setup_s": statistics.median(setup_seconds),
        "queries_per_s": raw["queries_per_s"] * window_slowness,
        "reports_per_s": raw["reports_per_s"] * ingest_slowness,
        "refinalize_mean_ms": raw["refinalize_mean_ms"] / ingest_slowness,
        "store_bytes_per_report": (window_bytes / tally.reports if writes
                                   else statistics.median(load_bytes)),
        "answer_mae": answer_mae,
        "server_rss_mb": rss_mb,
    }
    error_rate = tally.failed / tally.attempted
    gap_ms = _ms(tally.gaps, 50) if tally.gaps else 0.0
    max_diff = max(diffs)
    # Read workloads must have sampled answers to check.
    checked_enough = writes or len(tally.samples) > 0
    correct = (guard["answer_cache_hit_ratio"] == 0.0
               and max_diff <= TOLERANCE and checked_enough)

    unit = {entry[0]: entry[1] for entry in END_TO_END}
    lines = [f"workload {name}: {WORKLOADS[name]}",
             f"window {duration:.2f} s, {tally.attempted} requests, "
             f"{tally.queries} queries, {tally.reports} reports"]
    for metric, value in end_to_end.items():
        lines.append(f"  {metric:<24} {value:14.6g} {unit[metric]}"
                     + (f"  (as measured: {raw[metric]:.6g})"
                        if metric in raw else ""))
    lines.append(f"  host slowness: window {window_slowness:.4f} "
                 f"({len(tally.probes)} probes), bootstrap "
                 f"{slowness(load.probes):.4f} ({len(load.probes)} probes)")
    lines.append(f"  {'error_rate':<24} {error_rate:14.6g} fraction  "
                 f"({tally.failed} of {tally.attempted} requests)")
    source = "window" if writes else "bootstrap"
    for kind, values, where in (("query", queries, "window"),
                                ("ingest", ingests, source),
                                ("refinalize", refinalizes, source)):
        lines.append(f"  {kind} round trip ({where}): mean "
                     f"{statistics.fmean(values) * 1e3:.4f} ms, p50 "
                     f"{_ms(values, 50):.4f} ms, p99 {_ms(values, 99):.4f} "
                     f"ms, n={len(values)}")
    lines.append(f"  setup_s per start-up: "
                 + ", ".join(f"{value:.3f}" for value in setup_seconds)
                 + " (as measured: "
                 + ", ".join(f"{value:.3f}" for value in setup_raw) + ")")
    lines.append(
        f"cache guard: answer cache {guard['answer_cache_hits']} hits of "
        f"{guard['answer_cache_lookups']} lookups (ratio "
        f"{guard['answer_cache_hit_ratio']}), {guard['answer_cache_entries']} "
        f"entries; epoch {guard['epochs'][0]} -> {guard['epochs'][1]}; "
        f"plan cache {guard['plan_cache_before']} -> "
        f"{guard['plan_cache_after']}"
        + ("" if guard["answer_cache_hit_ratio"] == 0.0
           else "  RUN INVALID: the answer cache served a hit"))
    lines.append(f"check: {len(diffs)} comparisons with the in-process "
                 f"reference, max |diff| {max_diff:.3g} (tolerance "
                 f"{TOLERANCE}); answer_mae over "
                 f"{len(inputs.check_queries)} ground-truth queries")
    lines.append(f"load generator: median {gap_ms:.4f} ms of its own time "
                 "between requests")

    mean_ms = {"query": statistics.fmean(queries) * 1e3,
               "ingest": statistics.fmean(ingests) * 1e3}
    per_layer = None
    if traced:
        per_layer, table = layer_metrics(
            trace, writes_in_window=writes, window=(window_start, window_end),
            probe_rtts=probe_rtts, guard=guard,
            store_bytes_per_report=end_to_end["store_bytes_per_report"])
        per_layer["trace.query_mean_ms"] = mean_ms["query"]
        per_layer["trace.ingest_mean_ms"] = mean_ms["ingest"]
        per_layer["loadgen.gap_ms"] = gap_ms
        lines.extend(table)
        lines.append(f"trace.coverage: lambda=2 "
                     f"{per_layer['trace.coverage_l2']:.3f}, lambda=3 "
                     f"{per_layer['trace.coverage_l3']:.3f} of the client "
                     f"round trip (median of {PROBES} probes each)")
    return Result(correct, tally.attempted, tally.failed, end_to_end,
                  per_layer, lines, mean_ms)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--write-benchmark-json", action="store_true",
                        help="write the metric declarations to "
                             "BENCHMARK.json and exit")
    args = parser.parse_args(argv)
    if args.write_benchmark_json:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(benchmark_json(), indent=2) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro package under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    print("env: " + json.dumps({**environment(args.seed),
                                "workload": args.workload,
                                "seconds": args.seconds,
                                "trace": args.trace}), flush=True)
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds,
                              bool(args.trace))
        print("\n".join(result.lines))
        print(json.dumps(result.document(bool(args.trace))))
        return 0

    summary = {}
    for name in WORKLOADS:
        untraced = run_workload(name, args.seed, args.seconds, False)
        print("\n".join(untraced.lines), flush=True)
        summary[name] = untraced.document(False)
        if args.trace:
            traced = run_workload(name, args.seed, args.seconds, True)
            print("\n".join(traced.lines))
            for kind in ("query", "ingest"):
                overhead = traced.mean_ms[kind] - untraced.mean_ms[kind]
                print(f"tracing overhead, mean {kind} round trip: "
                      f"{overhead:+.4f} ms ({traced.mean_ms[kind]:.4f} "
                      f"traced, {untraced.mean_ms[kind]:.4f} untraced)")
            summary[name]["per_layer"] = traced.document(True)["metrics"]
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
