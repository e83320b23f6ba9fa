"""Per-layer metrics from the traced server's span trees.

A span's self time is its duration minus the time its direct children
cover.  Each per-layer time is the mean self time per request of the
kind that runs the layer: ``/query`` requests for the read path,
``/ingest`` for the write path and ``/refinalize`` for finalize.  Read
path layers come from the measured window.  Write path layers come
from the window on a workload that writes during it, and otherwise
from the bootstrap, which is where the end-to-end ingest metrics of
such a workload come from too.
"""

from __future__ import annotations

import statistics

KINDS = {"/query": "query", "/ingest": "ingest", "/refinalize": "refinalize"}


def self_times(request: dict) -> dict[str, int]:
    """Nanoseconds of self time per span name in one request tree."""
    spans = request["spans"]
    covered = [0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, int] = {}
    for index, (name, start, end, _) in enumerate(spans):
        totals[name] = totals.get(name, 0) + (end - start) - covered[index]
    return totals


class KindProfile:
    """Span self times and counts summed over requests of one kind."""

    def __init__(self, requests: list[dict]):
        self.requests = len(requests)
        self.self_ns: dict[str, int] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        for request in requests:
            for name, nanoseconds in self_times(request).items():
                self.self_ns[name] = self.self_ns.get(name, 0) + nanoseconds
            for span in request["spans"]:
                self.calls[span[0]] = self.calls.get(span[0], 0) + 1
            for name, value in request["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + value

    def ms(self, name: str) -> float:
        """Mean self time of ``name`` per request, in ms."""
        if not self.requests:
            return 0.0
        return self.self_ns.get(name, 0) / self.requests / 1e6

    def table(self, kind: str) -> list[str]:
        total = sum(self.self_ns.values()) or 1
        lines = [f"  {kind}: {self.requests} requests, "
                 f"{total / max(self.requests, 1) / 1e6:.4f} ms traced "
                 "per request"]
        for name, nanoseconds in sorted(self.self_ns.items(),
                                        key=lambda item: -item[1]):
            lines.append(f"    {name:<22} {self.ms(name):9.4f} ms/request "
                         f"{100.0 * nanoseconds / total:5.1f}%  "
                         f"({self.calls[name]} spans)")
        return lines


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(trace: dict, *, writes_in_window: bool,
                  window: tuple[float, float], probe_rtts: dict,
                  guard: dict, store_bytes_per_report: float
                  ) -> tuple[dict, list[str]]:
    """The per-layer metrics and a printable self-time table.

    ``window`` is the measured interval in ``time.perf_counter``
    seconds (the server's clock too); ``probe_rtts`` maps probe request
    ids to client round trips; ``guard`` holds the ``/healthz`` deltas.
    """
    write_phase = "window-" if writes_in_window else "load-"
    grouped: dict[str, list[dict]] = {kind: [] for kind in KINDS.values()}
    for request in trace["requests"]:
        kind = KINDS.get((request["path"] or "").split("?")[0])
        request_id = request["id"] or ""
        wanted = "window-" if kind == "query" else write_phase
        if kind and request_id.startswith(wanted):
            grouped[kind].append(request)
    query = KindProfile(grouped["query"])
    ingest = KindProfile(grouped["ingest"])
    refinalize = KindProfile(grouped["refinalize"])

    start_ns, end_ns = window[0] * 1e9, window[1] * 1e9
    pauses = [pause for pause in trace["gc_pauses"]
              if start_ns <= pause[0] <= end_ns]
    admissions = [wait for submitted, wait in trace["admissions"]
                  if start_ns <= submitted <= end_ns]
    roots = {request["id"]: request["spans"][0]
             for request in trace["requests"]}

    def coverage(prefix: str) -> float:
        shares = [(roots[rid][2] - roots[rid][1]) / 1e9 / rtt
                  for rid, rtt in probe_rtts.items()
                  if rid.startswith(prefix) and rid in roots]
        return statistics.median(shares) if shares else 0.0

    wu_calls = query.calls.get("wu", 0)
    metrics = {
        "http.decode_ms": query.ms("http.decode"),
        "http.encode_ms": query.ms("http.encode"),
        "http.admission_wait_ms": (statistics.fmean(admissions) / 1e6
                                   if admissions else 0.0),
        "http.shed": guard["shed"],
        "wire.parse_ms": query.ms("wire.parse"),
        "epoch.answer_ms": query.ms("epoch.answer"),
        "epoch.answer_cache_hit_ratio": guard["answer_cache_hit_ratio"],
        "epoch.answer_cache_entries": guard["answer_cache_entries"],
        "plan.compile_ms": query.ms("plan.compile"),
        "plan.cache_hit_ratio": 1.0 - _ratio(
            query.counts.get("plan.compiles", 0),
            query.calls.get("plan.lookup", 0)),
        "plan.primitives_per_query": _ratio(
            query.counts.get("plan.primitives", 0),
            query.counts.get("plan.queries", 0)),
        "kernel.answer_ms": query.ms("kernel.answer"),
        "wu.calls": wu_calls,
        "wu.rows_per_call": _ratio(query.counts.get("wu.rows", 0), wu_calls),
        "assemble.ms": query.ms("assemble"),
        "storage.append_ms": ingest.ms("storage.append"),
        "storage.bytes_per_report": store_bytes_per_report,
        "resilience.retries": guard["retries"],
        "resilience.breaker_opens": guard["breaker_opens"],
        "collect.partial_fit_ms": ingest.ms("collect.partial_fit"),
        "finalize.capture_ms": refinalize.ms("finalize.capture"),
        "finalize.phase2_ms": refinalize.ms("finalize.phase2"),
        "finalize.publish_ms": refinalize.ms("finalize.publish"),
        "runtime.gc_pause_ms": sum(pause[2] for pause in pauses) / 1e6,
        "runtime.gc_pause_max_ms": max((pause[2] for pause in pauses),
                                       default=0) / 1e6,
        "runtime.gc2_count": sum(1 for pause in pauses if pause[1] == 2),
        "trace.coverage_l2": coverage("probe-l2-"),
        "trace.coverage_l3": coverage("probe-l3-"),
        "runtime.peak_rss_mb": trace["peak_rss_kb"] / 1024.0,
    }
    lines = ["self time per request, by span (window"
             + ("" if writes_in_window else "; ingest and refinalize from "
                "the bootstrap") + "):"]
    for kind, profile in (("query", query), ("ingest", ingest),
                          ("refinalize", refinalize)):
        if profile.requests:
            lines.extend(profile.table(kind))
    for generation in range(3):
        values = [pause[2] / 1e6 for pause in pauses
                  if pause[1] == generation]
        lines.append(f"  gc gen{generation}: {len(values)} pauses, "
                     f"{sum(values):.2f} ms total, "
                     f"max {max(values, default=0.0):.2f} ms")
    return metrics, lines
