"""Run ``repro serve`` in this process with span tracing around each layer.

Usage::

    PYTHONPATH=src python3 perfbench/traced_server.py TRACE.json serve --backend sqlite ...

The arguments after the trace path go to ``repro.cli.main`` unchanged.
Before it runs, the entry point of every serving layer is wrapped so
that each HTTP request records one span tree (keyed by the request's
``X-Request-Id`` header).  ``gc.callbacks`` record every collector
pause, and the listener's pool submit is timestamped so the wait until
a worker picks the connection up is known.  When the server exits
(SIGINT), the span trees, pauses, admission waits and the process's
peak RSS are written to TRACE.json.  Nothing under ``src/`` changes;
the untraced benchmark runs ``python3 -m repro.cli serve`` directly.

All times are ``time.perf_counter_ns`` readings.  On Linux that clock
is CLOCK_MONOTONIC, shared with the load generator, so it can place
pauses and admissions inside its own measurement window.
"""

from __future__ import annotations

import functools
import gc
from array import array
import importlib
import json
import resource
import sys
import threading
import time

_now = time.perf_counter_ns


class Tracer:
    """In-memory span trees, one per request, plus runtime events."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: ``(id, path, counts, first span row)`` per finished request.
        self.requests: list[tuple] = []
        #: Finished spans, five int64 per row: request number, name
        #: code, start_ns, end_ns, parent index within the request.
        #: One flat buffer instead of small objects that would pin the
        #: server's memory arenas and lengthen its GC passes.
        self.spans = array("q")
        self.names: list[str] = []
        self._codes: dict[str, int] = {}
        #: ``(start_ns, generation, pause_ns)`` per collection.
        self.gc_pauses: list[tuple] = []
        #: ``(submit_ns, wait_ns)`` per admitted connection.
        self.admissions: list[tuple] = []
        self._submitted: dict[int, int] = {}
        self._gc_start = 0

    # -- request trees --------------------------------------------------
    def begin_request(self) -> None:
        """Open a tree whose root span ``http.request`` starts now."""
        self._local.request = {"id": None, "path": None, "counts": {},
                               "spans": [["http.request", _now(), 0, -1]]}
        self._local.stack = [0]

    def end_request(self, request_id: str | None, path: str) -> None:
        request = getattr(self._local, "request", None)
        self._local.request = None
        if request is None:
            return
        request["spans"][0][2] = _now()
        with self._lock:
            number = len(self.requests)
            self.requests.append((request_id, path,
                                  tuple(request["counts"].items()),
                                  len(self.spans) // 5))
            for name, start, end, parent in request["spans"]:
                code = self._codes.setdefault(name, len(self._codes))
                if code == len(self.names):
                    self.names.append(name)
                self.spans.extend((number, code, start, end, parent))

    def span(self, name: str, fn, counter=None):
        """``fn`` wrapped in a span; ``counter(args, result)`` may
        return counts to add to the current request."""
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            request = getattr(local, "request", None)
            if request is None:
                return fn(*args, **kwargs)
            spans = request["spans"]
            index = len(spans)
            spans.append([name, _now(), 0, local.stack[-1]])
            local.stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                local.stack.pop()
                spans[index][2] = _now()
            if counter is not None:
                counts = request["counts"]
                for key, value in counter(args, result).items():
                    counts[key] = counts.get(key, 0) + value
            return result
        return wrapper

    # -- runtime events -------------------------------------------------
    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_start = _now()
        elif self._gc_start:
            self.gc_pauses.append((self._gc_start, info["generation"],
                                   _now() - self._gc_start))
            self._gc_start = 0

    def submitted(self, request) -> None:
        self._submitted[id(request)] = _now()

    def started(self, request) -> None:
        submitted = self._submitted.pop(id(request), None)
        if submitted is not None:
            with self._lock:
                self.admissions.append((submitted, _now() - submitted))

    def document(self) -> dict:
        # Read before the document below adds its own allocations.
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        requests = [{"id": request_id, "path": path, "counts": dict(counts),
                     "spans": []}
                    for request_id, path, counts, _ in self.requests]
        rows = self.spans
        for row in range(0, len(rows), 5):
            requests[rows[row]]["spans"].append(
                [self.names[rows[row + 1]], rows[row + 2], rows[row + 3],
                 rows[row + 4]])
        return {"requests": requests, "gc_pauses": self.gc_pauses,
                "admissions": self.admissions, "peak_rss_kb": peak_rss_kb}


def _wu_rows(args, result) -> dict:
    return {"wu.rows": int(args[2].shape[0])}


def _plan_size(args, result) -> dict:
    return {"plan.compiles": 1,
            "plan.primitives": int(result.n_primitives),
            "plan.queries": int(result.n_queries)}


#: (module, class or None, attribute, span name, counter).  Module-level
#: functions are patched in the module that *calls* them, because the
#: callers imported them by name.
SPANS = [
    ("repro.serving.http", "ServingRequestHandler", "_read_json",
     "http.decode", None),
    ("repro.serving.http", "ServingRequestHandler", "_send_json",
     "http.encode", None),
    ("repro.serving.service", None, "queries_from_wire", "wire.parse", None),
    ("repro.serving.epoch", "EstimatorEpoch", "wire_document",
     "epoch.answer", None),
    ("repro.serving.epoch", None, "_results_document", "wire.results", None),
    ("repro.core.base", "RangeQueryMechanism", "_plan_for", "plan.lookup",
     None),
    ("repro.queries.planner", "QueryPlanner", "plan", "plan.compile", None),
    ("repro.core.query_estimation", "PairwiseBatchAnswering",
     "_answer_compiled", "kernel.answer", None),
    ("repro.core.query_estimation", None, "weighted_update_batch", "wu",
     _wu_rows),
    ("repro.queries.compiler", "CompiledPlan", "assemble", "assemble", None),
    ("repro.serving.tenants", "TenantManager", "ingest", "tenant.ingest",
     None),
    ("repro.storage.sqlite", "SQLiteBackend", "append_ingest",
     "storage.append", None),
    ("repro.core.base", "RangeQueryMechanism", "partial_fit",
     "collect.partial_fit", None),
    ("repro.serving.service", "QueryService", "_refinalize",
     "finalize.refinalize", None),
    ("repro.core.hdg", "HDG", "shard_state", "finalize.capture", None),
    ("repro.core.hdg", "HDG", "load_shard_state", "finalize.capture", None),
    ("repro.core.base", "RangeQueryMechanism", "finalize", "finalize.phase2",
     None),
    ("repro.serving.service", "QueryService", "_publish", "finalize.publish",
     None),
]


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point in :data:`SPANS` and the HTTP seams."""
    for module_name, owner_name, attribute, name, counter in SPANS:
        module = importlib.import_module(module_name)
        owner = getattr(module, owner_name) if owner_name else module
        setattr(owner, attribute,
                tracer.span(name, getattr(owner, attribute), counter))

    from repro.queries.compiler import CompiledPlan
    from_plan = CompiledPlan.__dict__["from_plan"].__func__
    CompiledPlan.from_plan = classmethod(
        tracer.span("plan.compile", from_plan, _plan_size))

    from repro.serving.http import ServingHTTPServer, ServingRequestHandler
    parse_request = tracer.span("http.parse",
                                ServingRequestHandler.parse_request)

    def traced_parse_request(handler):
        tracer.begin_request()
        return parse_request(handler)

    ServingRequestHandler.parse_request = traced_parse_request

    for method in ("do_GET", "do_POST", "do_DELETE"):
        def traced_method(handler, _inner=getattr(ServingRequestHandler,
                                                  method)):
            try:
                _inner(handler)
            finally:
                tracer.end_request(handler.headers.get("X-Request-Id"),
                                   handler.path)
        setattr(ServingRequestHandler, method, traced_method)

    process_request = ServingHTTPServer.process_request
    process_in_worker = ServingHTTPServer._process_in_worker

    def traced_process_request(server, request, client_address):
        tracer.submitted(request)
        process_request(server, request, client_address)

    def traced_process_in_worker(server, request, client_address):
        tracer.started(request)
        process_in_worker(server, request, client_address)

    ServingHTTPServer.process_request = traced_process_request
    ServingHTTPServer._process_in_worker = traced_process_in_worker
    gc.callbacks.append(tracer.on_gc)


def main(argv: list[str]) -> int:
    trace_path, cli_argv = argv[0], argv[1:]
    tracer = Tracer()
    install(tracer)
    from repro.cli import main as cli_main
    code = cli_main(cli_argv)
    gc.callbacks.remove(tracer.on_gc)
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.document(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
