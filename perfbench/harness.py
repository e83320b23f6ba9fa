"""Inputs, the server process and the closed-loop clients of the benchmark.

Everything here talks to the server only over HTTP: the server sees the
generated rows and queries and nothing else.  Settings follow the
ROADMAP baseline: HDG, epsilon 1, d=6, c=64, ``normal`` synthetic data,
per-dimension query volume 0.5 and a 100k-user bootstrap.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import select
import signal
import socket
import sqlite3
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from repro.datasets import make_dataset
from repro.queries import WorkloadGenerator
from repro.serving.service import query_to_wire

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MECHANISM = "HDG"
EPSILON = 1.0
N_ATTRIBUTES = 6
DOMAIN_SIZE = 64
VOLUME = 0.5
BOOTSTRAP_USERS = 100_000
BATCH = 1_000
#: The gateway posts ``/refinalize`` after this many ingest batches.
REFINALIZE_EVERY = 20
#: Server request workers; equals the 2 CPUs the benchmark was sized on,
#: and no workload opens more connections than this.
WORKERS = 2
#: Seed of the bootstrap population and of the server's privacy noise.
#: Both stay fixed so that ``answer_mae`` moves only with the check
#: workload the run seed draws (a seed-dependent population spreads the
#: MAE by about 30% between seeds).
POPULATION_SEED = 0
#: Batches of fresh users generated for the ingest stream; the writer
#: cycles through them if it gets further.
INGEST_STREAM_BATCHES = 600
ANALYTICS_BATCH_QUERIES = 100
#: The clients run the host-speed probe between two requests this often;
#: more often during a bootstrap, which lasts under a second.
PROBE_EVERY = 0.05
BOOTSTRAP_PROBE_EVERY = 0.02
#: What one probe takes on the reference host (a 2-vCPU Xeon VM at its
#: usual speed); timings are reported at that speed.
PROBE_REFERENCE_S = 2.6e-3

_WIDTH = int(round(VOLUME * DOMAIN_SIZE))
_POSITIONS = DOMAIN_SIZE - _WIDTH + 1


def range_universe_size(dimension: int) -> int:
    """Distinct lambda-D ranges of volume 0.5 (20 * 33^3 for lambda=3)."""
    return (len(list(combinations(range(N_ATTRIBUTES), dimension)))
            * _POSITIONS ** dimension)


def range_from_index(index: int, dimension: int) -> dict:
    """The ``index``-th lambda-D range of the universe, in wire form."""
    combos = list(combinations(range(N_ATTRIBUTES), dimension))
    combo, rest = divmod(int(index), _POSITIONS ** dimension)
    predicates = []
    for attribute in combos[combo]:
        rest, low = divmod(rest, _POSITIONS)
        predicates.append([attribute, low, low + _WIDTH - 1])
    return {"predicates": predicates}


def encode(document: dict) -> bytes:
    return json.dumps(document).encode("utf-8")


#: The probe gathers from a table larger than the L2 cache and builds,
#: sorts and serializes small Python objects: the server's own mix of
#: work, so that it slows down in step with the server when the host
#: does (a probe that stays in the L1 cache slows down half as much).
_PROBE_TABLE = np.random.default_rng(0).random(1 << 20)
_PROBE_INDEX = np.random.default_rng(1).integers(0, 1 << 20, 20_000)


def speed_probe() -> float:
    """Run a fixed piece of work (about 2.6 ms on the reference host) and
    return its wall time.  It uses no code of the server, so a change to
    the server cannot move it."""
    started = time.perf_counter()
    total = 0.0
    for shift in range(6):
        total += float(_PROBE_TABLE[_PROBE_INDEX + shift].sum())
    rows = [{"a": i, "b": (i * 7) % 13, "c": str(i)} for i in range(1500)]
    rows.sort(key=lambda row: (row["b"], row["a"]))
    json.dumps(rows[:300])
    return time.perf_counter() - started


def warm_probe() -> None:
    """Run the probe until its memory is mapped and cached: the first
    runs in a process take several times longer."""
    for _ in range(20):
        speed_probe()


def _smoothed(samples: list[float], width: int = 5) -> np.ndarray:
    """Each probe time replaced by the median of it and its neighbours,
    so that one interrupted probe does not count as a slow period."""
    values = np.asarray(samples, dtype=float)
    half = width // 2
    return np.array([np.median(values[max(0, i - half):i + half + 1])
                     for i in range(len(values))])


def slowness(samples: list[float]) -> float:
    """How much slower the host ran than the reference while these
    probes ran: their time-weighted mean over the reference time.
    Timings are divided by it and rates multiplied by it."""
    return float(np.mean(_smoothed(samples))) / PROBE_REFERENCE_S


class Inputs:
    """Everything a run sends, made from its seed (same seed, same inputs)."""

    def __init__(self, seed: int):
        self.seed = seed
        self.population = make_dataset(
            "normal", BOOTSTRAP_USERS, N_ATTRIBUTES, DOMAIN_SIZE,
            rng=np.random.default_rng(POPULATION_SEED))
        values = self.population.values
        self.bootstrap_rows = [values[start:start + BATCH]
                               for start in range(0, len(values), BATCH)]
        self.bootstrap_bodies = [encode({"rows": rows.tolist()})
                                 for rows in self.bootstrap_rows]
        checks = WorkloadGenerator(N_ATTRIBUTES, DOMAIN_SIZE,
                                   rng=self._rng(1))
        self.check_queries = (checks.random_workload(1_000, 2, VOLUME)
                              + checks.random_workload(200, 3, VOLUME))
        self._stream_rows: np.ndarray | None = None

    def _rng(self, stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, stream])

    def fresh_ranges(self, dimension: int, stream: int):
        """Distinct lambda-D ranges in seeded order.  The lambda=2
        universe (16,335 ranges) restarts once exhausted; by then the
        epoch has moved on, so a repeat still misses the answer cache."""
        size = range_universe_size(dimension)
        order = self._rng(stream).permutation(size)
        while True:
            for index in order:
                yield range_from_index(index, dimension)

    def analytics_batches(self, prefetch: int):
        """Endless fresh mixed typed batches: all five kinds, lambda=2
        ranges, 1-attribute marginal and top-k tables.  Making one takes
        about 2 ms, so the first ``prefetch`` are made before the window
        starts and the load generator does not slow the loop."""
        generator = WorkloadGenerator(N_ATTRIBUTES, DOMAIN_SIZE,
                                      rng=self._rng(4))

        def batches():
            while True:
                queries = [query_to_wire(query) for query in
                           generator.mixed_workload(
                               ANALYTICS_BATCH_QUERIES, 2, VOLUME,
                               table_dimension=1)]
                yield queries, encode({"queries": queries})

        made = batches()
        return itertools.chain([next(made) for _ in range(prefetch)], made)

    def ingest_stream(self) -> list[bytes]:
        """Request bodies of the ingest stream (new users, same law)."""
        stream = make_dataset("normal", INGEST_STREAM_BATCHES * BATCH,
                              N_ATTRIBUTES, DOMAIN_SIZE, rng=self._rng(5))
        self._stream_rows = stream.values.astype(np.int8)
        return [encode({"rows": self.stream_rows(index).tolist()})
                for index in range(INGEST_STREAM_BATCHES)]

    def stream_rows(self, index: int) -> np.ndarray:
        """Rows of ingest-stream batch ``index`` (cycled)."""
        start = (index % INGEST_STREAM_BATCHES) * BATCH
        return self._stream_rows[start:start + BATCH].astype(np.int64)


class Server:
    """``repro serve --backend sqlite`` in a child process.

    Untraced it runs ``python3 -m repro.cli``; with ``trace`` it runs
    ``traced_server.py``, which wraps the layers before calling the
    same ``repro.cli.main``.
    """

    def __init__(self, store: Path, trace: Path | None = None):
        self.store = store
        launcher = ([str(HERE / "traced_server.py"), str(trace)] if trace
                    else ["-m", "repro.cli"])
        argv = [sys.executable, *launcher, "serve",
                "--backend", "sqlite", "--store", str(store),
                "--port", "0", "--workers", str(WORKERS),
                "--mechanism", MECHANISM, "--epsilon", str(EPSILON),
                "--seed", str(POPULATION_SEED),
                "--total-users", str(BOOTSTRAP_USERS),
                "--domain-size", str(DOMAIN_SIZE)]
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self._log = open(store.with_suffix(".log"), "wb")
        self.process = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                        stderr=self._log, env=env, cwd=ROOT)
        self.port = self._wait_for_port(timeout=120.0)

    def _wait_for_port(self, timeout: float) -> int:
        deadline = time.monotonic() + timeout
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if not ready:
                continue
            line = stdout.readline().decode("utf-8", "replace")
            if not line:
                break
            match = re.search(r"on http://[^:]+:(\d+) ", line)
            if match:
                return int(match.group(1))
        self.stop()
        log = self.store.with_suffix(".log").read_text(errors="replace")
        raise RuntimeError(f"server did not start:\n{log[-2000:]}")

    def peak_rss_mb(self) -> float:
        """High-water resident set size, from /proc (Linux)."""
        status = Path(f"/proc/{self.process.pid}/status").read_text()
        kilobytes = int(re.search(r"VmHWM:\s+(\d+)", status).group(1))
        return kilobytes / 1024.0

    def store_bytes(self) -> int:
        """Committed database size (pages x page size), as a reader of
        the WAL-mode file sees it.  The ``-wal`` file's own size depends
        on when SQLite last checkpointed, so it is not counted."""
        connection = sqlite3.connect(f"file:{self.store}?mode=ro", uri=True)
        try:
            pages = connection.execute("PRAGMA page_count").fetchone()[0]
            size = connection.execute("PRAGMA page_size").fetchone()[0]
        finally:
            connection.close()
        return int(pages) * int(size)

    def stop(self) -> None:
        """SIGINT (the server drains its pool and closes the store)."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


class Connection:
    """One keep-alive HTTP/1.1 client connection on a raw socket.

    ``http.client`` parses response headers through the email package,
    which adds about 0.1 ms of client time to every round trip; this
    reads only the status line and ``Content-Length`` (the server sends
    one on every response).  It also records its own time between
    requests, so a client-bound run is visible.
    """

    def __init__(self, port: int):
        self.socket = socket.create_connection(("127.0.0.1", port),
                                               timeout=60)
        self.socket.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._buffer = b""
        self.gaps: list[float] = []
        self._last_end: float | None = None

    def call(self, method: str, path: str, body: bytes | None,
             request_id: str) -> tuple[int, bytes, float]:
        start = time.perf_counter()
        if self._last_end is not None:
            self.gaps.append(start - self._last_end)
        body = body or b""
        head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                f"X-Request-Id: {request_id}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n\r\n")
        self.socket.sendall(head.encode("ascii") + body)
        status, data = self._response()
        end = time.perf_counter()
        self._last_end = end
        return status, data, end - start

    def _response(self) -> tuple[int, bytes]:
        while b"\r\n\r\n" not in self._buffer:
            self._fill()
        head, _, self._buffer = self._buffer.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        while len(self._buffer) < length:
            self._fill()
        data, self._buffer = self._buffer[:length], self._buffer[length:]
        return status, data

    def _fill(self) -> None:
        chunk = self.socket.recv(1 << 16)
        if not chunk:
            raise ConnectionError("the server closed the connection")
        self._buffer += chunk

    def post(self, path: str, body: bytes, request_id: str):
        return self.call("POST", path, body, request_id)

    def json(self, method: str, path: str, document: dict | None,
             request_id: str) -> dict:
        """One call that must succeed; its decoded response."""
        body = encode(document) if document is not None else None
        status, data, _ = self.call(method, path, body, request_id)
        if status != 200:
            raise RuntimeError(f"{method} {path} answered {status}: "
                               f"{data[:300]!r}")
        return json.loads(data)

    def close(self) -> None:
        self.socket.close()


@dataclass
class Tally:
    """What one client saw: latencies by request kind, counts, samples."""

    latencies: dict = field(default_factory=lambda: {
        "query": [], "ingest": [], "refinalize": []})
    attempted: int = 0
    failed: int = 0
    queries: int = 0
    reports: int = 0
    gaps: list = field(default_factory=list)
    #: ``(wire workload, response body)`` pairs kept for the check.
    samples: list = field(default_factory=list)
    #: Ingest-stream batches posted, and the indices of those the
    #: server acknowledged, in order.
    batches: int = 0
    acked: list = field(default_factory=list)
    #: Host-speed probe times, and the wall time they took in all.
    probes: list = field(default_factory=list)
    probing: float = 0.0
    _next_probe: float = 0.0

    def probe(self, every: float = PROBE_EVERY) -> None:
        """Run the host-speed probe if ``every`` seconds have passed
        since the last one.  Clients call it between two requests."""
        now = time.perf_counter()
        if now >= self._next_probe:
            elapsed = speed_probe()
            self.probes.append(elapsed)
            self.probing += elapsed
            self._next_probe = now + elapsed + every

    def record(self, kind: str, status: int, elapsed: float) -> bool:
        self.attempted += 1
        if status != 200:
            self.failed += 1
            return False
        self.latencies[kind].append(elapsed)
        return True

    def merge(self, other: "Tally") -> None:
        for kind, values in other.latencies.items():
            self.latencies[kind].extend(values)
        self.attempted += other.attempted
        self.failed += other.failed
        self.queries += other.queries
        self.reports += other.reports
        self.batches += other.batches
        self.gaps.extend(other.gaps)
        self.samples.extend(other.samples)
        self.acked.extend(other.acked)
        self.probes.extend(other.probes)
        self.probing += other.probing


def bootstrap(connection: Connection, bodies: list[bytes],
              tally: Tally) -> float:
    """Post the bootstrap batches like the collector gateway does
    (``/refinalize`` every 20 batches), then one first query.  Returns
    the ingest wall time, host-speed probes excluded."""
    started = time.perf_counter()
    probing = tally.probing
    for index, body in enumerate(bodies):
        tally.probe(BOOTSTRAP_PROBE_EVERY)
        status, data, elapsed = connection.post("/ingest", body,
                                                f"load-i-{index}")
        if not tally.record("ingest", status, elapsed):
            raise RuntimeError(f"bootstrap ingest failed: {data[:300]!r}")
        tally.reports += BATCH
        if (index + 1) % REFINALIZE_EVERY == 0 or index + 1 == len(bodies):
            status, data, elapsed = connection.post("/refinalize", b"{}",
                                                    f"load-r-{index}")
            if not tally.record("refinalize", status, elapsed):
                raise RuntimeError(f"refinalize failed: {data[:300]!r}")
    ingest_seconds = time.perf_counter() - started - (tally.probing - probing)
    # A full-domain range is outside the volume-0.5 universes the
    # workloads draw from, so no workload query repeats it.
    first = encode({"queries": [{"predicates": [[0, 0, DOMAIN_SIZE - 1],
                                                [1, 0, DOMAIN_SIZE - 1]]}]})
    status, data, _ = connection.post("/query", first, "load-q-0")
    if status != 200:
        raise RuntimeError(f"first query failed: {data[:300]!r}")
    return ingest_seconds


# ----------------------------------------------------------------------
# Closed-loop workloads: each client sends its next request only after
# the previous reply, until the deadline.
# ----------------------------------------------------------------------
def single_queries(ranges):
    """``(workload, body)`` pairs posting one range each."""
    for query in ranges:
        yield [query], encode({"queries": [query]})


def _query_loop(connection: Connection, workloads, deadline: float,
                tally: Tally, sample_every: int | None = None,
                probes: bool = True) -> None:
    for index, (queries, body) in enumerate(workloads):
        if time.perf_counter() >= deadline:
            break
        if probes:
            tally.probe()
        status, data, elapsed = connection.post("/query", body,
                                                f"window-q-{index}")
        if tally.record("query", status, elapsed):
            tally.queries += len(queries)
            if sample_every and index % sample_every == 0:
                tally.samples.append((queries, data))
    tally.gaps.extend(connection.gaps)


def run_queries(port: int, workloads, seconds: float,
                sample_every: int) -> Tally:
    """One connection posting ``(workload, body)`` pairs; every
    ``sample_every``-th answer is kept for the correctness check."""
    tally = Tally()
    connection = Connection(port)
    try:
        _query_loop(connection, workloads, time.perf_counter() + seconds,
                    tally, sample_every)
    finally:
        connection.close()
    return tally


def _writer(connection: Connection, bodies: list[bytes], deadline: float,
            tally: Tally, index: int) -> None:
    while time.perf_counter() < deadline:
        tally.probe()
        status, _, elapsed = connection.post(
            "/ingest", bodies[index % len(bodies)], f"window-i-{index}")
        if tally.record("ingest", status, elapsed):
            tally.reports += BATCH
            tally.acked.append(index)
        index += 1
        tally.batches += 1
        if index % REFINALIZE_EVERY == 0 and time.perf_counter() < deadline:
            status, _, elapsed = connection.post("/refinalize", b"{}",
                                                 f"window-r-{index}")
            tally.record("refinalize", status, elapsed)
    tally.gaps.extend(connection.gaps)


def run_ingest_refresh(port: int, workloads, bodies: list[bytes],
                       seconds: float, first_batch: int = 0) -> Tally:
    """A writer posting ingest ``bodies`` from ``first_batch`` on (and
    ``/refinalize`` every 20) beside a reader posting ``workloads``, one
    connection each.  Only the writer runs the host-speed probe, so the
    two threads never probe at once."""
    writes, reads = Tally(), Tally()
    writer_connection, reader_connection = Connection(port), Connection(port)
    deadline = time.perf_counter() + seconds
    errors: list[BaseException] = []

    def guarded(target, *args) -> None:
        try:
            target(*args)
        except BaseException as error:  # re-raised after the join
            errors.append(error)

    threads = [
        threading.Thread(target=guarded, args=(
            _writer, writer_connection, bodies, deadline, writes,
            first_batch)),
        threading.Thread(target=guarded, args=(
            _query_loop, reader_connection, workloads, deadline, reads,
            None, False)),
    ]
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        writer_connection.close()
        reader_connection.close()
    if errors:
        raise errors[0]
    writes.merge(reads)
    return writes
