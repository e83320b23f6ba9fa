"""Stdlib HTTP front-end for :class:`~repro.serving.QueryService`.

The API is a small JSON-over-HTTP surface on a worker-pool server — no
third-party dependencies.  Connections are accepted on the listener
thread and handed to a bounded :class:`~concurrent.futures.
ThreadPoolExecutor`, each worker serving its connection's requests
(HTTP/1.1 keep-alive) with the service's internal lock serializing
state changes:

=======  =================  ================================================
Method   Path               Meaning
=======  =================  ================================================
GET      ``/healthz``       Liveness: status document + package version and
                            the ``storage``, ``resilience`` and ``load``
                            sections
GET      ``/readyz``        Readiness: 200 only when every tenant is
                            serving (no open breakers, nothing quarantined)
POST     ``/ingest``        ``{"rows": [[...], ...], "domain_size"?: c}``
POST     ``/query``         ``{"queries": [...]}`` — one typed wire
                            workload — or ``{"workloads": [[...], ...]}`` —
                            a batch answered under one lock acquisition (see
                            :meth:`~repro.serving.QueryService.query_wire_batch`)
POST     ``/refinalize``    Force a re-finalize of the pending reports
POST     ``/snapshot``      Write a snapshot version (durable backends)
GET      ``/snapshot``      List stored snapshot versions
GET      ``/tenants``       List hosted tenants
POST     ``/tenants``       Create a tenant: ``{"name": n, "config": {...}}``
GET      ``/tenants/<n>``   Inspect one tenant (config, status, snapshots)
DELETE   ``/tenants/<n>``   Delete a tenant and all its stored state
=======  =================  ================================================

The server always fronts a :class:`~repro.serving.tenants.
TenantManager`.  The four serving routes take an optional tenant name —
``"tenant"`` in the POST body or ``?tenant=<name>`` on the URL — and
route to that tenant's service; requests without one fall back to the
``default`` tenant, so the single-tenant wire format keeps working
unchanged.  Ingest flows through the manager's write-ahead log (the
receipt carries ``tenant`` and ``wal_seq``), and ``/snapshot``
persists through the storage backend.  Over a process-local
:class:`~repro.storage.MemoryBackend` (``repro serve`` without
``--backend``) the log keeps no rows, ``GET /snapshot`` lists nothing
and ``POST /snapshot`` answers 409.

Errors return a structured body ``{"error": msg, "code": code}``:
400 ``bad-request`` for malformed payloads (including bodies that are
not valid JSON or nested too deeply, unknown query ``"type"`` values,
ingest rows that are not all integers, a ``Content-Length`` that is
not a non-negative integer and two ``Content-Length`` fields that
disagree), 413 ``too-large`` for a declared body above
:data:`MAX_BODY_BYTES`, 501 ``bad-request`` for a body sent with any
``Transfer-Encoding`` (these four body refusals close the connection
unread), 404 ``not-found``
for unknown paths, 404 ``unknown-tenant`` for routes naming a tenant
that does not exist, 409 ``conflict`` for operations the service cannot
perform in its current state (not ready, static mode, a snapshot
without durable storage, duplicate tenant), 429 ``quota-exceeded``
when an ingest batch would push a tenant past its configured quota,
503 ``degraded`` (with a ``Retry-After`` header) when a tenant's
write-ahead log is unavailable or the tenant is quarantined, 503
``overloaded`` (also ``Retry-After``) when the bounded admission queue
is full, and 500 ``internal`` for unexpected failures — never a raw
traceback on the wire.  The framing errors found before a route runs
are JSON too, and close the connection: 400 ``bad-request`` for a
malformed request line or header line, 414 ``too-large`` for a request
line over 65,536 bytes, 431 ``too-large`` for more than 100 header
lines or one over 65,536 bytes, 501 ``bad-request`` for an unknown
method and 505 ``bad-request`` for HTTP/2 and later.  Each response is
one write of the head (status line, ``Server``, ``Date``,
``Content-Type``, ``Content-Length``) and the body.

Build a bound server with :func:`build_server` (``port=0`` picks a free
port — the tests and the in-process quickstart rely on that) and run it
with :func:`serve` or the server's own ``serve_forever``.  The CLI verb
``repro serve`` wraps exactly this module; docs/serving.md shows the
curl transcript.
"""

from __future__ import annotations

import email.utils
import json
import logging
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.server import BaseHTTPRequestHandler, HTTPServer
from urllib.parse import parse_qs, urlsplit

from .._version import package_version
from ..resilience import DegradedServiceError
from ..storage.base import (DEFAULT_TENANT, TenantExistsError,
                            UnknownTenantError)
from ..storage.memory import NotDurableError
from .service import QueryService, ServiceError
from .tenants import QuotaExceededError, TenantManager

__all__ = ["ServingHTTPServer", "ServingRequestHandler", "build_server",
           "serve"]

logger = logging.getLogger("repro.serving")

#: Default size of the request worker pool.
DEFAULT_WORKERS = 8

#: Default admission queue: connections accepted beyond the worker
#: count that wait for a free worker instead of being shed.
DEFAULT_QUEUE_DEPTH = 16

#: Largest request body the server reads.  A longer declared
#: ``Content-Length`` is answered 413 ``too-large`` without reading it.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Pre-rendered load-shedding response, written on the listener thread
#: (no worker, no handler) so an overloaded server still answers fast.
_SHED_BODY = json.dumps({
    "error": "server overloaded: admission queue full; retry later",
    "code": "overloaded",
}).encode("utf-8")
_SHED_RESPONSE = (b"HTTP/1.1 503 Service Unavailable\r\n"
                  b"Content-Type: application/json\r\n"
                  b"Retry-After: 1\r\n"
                  b"Connection: close\r\n"
                  b"Content-Length: " + str(len(_SHED_BODY)).encode()
                  + b"\r\n\r\n" + _SHED_BODY)


#: The stdlib's request-header bounds (``http.client``): the longest
#: header line, and the most lines in a header block counting its blank
#: terminator.  Either overrun is answered 431.
_MAX_LINE = 65536
_MAX_HEADERS = 100

#: ``(second, text)`` of the last ``Date`` header value.  Workers swap
#: the whole tuple, so a reader never pairs one second with another's
#: text.
_date_cache = (0, "")


def _http_date() -> str:
    """The ``Date`` header value for now, formatted once per second."""
    global _date_cache
    now = int(time.time())
    second, text = _date_cache
    if second != now:
        text = email.utils.formatdate(now, usegmt=True)
        _date_cache = (now, text)
    return text


def _version_number(version: str) -> tuple[int, int] | None:
    """``HTTP/major.minor`` as two integers, or None when malformed.

    The stdlib's rules (RFC 2145 §3.1): exactly one dot, decimal
    components of at most ten digits, leading zeros ignored.
    """
    if not version.startswith("HTTP/"):
        return None
    parts = version[5:].split(".")
    if len(parts) != 2 or not all(part.isdecimal() and len(part) <= 10
                                  for part in parts):
        return None
    return int(parts[0]), int(parts[1])


class RequestHeaders:
    """A request's header fields, looked up case-insensitively.

    ``get`` answers a field's first value, as the stdlib's
    :class:`email.message.Message` does; ``get_all`` answers every
    value in arrival order.  Values are stripped of surrounding
    whitespace.
    """

    __slots__ = ("_fields",)

    def __init__(self):
        self._fields: dict[str, list[str]] = {}

    def add(self, name: str, value: str) -> None:
        self._fields.setdefault(name.lower(), []).append(value)

    def get(self, name: str, default=None):
        values = self._fields.get(name.lower())
        return default if values is None else values[0]

    def get_all(self, name: str) -> list[str]:
        return self._fields.get(name.lower(), [])


class BodyRejectedError(ValueError):
    """A request body refused from its framing headers alone.

    The body is left unread, so the connection cannot be realigned on
    the next request: the handler answers ``status``/``code`` and
    closes it.
    """

    def __init__(self, status: int, code: str, message: str):
        super().__init__(message)
        self.status = status
        self.code = code


class ServingHTTPServer(HTTPServer):
    """HTTP server dispatching connections onto a bounded worker pool.

    ``ThreadingHTTPServer`` spawns an unbounded thread per connection
    and (with daemon threads) may exit mid-response; with non-daemon
    threads every connection still pays thread start-up on the accept
    path.  This server keeps a fixed pool of warm workers instead: the
    listener thread only accepts and enqueues, a worker owns the
    connection for its whole keep-alive lifetime, and
    ``server_close()`` drains the pool so every started response is
    written before shutdown completes.

    Admission is bounded: at most ``workers + queue_depth`` connections
    are in flight (being served or waiting for a worker).  Beyond that
    the listener thread itself writes a pre-rendered 503 ``overloaded``
    response (with ``Retry-After``) and closes the connection — load
    shedding never waits on a worker, so a saturated pool cannot grow
    an unbounded backlog of accepted-but-unserved sockets.
    """

    def __init__(self, server_address, RequestHandlerClass,
                 workers: int = DEFAULT_WORKERS,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_depth < 0:
            raise ValueError("queue_depth must be >= 0")
        self.workers = workers
        self.queue_depth = queue_depth
        self._admission_lock = threading.Lock()
        self._in_flight = 0
        self._shed_connections = 0
        self._pool = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="serving-worker")
        super().__init__(server_address, RequestHandlerClass)

    @property
    def capacity(self) -> int:
        """Maximum connections in flight before shedding starts."""
        return self.workers + self.queue_depth

    def process_request(self, request, client_address) -> None:
        with self._admission_lock:
            admitted = self._in_flight < self.capacity
            if admitted:
                self._in_flight += 1
            else:
                self._shed_connections += 1
        if not admitted:
            self._shed(request, client_address)
            return
        self._pool.submit(self._process_in_worker, request, client_address)

    def _shed(self, request, client_address) -> None:
        """Refuse one connection on the listener thread (static 503)."""
        logger.warning("shedding connection from %s:%s: at capacity "
                       "(%d in flight)", *client_address[:2], self.capacity)
        try:
            request.sendall(_SHED_RESPONSE)
        except OSError:
            pass  # client already gone; nothing to tell it
        finally:
            self.shutdown_request(request)

    def _process_in_worker(self, request, client_address) -> None:
        try:
            self.finish_request(request, client_address)
        except Exception as error:
            # A handler crash must cost exactly one connection: log it
            # (with the peer, so floods are attributable) and fall
            # through to the socket shutdown — never kill the worker
            # or leave the client hanging on a half-open socket.
            logger.warning("connection from %s:%s aborted: %s: %s",
                           *client_address[:2],
                           type(error).__name__, error)
        finally:
            self.shutdown_request(request)
            with self._admission_lock:
                self._in_flight -= 1

    def load_status(self) -> dict:
        """The ``/healthz`` load section: pool and admission counters."""
        with self._admission_lock:
            return {
                "workers": self.workers,
                "queue_depth": self.queue_depth,
                "capacity": self.capacity,
                "in_flight": self._in_flight,
                "shed_connections": self._shed_connections,
            }

    def server_close(self) -> None:
        super().server_close()
        self._pool.shutdown(wait=True)


class ServingRequestHandler(BaseHTTPRequestHandler):
    """Routes the JSON API onto a :class:`TenantManager`.

    Subclasses produced by :func:`build_server` bind the
    ``tenant_manager`` and ``verbose`` class attributes; serving routes
    resolve a tenant per request.
    """

    tenant_manager: TenantManager
    verbose: bool = False

    server_version = "repro-serving/1.0"
    #: HTTP/1.1 keeps connections alive across requests, so a client
    #: posting a stream of workloads pays the TCP/accept cost once.
    protocol_version = "HTTP/1.1"
    #: Socket timeout: an idle keep-alive connection releases its pool
    #: worker after this many seconds instead of pinning it forever.
    timeout = 5.0
    #: TCP_NODELAY: a response is one write, but one longer than a TCP
    #: segment ends in a short segment, and after ``100 Continue`` the
    #: answer follows a short send; with Nagle on, either waits for the
    #: client's delayed ACK — a ~40 ms stall.
    disable_nagle_algorithm = True

    # ------------------------------------------------------------------
    # Plumbing
    # ------------------------------------------------------------------
    def log_message(self, format: str, *args) -> None:  # noqa: A002
        if self.verbose:
            super().log_message(format, *args)

    def parse_request(self) -> bool:
        """Parse one request's line and headers; False once answered.

        The request line follows the stdlib's rules: 400 for a
        malformed line or version, 505 for HTTP/2 and later, a two-word
        ``GET`` served as HTTP/0.9 and closed, and a leading ``//``
        collapsed to ``/``.  The headers are split by hand rather than
        through the ``email`` parser, within the stdlib's bounds: 431
        for a line over :data:`_MAX_LINE` bytes or a block over
        :data:`_MAX_HEADERS` lines.  A header line that is not
        ``name: value`` (an obs-fold continuation included) is 400.
        ``Connection`` and ``Expect: 100-continue`` keep the stdlib's
        meaning.
        """
        self.command = None
        # No version accepted yet, so an error answered now has a head.
        self.request_version = ""
        self.close_connection = True
        requestline = str(self.raw_requestline, "iso-8859-1").rstrip("\r\n")
        self.requestline = requestline
        words = requestline.split()
        if not words:
            return False
        if len(words) >= 3:
            version = words[-1]
            number = _version_number(version)
            if number is None:
                self.send_error(400, f"Bad request version ({version!r})")
                return False
            if number >= (2, 0):
                self.send_error(505, f"Invalid HTTP version ({version[5:]})")
                return False
            self.close_connection = number < (1, 1)
            self.request_version = version
        if not 2 <= len(words) <= 3:
            self.send_error(400, f"Bad request syntax ({requestline!r})")
            return False
        command, path = words[:2]
        if len(words) == 2:
            if command != "GET":
                self.send_error(400,
                                f"Bad HTTP/0.9 request type ({command!r})")
                return False
            self.request_version = "HTTP/0.9"
        self.command = command
        # As the stdlib does: a path starting "//" would read as a
        # scheme-relative URL to clients that echo it.
        self.path = "/" + path.lstrip("/") if path.startswith("//") else path

        headers = self.headers = RequestHeaders()
        readline = self.rfile.readline
        lines = 0
        while True:
            line = readline(_MAX_LINE + 1)
            if len(line) > _MAX_LINE:
                self.send_error(431, "Line too long", "header line")
                return False
            lines += 1
            if lines > _MAX_HEADERS:
                self.send_error(431, "Too many headers",
                                f"got more than {_MAX_HEADERS} headers")
                return False
            if line in (b"\r\n", b"\n", b""):
                break
            name, colon, value = str(line, "iso-8859-1").partition(":")
            if not colon or not name or " " in name or "\t" in name:
                self.send_error(400, f"Bad header line ({line[:64]!r})")
                return False
            headers.add(name, value.strip())

        connection = headers.get("Connection", "").lower()
        if connection == "close":
            self.close_connection = True
        elif connection == "keep-alive":
            self.close_connection = False
        if (headers.get("Expect", "").lower() == "100-continue"
                and self.request_version >= "HTTP/1.1"):
            return self.handle_expect_100()
        return True

    def _send_json(self, status: int, document: dict,
                   headers: dict | None = None) -> None:
        """Answer ``document`` as JSON, head and body in one write.

        An extra ``Connection: close`` header closes the connection
        after this response.  An HTTP/0.9 answer is the bare body.
        """
        body = json.dumps(document).encode("utf-8")
        self.log_request(status)
        extra = ""
        for name, value in (headers or {}).items():
            extra += f"{name}: {value}\r\n"
            if name.lower() == "connection" and str(value).lower() == "close":
                self.close_connection = True
        if self.request_version == "HTTP/0.9":
            self.wfile.write(body)
            return
        head = (f"{self.protocol_version} {status} "
                f"{self.responses[status][0]}\r\n"
                f"Server: {self.version_string()}\r\n"
                f"Date: {_http_date()}\r\n"
                "Content-Type: application/json\r\n"
                f"Content-Length: {len(body)}\r\n{extra}\r\n")
        self.wfile.write(head.encode("latin-1") + body)

    def send_error(self, code: int, message: str | None = None,
                   explain: str | None = None) -> None:
        """Answer a framing error as a structured error and close.

        These are the errors found before a route runs, by the stdlib's
        connection loop (414, 501) or by :meth:`parse_request` (400,
        431, 505): 414 and 431 are ``too-large``, the rest
        ``bad-request``.
        """
        code = int(code)
        error = message or self.responses[code][0]
        if explain:
            error = f"{error}: {explain}"
        self.log_error("code %d, message %s", code, error)
        self._send_json(code, {"error": error,
                               "code": ("too-large" if code in (414, 431)
                                        else "bad-request")},
                        headers={"Connection": "close"})

    def _send_error_json(self, status: int, code: str, message: str) -> None:
        """Structured error body: ``error`` stays a plain string (the
        stable field clients match on), ``code`` is the machine tag."""
        self._send_json(status, {"error": message, "code": code})

    def _send_degraded(self, error: DegradedServiceError) -> None:
        """503 ``degraded`` with a ``Retry-After`` header.

        The body carries the tenant and the retry hint too, so clients
        that cannot read headers (or log aggregators) still see them.
        """
        retry_after = max(1, math.ceil(error.retry_after))
        self._send_json(503, {"error": str(error), "code": "degraded",
                              "tenant": error.tenant,
                              "retry_after": retry_after},
                        headers={"Retry-After": retry_after})

    def _read_json(self) -> dict:
        """The request body as a JSON object.

        Always consumes the full ``Content-Length`` before raising, so
        a malformed body never desynchronizes a keep-alive connection.
        A body the server cannot frame raises :class:`BodyRejectedError`
        before anything is read: any ``Transfer-Encoding`` (501), two
        ``Content-Length`` fields that disagree (400), a length that is
        not a non-negative integer (400) or one above
        :data:`MAX_BODY_BYTES` (413).  A body nested deeper than the
        JSON decoder's recursion limit is a ValueError like any other
        malformed body.
        """
        if self.headers.get("Transfer-Encoding") is not None:
            raise BodyRejectedError(
                501, "bad-request",
                "Transfer-Encoding is not supported: send the body with "
                "a Content-Length")
        lengths = self.headers.get_all("Content-Length")
        if len(set(lengths)) > 1:
            raise BodyRejectedError(
                400, "bad-request",
                f"bad request: conflicting Content-Length values {lengths}")
        header = self.headers.get("Content-Length") or "0"
        if not header.isdecimal():
            raise BodyRejectedError(
                400, "bad-request",
                f"bad request: Content-Length must be a non-negative "
                f"integer, got {header!r}")
        length = int(header)
        if length > MAX_BODY_BYTES:
            raise BodyRejectedError(
                413, "too-large",
                f"request body of {length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit")
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            document = json.loads(raw)
        except RecursionError:
            raise ValueError("JSON body is nested too deeply") from None
        if not isinstance(document, dict):
            raise ValueError("request body must be a JSON object")
        return document

    # ------------------------------------------------------------------
    # Tenant resolution
    # ------------------------------------------------------------------
    def _split_path(self) -> tuple[str, dict]:
        """``self.path`` as (path, single-valued query params)."""
        parsed = urlsplit(self.path)
        params = {key: values[-1]
                  for key, values in parse_qs(parsed.query).items()}
        return parsed.path, params

    def _tenant_of(self, payload: dict, params: dict) -> str:
        """The tenant a serving request routes to (default fallback)."""
        return str(payload.get("tenant") or params.get("tenant")
                   or DEFAULT_TENANT)

    def _healthz_document(self, params: dict) -> dict:
        """``GET /healthz``: liveness — always 200 while the process
        answers; degradation is reported inline, not via the status."""
        document = {"status": "ok", "version": package_version()}
        document["load"] = self.server.load_status()
        storage = self.tenant_manager.storage_status()
        tenant = self._tenant_of({}, params)
        if self.tenant_manager.has_tenant(tenant):
            document.update(self.tenant_manager.service(tenant).status())
            document["tenant"] = tenant
        document["storage"] = storage
        document["resilience"] = self.tenant_manager.resilience_status()
        return document

    def _readyz(self) -> None:
        """``GET /readyz``: readiness — 503 while any tenant is
        degraded or quarantined."""
        ready, document = self.tenant_manager.readiness()
        self._send_json(200 if ready else 503, document)

    def _snapshot_listing(self, tenant: str) -> dict:
        """``GET /snapshot``: versions from the backend's metadata."""
        backend = self.tenant_manager.backend
        records = backend.list_snapshots(tenant)
        return {
            "tenant": tenant,
            "location": backend.location(),
            "versions": [record.version for record in records],
            "latest": records[-1].version if records else None,
            "snapshots": [record.to_document() for record in records],
        }

    def _save_snapshot(self, tenant: str) -> dict:
        """``POST /snapshot``: persist through the storage backend."""
        record = self.tenant_manager.save_snapshot(tenant)
        return {"tenant": tenant, "version": record.version,
                "wal_seq": record.wal_seq, "size_bytes": record.size_bytes}

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 - http.server API
        """Read-only routes: ``/healthz``, snapshot and tenant listings."""
        path, params = self._split_path()
        try:
            if path == "/healthz":
                self._send_json(200, self._healthz_document(params))
            elif path == "/readyz":
                self._readyz()
            elif path == "/snapshot":
                tenant = self._tenant_of({}, params)
                self._send_json(200, self._snapshot_listing(tenant))
            elif path == "/tenants":
                manager = self.tenant_manager
                self._send_json(200, {"tenants": manager.list_tenants(),
                                      "count": len(manager.tenant_names())})
            elif path.startswith("/tenants/"):
                name = path.removeprefix("/tenants/")
                self._send_json(200,
                                self.tenant_manager.describe_tenant(name))
            else:
                self._send_error_json(404, "not-found",
                                      f"unknown path {path}")
        except DegradedServiceError as error:
            self._send_degraded(error)
        except UnknownTenantError as error:
            self._send_error_json(404, "unknown-tenant", str(error))
        except ServiceError as error:
            self._send_error_json(409, "conflict", str(error))
        except Exception as error:  # pragma: no cover - defensive
            self._send_error_json(500, "internal",
                                  f"internal error: "
                                  f"{type(error).__name__}: {error}")

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        """State-changing routes: ingest, query, refinalize, snapshot,
        tenant creation."""
        # Read (and fully consume) the body before routing: a parse
        # failure must still leave the connection aligned on the next
        # request boundary, and must answer 400, not tear down the
        # connection with a traceback.
        try:
            payload = self._read_json()
        except BodyRejectedError as error:
            self._send_json(error.status, {"error": str(error),
                                           "code": error.code},
                            headers={"Connection": "close"})
            return
        except ValueError as error:
            self._send_error_json(400, "bad-request",
                                  f"bad request: invalid JSON body ({error})")
            return
        path, params = self._split_path()
        try:
            if path == "/ingest":
                receipt = self.tenant_manager.ingest(
                    self._tenant_of(payload, params), payload["rows"],
                    payload.get("domain_size"))
                self._send_json(200, receipt)
            elif path == "/query":
                service = self.tenant_manager.service(
                    self._tenant_of(payload, params))
                self._send_json(200, self._answer_query(service, payload))
            elif path == "/refinalize":
                status = self.tenant_manager.refinalize(
                    self._tenant_of(payload, params))
                # The epoch the re-finalize published: clients use the
                # header to confirm subsequent reads observe it.
                self._send_json(200, status,
                                headers={"Refinalize-Epoch":
                                         status.get("epoch", 0)})
            elif path == "/snapshot":
                tenant = self._tenant_of(payload, params)
                self._send_json(200, self._save_snapshot(tenant))
            elif path == "/tenants":
                record = self.tenant_manager.create_tenant(
                    str(payload["name"]), dict(payload.get("config") or {}))
                self._send_json(201, {"name": record.name,
                                      "created_at": record.created_at,
                                      "config": record.config})
            else:
                self._send_error_json(404, "not-found",
                                      f"unknown path {path}")
        except QuotaExceededError as error:
            self._send_error_json(429, "quota-exceeded", str(error))
        except DegradedServiceError as error:
            self._send_degraded(error)
        except UnknownTenantError as error:
            self._send_error_json(404, "unknown-tenant", str(error))
        except (TenantExistsError, ServiceError) as error:
            self._send_error_json(409, "conflict", str(error))
        except NotDurableError:
            self._send_error_json(409, "conflict",
                                  "this endpoint needs a storage backend "
                                  "(start with --backend/--store)")
        except (KeyError, ValueError, TypeError) as error:
            self._send_error_json(400, "bad-request",
                                  f"bad request: {error}")
        except Exception as error:
            self._send_error_json(500, "internal",
                                  f"internal error: "
                                  f"{type(error).__name__}: {error}")

    def do_DELETE(self) -> None:  # noqa: N802 - http.server API
        """``DELETE /tenants/<name>``: drop a tenant and its state."""
        path, _ = self._split_path()
        try:
            if path.startswith("/tenants/"):
                name = path.removeprefix("/tenants/")
                self.tenant_manager.delete_tenant(name)
                self._send_json(200, {"deleted": name})
            else:
                self._send_error_json(404, "not-found",
                                      f"unknown path {path}")
        except DegradedServiceError as error:
            self._send_degraded(error)
        except UnknownTenantError as error:
            self._send_error_json(404, "unknown-tenant", str(error))
        except ServiceError as error:
            self._send_error_json(409, "conflict", str(error))
        except Exception as error:  # pragma: no cover - defensive
            self._send_error_json(500, "internal",
                                  f"internal error: "
                                  f"{type(error).__name__}: {error}")

    def _answer_query(self, service: QueryService, payload: dict) -> dict:
        """Dispatch ``/query``: one workload or a batch of workloads."""
        if "workloads" in payload:
            if "queries" in payload:
                raise ValueError(
                    "pass either 'queries' or 'workloads', not both")
            return service.query_wire_batch(payload["workloads"])
        if "queries" not in payload:
            raise ValueError("payload needs 'queries' (one workload) or "
                             "'workloads' (a batch of workloads)")
        return service.query_wire(payload["queries"])


def build_server(tenant_manager: TenantManager,
                 host: str = "127.0.0.1",
                 port: int = 0,
                 verbose: bool = False,
                 workers: int = DEFAULT_WORKERS,
                 queue_depth: int = DEFAULT_QUEUE_DEPTH,
                 handler_timeout: float | None = None,
                 ) -> ServingHTTPServer:
    """A bound (not yet running) worker-pool HTTP server.

    ``tenant_manager`` answers every route; requests without a tenant
    route to its ``default`` tenant.  For a server that keeps no state
    on disk, build the manager over a :class:`~repro.storage.
    MemoryBackend`.  ``port=0`` binds any free port; read the result from
    ``server.server_address``.  ``workers`` sizes the request pool —
    each worker owns one keep-alive connection at a time —
    ``queue_depth`` bounds how many more connections may wait for a
    worker before the listener sheds with 503, and ``handler_timeout``
    overrides the idle keep-alive socket timeout (seconds).
    """
    attributes = {"tenant_manager": tenant_manager, "verbose": verbose}
    if handler_timeout is not None:
        if handler_timeout <= 0:
            raise ValueError("handler_timeout must be > 0")
        attributes["timeout"] = float(handler_timeout)
    handler = type("BoundServingRequestHandler", (ServingRequestHandler,),
                   attributes)
    return ServingHTTPServer((host, port), handler, workers=workers,
                             queue_depth=queue_depth)


def serve(server: ServingHTTPServer,
          max_requests: int | None = None) -> None:
    """Run the accept loop: forever, or for ``max_requests`` connections.

    The bounded form exists for smoke tests and scripted ops checks
    (``repro serve --max-requests N``); callers still own
    ``server.server_close()``, which drains the worker pool so every
    accepted connection finishes its responses.
    """
    if max_requests is None:
        server.serve_forever()
    else:
        for _ in range(max_requests):
            server.handle_request()
