"""The HTTP framing contract of the serving front-end, on raw sockets.

``ServingRequestHandler`` reads request headers by hand and writes each
response as one ``wfile.write``.  These tests pin what a client sees of
that framing: case-insensitive header names, the stdlib's 431 bounds,
``Expect: 100-continue``, the ``Connection`` rules, the ``Server``,
``Date`` and ``Content-Length`` headers on every response, JSON bodies
for the framing errors the stdlib detects (400, 414, 431, 501, 505), and
the refusal of request bodies the server cannot frame
(``Transfer-Encoding`` and conflicting ``Content-Length`` fields), which
would otherwise leave a kept-alive connection out of step.
"""

from __future__ import annotations

import email.utils
import io
import json
import socket
import time
from contextlib import contextmanager

import pytest

from repro.resilience import DegradedServiceError
from repro.serving import TenantManager
from repro.serving.http import (MAX_BODY_BYTES, RequestHeaders,
                                ServingRequestHandler)
from repro.storage import MemoryBackend

from serving_helpers import memory_server

CONFIG = {"mechanism": "TDG", "epsilon": 1.0, "seed": 9, "domain_size": 16}

INGEST_BODY = json.dumps({"rows": [[1, 2, 3], [4, 5, 6]]}).encode()


@pytest.fixture(scope="module")
def port():
    with memory_server(CONFIG) as (_, server):
        yield server.server_address[1]


@contextmanager
def _connection(port: int):
    """A raw client socket and a buffered reader over it."""
    client = socket.create_connection(("127.0.0.1", port), timeout=5)
    stream = client.makefile("rb")
    try:
        yield client, stream
    finally:
        stream.close()
        client.close()


def _response(stream) -> tuple[int, dict, bytes]:
    """One response off ``stream``: status, lower-cased headers, body."""
    status_line = stream.readline()
    assert status_line.startswith(b"HTTP/1.1 "), status_line
    status = int(status_line.split()[1])
    headers = {}
    while (line := stream.readline()) not in (b"\r\n", b""):
        name, _, value = line.decode("latin-1").partition(":")
        headers.setdefault(name.strip().lower(), value.strip())
    body = b""
    if status >= 200:
        body = stream.read(int(headers["content-length"]))
    return status, headers, body


def _post(path: str, body: bytes, *extra: str) -> bytes:
    head = [f"POST {path} HTTP/1.1", "Host: x",
            f"Content-Length: {len(body)}", *extra]
    return ("\r\n".join(head) + "\r\n\r\n").encode() + body


def _exchange_once(port: int, raw: bytes) -> tuple[int, dict, bytes]:
    """Send ``raw``, read one response, and require the server to close."""
    with _connection(port) as (client, stream):
        client.sendall(raw)
        response = _response(stream)
        assert stream.read() == b"", "the connection was left open"
    return response


# ----------------------------------------------------------------------
# Header parsing
# ----------------------------------------------------------------------
def test_request_headers_are_case_insensitive_first_value_wins():
    headers = RequestHeaders()
    headers.add("X-Request-Id", "a")
    headers.add("x-request-id", "b")
    assert headers.get("X-REQUEST-ID") == "a"
    assert headers.get_all("x-Request-ID") == ["a", "b"]
    assert headers.get("Missing") is None
    assert headers.get("Missing", "") == ""
    assert headers.get_all("Missing") == []


def test_header_names_are_case_insensitive_on_the_wire(port):
    raw = (b"POST /ingest HTTP/1.1\r\nhOsT: x\r\ncONTENT-lENGTH: "
           + str(len(INGEST_BODY)).encode() + b"\r\n\r\n" + INGEST_BODY)
    with _connection(port) as (client, stream):
        client.sendall(raw)
        status, _, body = _response(stream)
        assert status == 200 and json.loads(body)["ingested"] == 2
        # The body was consumed: the next request on the connection is
        # read from its own request line.
        client.sendall(b"GET /tenants HTTP/1.1\r\nHost: x\r\n\r\n")
        status, _, body = _response(stream)
        assert status == 200 and json.loads(body)["count"] == 1


def test_ninety_nine_headers_are_served(port):
    # The stdlib counts the blank terminator among its 100 lines.
    fields = "".join(f"X-Field-{index}: v\r\n" for index in range(99))
    with _connection(port) as (client, stream):
        client.sendall(f"GET /tenants HTTP/1.1\r\n{fields}\r\n".encode())
        assert _response(stream)[0] == 200


@pytest.mark.parametrize("fields", [
    "".join(f"X-Field-{index}: v\r\n" for index in range(100)),
    "".join(f"X-Field-{index}: v\r\n" for index in range(101)),
    "X-Long: " + "a" * 70_000 + "\r\n",
], ids=["100-headers", "101-headers", "70000-byte-line"])
def test_oversized_header_block_is_431_and_closed(port, fields):
    status, headers, body = _exchange_once(
        port, f"GET /tenants HTTP/1.1\r\n{fields}\r\n".encode())
    assert status == 431
    assert headers["connection"] == "close"
    assert json.loads(body)["code"] == "too-large"


def test_expect_100_continue_then_the_answer(port):
    with _connection(port) as (client, stream):
        client.sendall(f"POST /ingest HTTP/1.1\r\nHost: x\r\n"
                       f"Expect: 100-continue\r\n"
                       f"Content-Length: {len(INGEST_BODY)}\r\n\r\n".encode())
        assert _response(stream) == (100, {}, b"")
        client.sendall(INGEST_BODY)
        status, _, body = _response(stream)
        assert status == 200 and json.loads(body)["ingested"] == 2


@pytest.mark.parametrize("raw", [
    b"GET /tenants HTTP/1.0\r\n\r\n",
    b"GET /tenants HTTP/1.1\r\nConnection: close\r\n\r\n",
], ids=["http-1.0", "connection-close"])
def test_connection_closes_after_the_response(port, raw):
    status, headers, _ = _exchange_once(port, raw)
    assert status == 200 and "connection" not in headers


@pytest.mark.parametrize("raw", [
    b"GET /tenants HTTP/1.1\r\n\r\n",
    b"GET /tenants HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
], ids=["http-1.1", "http-1.0-keep-alive"])
def test_connection_stays_open_for_the_next_request(port, raw):
    with _connection(port) as (client, stream):
        for _ in range(2):
            client.sendall(raw)
            assert _response(stream)[0] == 200


def test_http_0_9_get_is_answered_bare_and_closed(port):
    with _connection(port) as (client, stream):
        client.sendall(b"GET /tenants\r\n\r\n")
        assert json.loads(stream.read())["count"] == 1


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
@contextmanager
def _degraded_ingest_port():
    """A server whose every ingest answers 503 ``degraded``."""
    with memory_server(CONFIG) as (manager, server):
        def degraded(tenant, rows, domain_size=None):
            raise DegradedServiceError("write-ahead log unavailable",
                                       retry_after=2.5, tenant=tenant)
        manager.ingest = degraded
        yield server.server_address[1]


@pytest.mark.parametrize("raw, expected", [
    (b"GET /tenants HTTP/1.1\r\n\r\n", 200),
    (b"GET /nowhere HTTP/1.1\r\n\r\n", 404),
    (_post("/ingest", b"{not json"), 400),
    (b"POST /query HTTP/1.1\r\nContent-Length: "
     + str(MAX_BODY_BYTES + 1).encode() + b"\r\n\r\n", 413),
    (b"GET /tenants HTTP/1.1\r\n" + b"X-Field: v\r\n" * 101 + b"\r\n", 431),
    (_post("/ingest", INGEST_BODY), 503),
], ids=["200", "404", "400", "413", "431", "503-degraded"])
def test_every_response_carries_server_date_and_length(raw, expected):
    with _degraded_ingest_port() as port, _connection(port) as (client,
                                                                 stream):
        client.sendall(raw)
        status, headers, body = _response(stream)
    assert status == expected
    assert headers["server"].startswith("repro-serving/")
    sent = email.utils.parsedate_to_datetime(headers["date"]).timestamp()
    assert abs(sent - time.time()) < 5
    assert int(headers["content-length"]) == len(body)
    assert headers["content-type"] == "application/json"
    document = json.loads(body)
    if expected == 503:
        assert document["code"] == "degraded"
        assert int(headers["retry-after"]) == document["retry_after"] == 3


class RecordingWriter:
    """A ``wfile`` that keeps each write apart."""

    def __init__(self):
        self.writes: list[bytes] = []

    def write(self, data: bytes) -> int:
        self.writes.append(bytes(data))
        return len(data)

    def flush(self) -> None:
        pass


def _handle(raw: bytes, manager, verbose: bool = False) -> list[bytes]:
    """Serve the pipelined requests in ``raw``; the writes they made."""
    handler_class = type("RecordingHandler", (ServingRequestHandler,),
                         {"tenant_manager": manager, "verbose": verbose})
    handler = handler_class.__new__(handler_class)
    handler.rfile = io.BytesIO(raw)
    handler.wfile = RecordingWriter()
    handler.client_address = ("127.0.0.1", 0)
    handler.handle()
    return handler.wfile.writes


def test_one_write_per_json_response():
    manager = TenantManager(MemoryBackend(), default_config=CONFIG)

    def degraded(tenant, rows, domain_size=None):
        raise DegradedServiceError("down", tenant=tenant)

    try:
        raw = (_post("/ingest", INGEST_BODY)
               + b"GET /tenants HTTP/1.1\r\n\r\n"
               + b"GET /nowhere HTTP/1.1\r\n\r\n"
               + _post("/query", b"{not json"))
        writes = _handle(raw, manager)
        manager.ingest = degraded
        writes += _handle(_post("/ingest", INGEST_BODY)
                          + b"PUT /tenants HTTP/1.1\r\n\r\n", manager)
    finally:
        manager.close()
    statuses = []
    for write in writes:
        stream = io.BytesIO(write)
        status, _, body = _response(stream)
        assert stream.read() == b"", "a write held more than one response"
        json.loads(body)
        statuses.append(status)
    assert statuses == [200, 200, 404, 400, 503, 501]


def test_verbose_logs_each_request(capsys):
    manager = TenantManager(MemoryBackend(), default_config=CONFIG)
    try:
        _handle(b"GET /tenants HTTP/1.1\r\n\r\n"
                b"GET /nowhere HTTP/1.1\r\n\r\n", manager, verbose=True)
        _handle(b"GET /tenants HTTP/1.1\r\n\r\n", manager)
    finally:
        manager.close()
    logged = capsys.readouterr().err.splitlines()
    assert len(logged) == 2
    assert '"GET /tenants HTTP/1.1" 200' in logged[0]
    assert '"GET /nowhere HTTP/1.1" 404' in logged[1]


# ----------------------------------------------------------------------
# Framing errors and refused bodies
# ----------------------------------------------------------------------
@pytest.mark.parametrize("raw, status, code", [
    (b"GET / FOO\r\n\r\n", 400, "bad-request"),
    (b"GET /tenants HTTP/1.1\r\nBad Name: v\r\n\r\n", 400, "bad-request"),
    (b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\n\r\n", 414, "too-large"),
    (b"PUT /tenants HTTP/1.1\r\n\r\n", 501, "bad-request"),
    (b"GET / HTTP/2.0\r\n\r\n", 505, "bad-request"),
], ids=["400-request-line", "400-header-line", "414", "501", "505"])
def test_framing_errors_answer_json_and_close(port, raw, status, code):
    got, headers, body = _exchange_once(port, raw)
    assert got == status
    assert headers["connection"] == "close"
    assert headers["content-type"] == "application/json"
    document = json.loads(body)
    assert document["code"] == code and isinstance(document["error"], str)


def test_chunked_body_is_refused_before_reading_and_closed(port):
    """Regression: the chunks were read as a second request, so one
    request drew two responses, the second an HTML 400."""
    status, headers, body = _exchange_once(
        port, b"POST /ingest HTTP/1.1\r\nHost: x\r\n"
              b"Transfer-Encoding: chunked\r\n\r\n"
              + f"{len(INGEST_BODY):x}\r\n".encode() + INGEST_BODY
              + b"\r\n0\r\n\r\n")
    assert status == 501 and headers["connection"] == "close"
    assert json.loads(body)["code"] == "bad-request"


def test_conflicting_content_lengths_are_refused_and_closed(port):
    """Regression: the first length was used and the leftover bytes were
    read as the next request on the open connection."""
    status, headers, body = _exchange_once(
        port, _post("/ingest", INGEST_BODY + b"GET /tenants HTTP/1.1\r\n\r\n",
                    f"Content-Length: {len(INGEST_BODY)}"))
    assert status == 400 and headers["connection"] == "close"
    document = json.loads(body)
    assert document["code"] == "bad-request"
    assert "conflicting Content-Length" in document["error"]


def test_repeated_equal_content_lengths_are_one_length(port):
    with _connection(port) as (client, stream):
        client.sendall(_post("/ingest", INGEST_BODY,
                             f"Content-Length: {len(INGEST_BODY)}"))
        status, _, body = _response(stream)
        assert status == 200 and json.loads(body)["ingested"] == 2
