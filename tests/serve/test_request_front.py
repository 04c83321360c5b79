"""Tests of the daemon's request front: the head reader and the one-write response.

``PlanningRequestHandler.parse_request`` reads the request head without
:mod:`email`.  A differential table and a property hold it to the stdlib's
``BaseHTTPRequestHandler.parse_request`` on everything but the deliberate
refusals; pinned exchanges and a fuzz of raw bytes drive a live daemon.
"""

import contextlib
import io
import json
import logging
import re
import socket
import threading
import traceback
import urllib.request
from http.server import BaseHTTPRequestHandler

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.serve import create_server
from repro.serve.http import MAX_HEAD_LINES, PlanningRequestHandler

TOKEN = "front-token"


class StdlibHandler(BaseHTTPRequestHandler):
    """The stdlib's request parsing under the daemon's protocol version."""

    protocol_version = "HTTP/1.1"

    def log_message(self, format, *args):
        pass


def outcome(handler_class, raw):
    """What ``parse_request`` makes of ``raw`` (request line first).

    ``("refused", status)`` when it answered an error (the status from the
    error page, which the stdlib sends without a head while it takes the
    request for HTTP/0.9), else ``("ok", command, path, version,
    close_connection, headers by lower-cased name, interim status or None,
    bytes of the head consumed)``.
    """
    handler = handler_class.__new__(handler_class)
    handler.rfile = io.BytesIO(raw)
    handler.wfile = io.BytesIO()
    handler.client_address = ("127.0.0.1", 0)
    handler.raw_requestline = handler.rfile.readline(65537)
    parsed = handler.parse_request()
    written = handler.wfile.getvalue()
    if not parsed:
        page = re.search(rb"<p>Error code: (\d+)</p>", written)
        return ("refused", page and int(page.group(1)))
    status = int(written.split(b" ", 2)[1]) if written.startswith(b"HTTP/") else None
    headers = {name.lower(): handler.headers.get(name) for name in handler.headers.keys()}
    return (
        "ok",
        handler.command,
        handler.path,
        handler.request_version,
        handler.close_connection,
        headers,
        status,
        handler.rfile.tell(),
    )


def fields(count):
    return b"".join(b"X-Field-%d: v\r\n" % index for index in range(count))


#: Request heads on which the front answers as the stdlib does.
SAME_AS_STDLIB = [
    b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n",
    b"GET /healthz HTTP/1.0\r\n\r\n",
    b"GET /healthz\r\n\r\n",  # HTTP/0.9
    b"POST /plan\r\n\r\n",  # 0.9 allows only GET: 400
    b"GET /healthz HTTP/2.0\r\n\r\n",  # 505
    b"GET /healthz HTTP/1.1.1\r\n\r\n",
    b"GET /healthz HTTP/\xb2.1\r\n\r\n",  # a non-ASCII digit
    b"GET /healthz HTTP/12345678901.1\r\n\r\n",
    b"GET /healthz FOO/1.1\r\n\r\n",
    b"GET a b HTTP/1.1\r\n\r\n",
    b"\r\n",
    b"   \r\n",
    b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n",
    b"GET / HTTP/1.1\r\nconnection: CLOSE\r\n\r\n",
    b"GET / HTTP/1.1\r\nConnection: close \r\n\r\n",  # the value keeps its blank
    b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n",
    b"GET / HTTP/1.1\r\nA: 1\r\na: 2\r\nB:\t  x y \r\n\r\n",  # first value wins
    b"GET / HTTP/1.1\r\nA: \xff\xfe\x00\r\nB:\r\n\r\n",
    b"GET / HTTP/1.1\nA: 1\n\n",
    b"GET / HTTP/1.1\r\nX(y)!: z\r\n\r\n",
    b"POST / HTTP/1.1\r\nExpect: 100-continue\r\nContent-Length: 2\r\n\r\n{}",
    b"POST / HTTP/1.1\r\nExpect: 100-Continue\r\n\r\n",
    b"POST / HTTP/1.0\r\nExpect: 100-continue\r\n\r\n",  # no interim for 1.0
    b"POST / HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2 \r\n\r\n{}",
    b"GET / HTTP/1.1\r\n" + fields(MAX_HEAD_LINES - 1) + b"\r\n",
    b"GET / HTTP/1.1\r\n" + fields(MAX_HEAD_LINES) + b"\r\n",  # 431
    b"GET / HTTP/1.1\r\nA: " + b"x" * 65_530 + b"\r\n\r\n",  # 65 535 bytes: fine
    b"GET / HTTP/1.1\r\nA: " + b"x" * 70_000 + b"\r\n\r\n",  # 431
    b"GET / HTTP/1.1\r\nHost: x",  # the head ends at end of input
    b"GET / HTTP/1.1\r\nHost: x\r\n",
]

#: Request heads the front refuses where the stdlib misreads them.
REFUSED = [
    # obs-fold: the stdlib joins the lines into one value
    (b"GET / HTTP/1.1\r\nA: 1\r\n continued\r\n\r\n", 400),
    (b"GET / HTTP/1.1\r\n\tfirst line folded\r\n\r\n", 400),
    # whitespace before the colon: the stdlib ends the head there
    (b"GET / HTTP/1.1\r\nA : 1\r\nB: 2\r\n\r\n", 400),
    # not a field line at all: the stdlib drops it and every later field
    (b"GET / HTTP/1.1\r\nno colon\r\nB: 2\r\n\r\n", 400),
    (b"GET / HTTP/1.1\r\n: no name\r\n\r\n", 400),
    (b"GET / HTTP/1.1\r\nFrom me\r\n\r\n", 400),
    (b"GET / HTTP/1.1\r\nA\xe9: 1\r\n\r\n", 400),
    # a bare CR: the stdlib splits the line in two
    (b"GET / HTTP/1.1\r\nA: b\rContent-Length: 5\r\n\r\n", 400),
    # Content-Length the stdlib would hand on as text
    (b"POST / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n", 400),
    (b"POST / HTTP/1.1\r\nContent-Length: -1\r\n\r\n", 400),
    (b"POST / HTTP/1.1\r\nContent-Length: 1_0\r\n\r\n", 400),
    (b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\n", 400),
    (b"POST / HTTP/1.1\r\nContent-Length: 2, 2\r\n\r\n", 400),
    (b"POST / HTTP/1.1\r\nContent-Length: " + b"9" * 5000 + b"\r\n\r\n", 400),
    # any Transfer-Encoding: only Content-Length bodies are read
    (b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501),
    (b"POST / HTTP/1.1\r\nContent-Length: 5\r\ntransfer-encoding: identity\r\n\r\n", 501),
]


class TestDifferential:
    @pytest.mark.parametrize("raw", SAME_AS_STDLIB, ids=lambda raw: repr(raw[:40]))
    def test_same_answer_as_the_stdlib(self, raw):
        assert outcome(PlanningRequestHandler, raw) == outcome(StdlibHandler, raw)

    @pytest.mark.parametrize("raw, status", REFUSED, ids=lambda raw: repr(raw)[:40])
    def test_deliberate_refusals(self, raw, status):
        assert outcome(StdlibHandler, raw)[0] == "ok"
        assert outcome(PlanningRequestHandler, raw) == ("refused", status)

    @settings(suppress_health_check=[HealthCheck.too_slow])
    @given(
        version=st.sampled_from(["HTTP/1.1", "HTTP/1.0", "HTTP/1.01", "HTTP/0.9"]),
        head=st.lists(
            st.tuples(
                st.text("!#$%&'*+-.^_`|~09AZaz", min_size=1, max_size=12).filter(
                    lambda name: name.lower() not in ("content-length", "transfer-encoding")
                )
                | st.sampled_from(["Connection", "Expect", "Host", "Authorization"]),
                st.sampled_from(["", " ", "\t", "  "]),
                st.text(st.characters(max_codepoint=255, blacklist_characters="\r\n"))
                | st.sampled_from(["close", "keep-alive", "100-continue", "Bearer x"]),
                st.sampled_from(["\r\n", "\n"]),
            ),
            max_size=8,
        ),
    )
    def test_well_formed_heads_parse_as_with_the_stdlib(self, version, head):
        raw = f"POST /plan {version}\r\n".encode("latin-1")
        for name, blank, value, end in head:
            raw += f"{name}:{blank}{value}{end}".encode("latin-1")
        raw += b"\r\n"
        assert outcome(PlanningRequestHandler, raw) == outcome(StdlibHandler, raw)


class RecordingWriter:
    def __init__(self):
        self.writes = []

    def write(self, data):
        self.writes.append(bytes(data))
        return len(data)


class TestHandlerUnits:
    def handler(self, raw=b"GET /healthz HTTP/1.1\r\n\r\n"):
        handler = PlanningRequestHandler.__new__(PlanningRequestHandler)
        handler.rfile = io.BytesIO(raw)
        handler.client_address = ("127.0.0.1", 0)
        handler.raw_requestline = handler.rfile.readline(65537)
        assert handler.parse_request()
        handler.wfile = RecordingWriter()
        return handler

    @pytest.mark.parametrize("size", [10, 100_000])
    def test_a_response_is_one_write(self, size):
        handler = self.handler()
        handler._send_json(200, {"data": "x" * size}, headers={"X-Extra": "1"})
        [written] = handler.wfile.writes
        head, _, body = written.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 200 OK\r\n")
        assert b"\r\nX-Extra: 1" in head
        assert b"\r\nContent-Length: %d" % len(body) in head
        assert json.loads(body) == {"data": "x" * size}
        assert not handler.close_connection

    def test_an_unread_body_closes_the_connection(self):
        handler = self.handler(b"GET /healthz HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc")
        handler._send_json(200, {})
        [written] = handler.wfile.writes
        assert b"\r\nConnection: close\r\n" in written
        assert handler.close_connection

    def test_http09_answer_is_the_body_alone(self):
        handler = self.handler(b"GET /healthz\r\n")
        handler._send_json(200, {"status": "ok"})
        assert handler.wfile.writes == [b'{"status": "ok"}\n']

    def test_a_leading_double_slash_is_reduced(self):
        # As the stdlib since gh-87389: '//host/x' could read as a URL.
        assert self.handler(b"GET //healthz//x HTTP/1.1\r\n\r\n").path == "/healthz//x"

    def test_headers_are_case_insensitive(self):
        headers = self.handler(
            b"GET / HTTP/1.1\r\nX-One: 1\r\nx-one: 2\r\nAuthorization: Bearer t\r\n\r\n"
        ).headers
        assert headers["X-ONE"] == headers.get("x-one") == "1"
        assert "authorization" in headers and "Missing" not in headers
        assert headers.get("Missing", "d") == "d"
        assert dict(headers) == {"x-one": "1", "authorization": "Bearer t"}

    def test_quiet_log_builds_no_line(self):
        handler = self.handler()

        def fail():
            raise AssertionError("address_string() called with DEBUG off")

        handler.address_string = fail
        logger = logging.getLogger("repro.serve")
        level = logger.level
        logger.setLevel(logging.INFO)
        try:
            handler.log_message("%s", "formatted")
        finally:
            logger.setLevel(level)

    def test_debug_log_names_the_client(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="repro.serve"):
            self.handler().log_message("%s %d", "formatted", 7)
        assert caplog.messages == ["127.0.0.1 formatted 7"]


@pytest.fixture(scope="module")
def daemon(tmp_path_factory):
    """A live token-guarded daemon whose unhandled errors are recorded."""
    store = tmp_path_factory.mktemp("serve-front") / "serve.db"
    server = create_server(
        store,
        port=0,
        cache_ttl=60.0,
        characterize=False,
        auth_token=TOKEN,
        max_body_bytes=4096,
    )
    server.tracebacks = []

    def record(request, client_address):
        server.tracebacks.append(traceback.format_exc())

    server.handle_error = record
    handler = logging.Handler(level=logging.ERROR)
    handler.emit = lambda record: server.tracebacks.append(record.getMessage())
    logging.getLogger("repro.serve").addHandler(handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        logging.getLogger("repro.serve").removeHandler(handler)
        server.shutdown()
        server.close()
        thread.join(timeout=10)


def exchange(daemon, raw, *, half_close=True, timeout=5.0):
    """Send ``raw`` on a fresh connection; everything the daemon sends until it closes.

    With ``half_close`` the client ends its side after sending, so a read
    of a missing body ends; without it the daemon must close on its own.
    A hang raises :class:`TimeoutError`.
    """
    host, port = daemon.server_address[:2]
    with socket.create_connection((host, port), timeout=timeout) as sock:
        sock.sendall(raw)
        if half_close:
            with contextlib.suppress(OSError):  # the daemon may have closed already
                sock.shutdown(socket.SHUT_WR)
        return read_to_close(sock)


def read_to_close(sock):
    chunks = []
    while chunk := sock.recv(65536):
        chunks.append(chunk)
    return b"".join(chunks)


def responses(data):
    """The ``(status, headers, body)`` of each complete response in ``data``."""
    answers = []
    while data:
        head, separator, data = data.partition(b"\r\n\r\n")
        assert separator, f"incomplete response head {head[:200]!r}"
        status_line, *lines = head.decode("latin-1").split("\r\n")
        version, status, _ = (status_line + " ").split(" ", 2)
        assert version == "HTTP/1.1", status_line
        headers = {}
        for line in lines:
            name, separator, value = line.partition(": ")
            assert separator, line
            headers[name.lower()] = value
        length = int(headers.get("content-length", "0"))
        assert len(data) >= length, "truncated response body"
        answers.append((int(status), headers, data[:length]))
        data = data[length:]
    return answers


def request(method, path, *fields, body=b"", version="HTTP/1.1"):
    head = f"{method} {path} {version}\r\n".encode() + b"".join(f + b"\r\n" for f in fields)
    return head + b"\r\n" + body


AUTH = b"Authorization: Bearer " + TOKEN.encode()
PLAN = b'{"system": "d695_leon", "reused_processors": 2, "power_limit_fraction": 0.5}'


class TestPinnedExchanges:
    def test_transfer_encoding_is_501_and_closes(self, daemon):
        chunked = b"Transfer-Encoding: chunked"
        for raw in (
            request("POST", "/plan", AUTH, chunked, body=b"2\r\n{}\r\n0\r\n\r\n"),
            request("POST", "/plan", AUTH, b"Content-Length: 2", chunked, body=b"{}"),
        ):
            [(status, headers, _)] = responses(exchange(daemon, raw, half_close=False))
            assert status == 501
            assert headers["connection"] == "close"

    @pytest.mark.parametrize(
        "fields",
        [
            (b"X-A: 1", b" folded"),
            (b"Content-Length: 2", b"Content-Length: 3"),
            (b"X-A : 1",),
            (b"Content-Length: -1",),
        ],
    )
    def test_bad_header_lines_are_400_and_close(self, daemon, fields):
        raw = request("POST", "/plan", AUTH, *fields, body=b"{}")
        [(status, headers, _)] = responses(exchange(daemon, raw, half_close=False))
        assert status == 400
        assert headers["connection"] == "close"

    def test_too_many_headers_is_431(self, daemon):
        raw = request("GET", "/healthz", *(b"X-F%d: v" % i for i in range(101)))
        [(status, _, _)] = responses(exchange(daemon, raw, half_close=False))
        assert status == 431

    def test_long_lines_are_414_and_431(self, daemon):
        long_path = request("GET", "/" + "a" * 70_000)
        assert responses(exchange(daemon, long_path))[0][0] == 414
        long_field = request("GET", "/healthz", b"X-A: " + b"a" * 70_000)
        assert responses(exchange(daemon, long_field))[0][0] == 431

    @pytest.mark.parametrize(
        "line, status",
        [
            (b"GET /healthz HTTP/2.0", 505),
            (b"GET /healthz HTTP/1.x", 400),
            (b"\x00", 400),
            (b"POST /plan", 400),
        ],
    )
    def test_a_refused_request_line_gets_a_full_answer(self, daemon, line, status):
        [(answered, headers, _)] = responses(exchange(daemon, line + b"\r\n\r\n"))
        assert answered == status
        assert headers["connection"] == "close"

    def test_http09_get_is_answered_with_the_bare_body(self, daemon):
        assert json.loads(exchange(daemon, b"GET /healthz\r\n"))["status"] == "ok"

    def test_http10_closes_after_its_answer(self, daemon):
        raw = request("GET", "/healthz", version="HTTP/1.0")
        [(status, _, body)] = responses(exchange(daemon, raw, half_close=False))
        assert status == 200 and json.loads(body)["status"] == "ok"

    def test_http11_keeps_the_connection_for_pipelined_requests(self, daemon):
        plan = request("POST", "/plan", AUTH, b"Content-Length: %d" % len(PLAN), body=PLAN)
        raw = request("GET", "/healthz") + plan
        answers = responses(exchange(daemon, raw))
        assert [status for status, _, _ in answers] == [200, 200]
        assert json.loads(answers[1][2])["makespan"] == 112189

    def test_expect_100_continue_is_answered_before_the_body(self, daemon):
        host, port = daemon.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                request(
                    "POST",
                    "/plan",
                    AUTH,
                    b"Expect: 100-continue",
                    b"Content-Length: %d" % len(PLAN),
                )
            )
            sock.settimeout(1.0)  # well below a client's usual 2 s wait
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                byte = sock.recv(1)
                assert byte, f"closed after {interim!r}"
                interim += byte
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(PLAN)
            sock.shutdown(socket.SHUT_WR)
            sock.settimeout(5.0)
            [(status, _, body)] = responses(read_to_close(sock))
        assert status == 200 and json.loads(body)["makespan"] == 112189

    @pytest.mark.parametrize(
        "raw",
        [
            request("POST", "/nowhere", AUTH, b"Content-Length: 2", body=b"{}"),
            request("POST", "/plan", b"Content-Length: 2", body=b"{}"),  # 401
            request("POST", "/plan", AUTH, b"Content-Length: 5000", body=b"{}"),  # 413
            request("GET", "/healthz", b"Content-Length: 2", body=b"{}"),
        ],
    )
    def test_an_unread_body_closes_instead_of_desyncing(self, daemon, raw):
        [(status, headers, _)] = responses(
            exchange(daemon, raw + request("GET", "/healthz"), half_close=False)
        )
        assert status in (200, 401, 404, 413)
        assert headers["connection"] == "close"


# No HEAD: its 501 carries the Content-Length of a body it rightly omits,
# which a reader that does not know the method cannot tell from a
# truncated answer.
METHODS = ["GET", "POST", "PUT", "DELETE", "PATCH", "get", "BREW"]
PATHS = [
    "/healthz",
    "/plan",
    "/sweeps",
    "/sweeps/job-1",
    "/history/win-rates?system=d695_leon",
    "/history/trajectory?system=",
    "//healthz",
    "/nope",
    "*",
    "/plan?x=%ff",
]
VERSIONS = ["HTTP/1.1", "HTTP/1.0", "HTTP/2.0", "HTTP/1.x", "http/1.1", ""]
FIELDS = [
    b"Host: localhost",
    b"Connection: close",
    b"Connection: keep-alive",
    b"Expect: 100-continue",
    b"Content-Length: 2",
    b"Content-Length: 0",
    b"Content-Length: 40",
    b"Content-Length: -1",
    b"Content-Length: 99999999",
    b"Content-Length: 1_0",
    b"Transfer-Encoding: chunked",
    AUTH,
    b"Authorization: Bearer wrong",
    b" folded",
    b"Bad : field",
    b"no colon",
    b"X-Bin: \xff\x00\x7f",
    b"X-Long: " + b"a" * 66_000,
]
BODIES = [
    b"",
    b"{}",
    PLAN,
    b'{"points": [{"system": "d695_leon"}]}',
    b"null",
    b"[]",
    b"\xff\xfe",
    b"2\r\n{}\r\n0\r\n\r\n",
    b'{"spec": {}}',
]


@st.composite
def raw_requests(draw):
    """One or two pipelined requests built from hostile parts, or raw bytes,
    possibly cut short."""
    if draw(st.integers(0, 4)) == 0:
        raw = draw(st.binary(max_size=300))
    else:
        raw = b""
        for _ in range(draw(st.integers(1, 2))):
            words = [
                draw(st.sampled_from(METHODS)),
                draw(st.sampled_from(PATHS)),
                draw(st.sampled_from(VERSIONS)),
            ]
            line = " ".join(word for word in words if word).encode()
            end = draw(st.sampled_from([b"\r\n", b"\n"]))
            fields = draw(st.lists(st.sampled_from(FIELDS), max_size=5))
            raw += line + end + b"".join(field + end for field in fields) + end
            raw += draw(st.sampled_from(BODIES))
    if draw(st.booleans()):
        raw = raw[: draw(st.integers(0, len(raw)))]
    return raw


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(raw=raw_requests())
def test_raw_bytes_get_complete_answers_or_a_close(daemon, raw):
    """Whatever bytes arrive, the daemon answers with complete responses or
    closes, logs no traceback, never hangs, and stays healthy."""
    try:
        data = exchange(daemon, raw)
    except (ConnectionResetError, BrokenPipeError):
        data = None  # closed on us while we still sent or before we read
    # An HTTP/0.9 request (a bare GET and a path) is answered by a bare
    # body and a close; every other answer is HTTP/1.1.
    words = raw.split(b"\n", 1)[0].decode("latin-1").split()
    http09 = len(words) == 2 and words[0] == "GET"
    if data and not (http09 and not data.startswith(b"HTTP/")):
        statuses = [status for status, _, _ in responses(data)]
        assert 500 not in statuses
    assert daemon.tracebacks == []
    with urllib.request.urlopen(daemon.url + "/healthz", timeout=5) as answer:
        assert answer.status == 200
