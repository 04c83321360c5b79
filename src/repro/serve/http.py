"""The stdlib HTTP front of the planning service (``repro serve``).

A deliberately thin layer: a declarative route table (:data:`ROUTES` — what
``docs/api.md`` is tested against), a :class:`http.server.BaseHTTPRequestHandler`
that parses the request (path, query, JSON body), dispatches to one
:class:`~repro.serve.service.PlanningService` method, and serializes the
returned dict as a JSON response.  No planning or storage logic lives here;
see :mod:`repro.serve.service` for the seam and ``docs/api.md`` for the
wire format.

The daemon is a :class:`http.server.ThreadingHTTPServer`: one thread per
in-flight request, which is exactly what the store's concurrency model
expects — many WAL reader connections (one per read request) around the job
queue's single writer thread.
"""

from __future__ import annotations

import hmac
import json
import logging
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Mapping, Sequence
from urllib.parse import parse_qs, urlsplit

from repro.errors import ApiError, ConfigurationError, ReproError
from repro.serve.service import PlanningService

logger = logging.getLogger("repro.serve")

#: JSON media type every response is served with.
JSON_CONTENT_TYPE = "application/json; charset=utf-8"

#: Default cap on request body size; bodies above it are rejected with 413.
#: Per-daemon override via ``create_server(max_body_bytes=...)``.
MAX_BODY_BYTES = 1_000_000

#: Paths served without authentication even when a token is configured.
#: Health probes (load balancers, orchestrators) must not need credentials.
AUTH_EXEMPT: frozenset[str] = frozenset({"/healthz"})


@dataclass(frozen=True)
class Route:
    """One routable endpoint of the API.

    Attributes:
        method: HTTP method (``GET`` or ``POST``).
        pattern: path pattern; a ``<name>`` segment matches any single
            non-empty segment and is captured as a parameter.
        handler: the name of the bound handler function in this module
            (``_handle_<name>``), kept as a string so the route table stays
            declarative and printable.
    """

    method: str
    pattern: str
    handler: str

    def match(self, path: str) -> dict[str, str] | None:
        """Captured parameters when ``path`` matches this route, else ``None``."""
        pattern_parts = self.pattern.strip("/").split("/")
        path_parts = path.strip("/").split("/")
        if len(pattern_parts) != len(path_parts):
            return None
        params: dict[str, str] = {}
        for expected, actual in zip(pattern_parts, path_parts):
            if expected.startswith("<") and expected.endswith(">"):
                if not actual:
                    return None
                params[expected[1:-1]] = actual
            elif expected != actual:
                return None
        return params


#: The full routable API surface, in documentation order.  ``docs/api.md``
#: documents exactly these (method, pattern) pairs — the equality is pinned
#: by ``tests/serve/test_docs.py``.
ROUTES: tuple[Route, ...] = (
    Route("GET", "/healthz", "_handle_healthz"),
    Route("POST", "/plan", "_handle_plan"),
    Route("POST", "/sweeps", "_handle_submit_sweep"),
    Route("GET", "/sweeps/<id>", "_handle_sweep_status"),
    Route("GET", "/history/win-rates", "_handle_win_rates"),
    Route("GET", "/history/trajectory", "_handle_trajectory"),
)


def _handle_healthz(service: PlanningService, request: "ParsedRequest") -> tuple[int, dict]:
    """``GET /healthz`` — liveness and store/cache vitals."""
    return 200, service.health()


def _handle_plan(service: PlanningService, request: "ParsedRequest") -> tuple[int, dict]:
    """``POST /plan`` — plan one system synchronously."""
    return 200, service.plan(request.body)


def _handle_submit_sweep(
    service: PlanningService, request: "ParsedRequest"
) -> tuple[int, dict]:
    """``POST /sweeps`` — enqueue a sweep grid; answers 202 with the job."""
    return 202, service.submit_sweep(request.body)


def _handle_sweep_status(
    service: PlanningService, request: "ParsedRequest"
) -> tuple[int, dict]:
    """``GET /sweeps/<id>`` — job state plus store-side progress."""
    return 200, service.sweep_status(request.params["id"])


def _handle_win_rates(
    service: PlanningService, request: "ParsedRequest"
) -> tuple[int, dict]:
    """``GET /history/win-rates`` — cached SQL win-rate aggregation."""
    return 200, service.win_rates(system=request.query.get("system"))


def _handle_trajectory(
    service: PlanningService, request: "ParsedRequest"
) -> tuple[int, dict]:
    """``GET /history/trajectory`` — cached SQL trajectory aggregation."""
    return 200, service.trajectory(system=request.query.get("system"))


@dataclass(frozen=True)
class ParsedRequest:
    """Everything a handler may consume, parsed once by the HTTP layer.

    Attributes:
        params: captured path parameters (e.g. ``{"id": "job-1-ab12cd34"}``).
        query: query-string parameters, last value winning.
        body: decoded JSON object for POST requests (``{}`` for GET).
    """

    params: Mapping[str, str]
    query: Mapping[str, str]
    body: Mapping


class PlanningRequestHandler(BaseHTTPRequestHandler):
    """Parses one HTTP request, dispatches via :data:`ROUTES`, serializes JSON.

    Error mapping: :class:`~repro.errors.ApiError` answers with its carried
    status and headers, any other :class:`~repro.errors.ReproError` with 400
    (the request described something the library rejects), unmatched paths
    with 404, matched paths under the wrong method with 405 (plus an
    ``Allow`` header), missing or wrong credentials with 401 (plus a
    ``WWW-Authenticate`` challenge), oversized or undecodable bodies with
    413/400, and anything unexpected with 500.
    """

    protocol_version = "HTTP/1.1"
    # Headers and body are two writes; without TCP_NODELAY Nagle holds the
    # body back until the client ACKs the headers (~40 ms per request).
    disable_nagle_algorithm = True
    server: "PlanningServer"

    # ------------------------------------------------------------------
    # Entry points.
    # ------------------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server's naming)
        """Dispatch a GET request."""
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 (http.server's naming)
        """Dispatch a POST request."""
        self._dispatch("POST")

    def do_PUT(self) -> None:  # noqa: N802 (http.server's naming)
        """Dispatch a PUT request (405 on known routes, not the stdlib 501)."""
        self._dispatch("PUT")

    def do_PATCH(self) -> None:  # noqa: N802 (http.server's naming)
        """Dispatch a PATCH request (405 on known routes, not the stdlib 501)."""
        self._dispatch("PATCH")

    def do_DELETE(self) -> None:  # noqa: N802 (http.server's naming)
        """Dispatch a DELETE request (405 on known routes, not the stdlib 501)."""
        self._dispatch("DELETE")

    # ------------------------------------------------------------------
    # Dispatch.
    # ------------------------------------------------------------------
    def _dispatch(self, method: str) -> None:
        """Route one request and write the JSON response."""
        split = urlsplit(self.path)
        path = split.path
        try:
            self._check_auth(path)
            matched = self._match(method, path)
            if matched is None:
                return
            route, params = matched
            query = {
                name: values[-1]
                for name, values in parse_qs(split.query, keep_blank_values=True).items()
            }
            body = self._read_body() if method == "POST" else {}
            handler: Callable[[PlanningService, ParsedRequest], tuple[int, dict]]
            handler = globals()[route.handler]
            status, payload = handler(
                self.server.service, ParsedRequest(params=params, query=query, body=body)
            )
        except ApiError as error:
            self._send_json(error.status, {"error": str(error)}, headers=error.headers)
        except ReproError as error:
            self._send_json(400, {"error": str(error)})
        except Exception as error:  # pragma: no cover - defensive backstop
            logger.exception("unhandled error serving %s %s", method, path)
            self._send_json(500, {"error": f"internal server error: {error}"})
        else:
            self._send_json(status, payload)

    def _check_auth(self, path: str) -> None:
        """Enforce the daemon's bearer token, if one is configured.

        Every route except :data:`AUTH_EXEMPT` requires
        ``Authorization: Bearer <token>`` matching the server's token
        (compared in constant time).

        Raises:
            ApiError: 401 with a ``WWW-Authenticate`` challenge for a
                missing or wrong credential.
        """
        token = self.server.auth_token
        if token is None or path in AUTH_EXEMPT:
            return
        header = self.headers.get("Authorization", "")
        scheme, _, presented = header.partition(" ")
        if scheme.lower() == "bearer" and hmac.compare_digest(
            presented.strip().encode("utf-8"), token.encode("utf-8")
        ):
            return
        if (self.headers.get("Content-Length") or "0").strip() != "0":
            # The body is never read on this path; a keep-alive client
            # would desync parsing the unread bytes as the next request.
            self.close_connection = True
        raise ApiError(
            "missing or invalid bearer token"
            if header
            else "authentication required: send 'Authorization: Bearer <token>'",
            status=401,
            headers={"WWW-Authenticate": "Bearer"},
        )

    def _match(self, method: str, path: str) -> tuple[Route, dict[str, str]] | None:
        """Resolve ``(method, path)`` against :data:`ROUTES`.

        Writes the 404/405 response itself and returns ``None`` when no
        handler should run.
        """
        allowed: list[str] = []
        for route in ROUTES:
            params = route.match(path)
            if params is None:
                continue
            if route.method == method:
                return route, params
            allowed.append(route.method)
        if (self.headers.get("Content-Length") or "0").strip() != "0":
            # The request body is never read on these error paths; a
            # keep-alive client would desync parsing the unread bytes as
            # the next request line.
            self.close_connection = True
        if allowed:
            self._send_json(
                405,
                {"error": f"method {method} not allowed for {path}"},
                headers={"Allow": ", ".join(sorted(set(allowed)))},
            )
        else:
            self._send_json(
                404,
                {
                    "error": f"no route for {path}",
                    "routes": [f"{route.method} {route.pattern}" for route in ROUTES],
                },
            )
        return None

    def _read_body(self) -> Mapping:
        """Decode the request body as a JSON object.

        Raises:
            ApiError: for a missing/oversized body (411/413), undecodable
                JSON (400), or a body that is not a JSON object (400).
        """
        length_header = self.headers.get("Content-Length")
        if length_header is None:
            raise ApiError("a JSON request body is required", status=411)
        try:
            length = int(length_header)
        except ValueError as exc:
            raise ApiError("invalid Content-Length header") from exc
        limit = self.server.max_body_bytes
        if length > limit:
            raise ApiError(f"request body exceeds {limit} bytes", status=413)
        raw = self.rfile.read(length)
        try:
            body = json.loads(raw.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ApiError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(body, dict):
            raise ApiError("request body must be a JSON object")
        return body

    # ------------------------------------------------------------------
    # Responses and logging.
    # ------------------------------------------------------------------
    def _send_json(
        self, status: int, payload: dict, *, headers: Mapping[str, str] | None = None
    ) -> None:
        """Write one JSON response with an explicit Content-Length."""
        encoded = (json.dumps(payload, sort_keys=True) + "\n").encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", JSON_CONTENT_TYPE)
        self.send_header("Content-Length", str(len(encoded)))
        if headers:
            for name, value in headers.items():
                self.send_header(name, value)
        self.end_headers()
        self.wfile.write(encoded)

    def log_message(self, format: str, *args: object) -> None:
        """Route http.server's per-request lines to the module logger."""
        logger.debug("%s %s", self.address_string(), format % args)


class PlanningServer(ThreadingHTTPServer):
    """The daemon: a threading HTTP server bound to one :class:`PlanningService`.

    Request threads are daemonic so a stuck client cannot block shutdown;
    :meth:`close` stops the listener and drains the job queue.
    """

    daemon_threads = True

    def __init__(
        self,
        address: tuple[str, int],
        service: PlanningService,
        *,
        auth_token: str | None = None,
        max_body_bytes: int = MAX_BODY_BYTES,
    ) -> None:
        if auth_token is not None and not auth_token:
            raise ConfigurationError("the auth token must be non-empty")
        if max_body_bytes < 1:
            raise ConfigurationError("max_body_bytes must be >= 1")
        self.service = service
        self.auth_token = auth_token
        self.max_body_bytes = max_body_bytes
        super().__init__(address, PlanningRequestHandler)

    @property
    def url(self) -> str:
        """Base URL the server is reachable at (after binding)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def close(self) -> None:
        """Stop accepting connections and shut the service down."""
        self.server_close()
        self.service.close()


def create_server(
    store_path: str | Path,
    *,
    host: str = "127.0.0.1",
    port: int = 8787,
    cache_ttl: float = 2.0,
    characterize: bool = False,
    packet_count: int = 200,
    cache_dir: str | Path | None = None,
    auth_token: str | None = None,
    max_queue: int = 0,
    max_body_bytes: int = MAX_BODY_BYTES,
    dispatch_hosts: Sequence[str] | None = None,
    dispatch_launcher: str | None = None,
) -> PlanningServer:
    """Build a ready-to-serve daemon (bound, not yet serving).

    The caller decides how to run it: ``serve_forever()`` for the CLI, a
    background thread for tests (``port=0`` binds an ephemeral port,
    reachable via :attr:`PlanningServer.url`).

    Args:
        store_path: sqlite sweep store the daemon serves and fills.
        host: bind address.
        port: bind port (0 = ephemeral).
        cache_ttl: history read-cache TTL in seconds (0 disables).
        characterize: characterise NoCs for API-submitted sweep jobs.
        packet_count: characterisation campaign size for sweep jobs.
        cache_dir: persisted characterisation-cache directory for jobs.
        auth_token: bearer token every non-health request must present
            (``None`` = open access).
        max_queue: sweep jobs allowed to wait in the queue before
            submissions are answered 503 (0 = unbounded).
        max_body_bytes: request bodies above this are rejected with 413.
        dispatch_hosts: host list offered to sweep jobs that ask for the
            remote backend (default: ``None`` — such jobs are rejected).
        dispatch_launcher: launcher name for remote sweep jobs (default
            ``None`` keeps the remote backend's ssh default).

    Raises:
        ConfigurationError: for an invalid TTL, token, queue bound or
            body limit.
        OSError: when the address cannot be bound.
    """
    if cache_ttl < 0:
        raise ConfigurationError("--cache-ttl must be >= 0 seconds")
    service = PlanningService(
        store_path,
        cache_ttl=cache_ttl,
        characterize=characterize,
        packet_count=packet_count,
        cache_dir=cache_dir,
        max_queue=max_queue,
        dispatch_hosts=dispatch_hosts,
        dispatch_launcher=dispatch_launcher,
    )
    try:
        return PlanningServer(
            (host, port),
            service,
            auth_token=auth_token,
            max_body_bytes=max_body_bytes,
        )
    except BaseException:
        service.close()
        raise
