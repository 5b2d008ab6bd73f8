"""HTTP plumbing shared by the model server and the fleet router.

:class:`JsonHandler` is the base of both request handlers
(:mod:`~repro.serve.server` and :mod:`~repro.serve.router`) and owns
everything they have in common:

* **One write per response.**  Status line, headers and body leave in a
  single ``wfile.write`` on a ``TCP_NODELAY`` socket.  Sent as two
  writes (headers, then body) on a keep-alive connection, the body waits
  behind Nagle's algorithm for the client's delayed ACK of the headers —
  about 40 ms on Linux, paid twice by a routed request.
* **Request identity.**  Every response, errors included, echoes
  ``X-Trace-Id`` + ``traceparent``: the client's traceparent or a
  freshly minted request id.
* **Request bodies.**  ``Content-Length`` is parsed once, here; a
  non-numeric or negative value answers 400, and one above
  :data:`MAX_BODY_BYTES` answers 413, without reading the body.
* **Read-only observability routes.**  ``GET /metrics``, ``/tracez``
  and ``/requestz`` read process-global state and are answered the same
  way in every process.
* **Client disconnects** are counted in ``serve.client_disconnect``
  instead of dumping stack traces to stderr.

Subclasses answer their own routes through :meth:`JsonHandler.route_get`
and :meth:`JsonHandler.route_post`, which return a :data:`Response` or
``None`` for an unknown path (404).
"""

from __future__ import annotations

import json
import sys
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, List, Optional, Tuple

from ..telemetry import (get_flight_recorder, get_registry, get_request_log,
                         prometheus_text)
from ..telemetry.reqtrace import TraceContext

__all__ = ["DISCONNECTS", "HTTPServer", "JsonHandler", "MAX_BODY_BYTES",
           "Query", "Response"]

#: Largest request body read (64 MiB): a 1024-feature ``/predict`` of
#: 1000 rows is about 20 MB of JSON.  Larger bodies answer 413 unread.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Exceptions raised when the client hangs up mid-request/-response.
DISCONNECTS = (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)

#: ``(status, payload)`` or ``(status, payload, extra headers)``; the
#: payload is a JSON-able dict or an already encoded JSON body.
Response = Tuple[Any, ...]
Query = Dict[str, List[str]]


class JsonHandler(BaseHTTPRequestHandler):
    """Base request handler: routing, one-write responses, trace ids."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    #: Counter bumped once per logged request (the stdlib access log).
    requests_metric = "serve.http.requests"
    server: "HTTPServer"

    #: Trace context echoed on every response of the current request
    #: (set when the request starts; a traced route swaps in its live
    #: root-span context).
    _trace_ctx: Optional[TraceContext] = None

    # -- routes of the subclass ----------------------------------------
    def route_get(self, path: str, query: Query) -> Optional[Response]:
        """Answer ``GET path``; ``None`` means no such route."""
        return None

    def route_post(self, path: str, body: bytes) -> Optional[Response]:
        """Answer ``POST path`` with its body; ``None`` means no route."""
        return None

    # -- dispatch ------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (http.server API)
        self._begin_request()
        url = urllib.parse.urlsplit(self.path)
        query = urllib.parse.parse_qs(url.query)
        if url.path == "/metrics":
            self._send(200, prometheus_text().encode("utf-8"),
                       "text/plain; charset=utf-8")
        elif url.path == "/tracez":
            self._respond(_tracez(query))
        elif url.path == "/requestz":
            self._respond(_requestz(query))
        else:
            self._respond(self.route_get(url.path, query))

    def do_POST(self) -> None:  # noqa: N802 (http.server API)
        ctx = self._begin_request()
        length = self.headers.get("Content-Length", "0").strip()
        if not (length.isascii() and length.isdigit()):
            self._refuse_body(ctx, 400, f"invalid Content-Length {length!r}")
            return
        if int(length) > MAX_BODY_BYTES:
            # Reading it would allocate the announced size up front.
            self._refuse_body(ctx, 413, f"request body of {length} bytes "
                                        f"exceeds {MAX_BODY_BYTES}")
            return
        try:
            body = self.rfile.read(int(length))
        except DISCONNECTS:
            self._disconnected()
            return
        self._respond(self.route_post(self.path, body))

    def _refuse_body(self, ctx: TraceContext, status: int,
                     message: str) -> None:
        """Answer without reading the body, then close the connection:
        the body's unread bytes are not a request."""
        self.close_connection = True
        self._respond((status, {"error": message,
                                "request_id": ctx.trace_id},
                       {"Connection": "close"}))

    # -- responses -----------------------------------------------------
    def _begin_request(self) -> TraceContext:
        """Adopt the client's traceparent, or mint a request id."""
        ctx = TraceContext.parse(self.headers.get("traceparent"))
        if ctx is None:
            ctx = TraceContext.mint(sampled=False)
        self._trace_ctx = ctx
        return ctx

    def _respond(self, response: Optional[Response]) -> None:
        if response is None:
            response = (404, {"error": f"no route {self.path!r}"})
        status, payload, *headers = response
        body = (payload if isinstance(payload, bytes)
                else json.dumps(payload).encode("utf-8"))
        self._send(status, body, "application/json",
                   headers[0] if headers else None)

    def _send(self, status: int, body: bytes, content_type: str,
              headers: Optional[Dict[str, str]] = None) -> None:
        """Write status line, headers and body in one ``wfile.write``."""
        reason = self.responses.get(status, ("",))[0]
        lines = [f"{self.protocol_version} {status} {reason}",
                 f"Server: {self.version_string()}",
                 f"Date: {self.date_time_string()}",
                 f"Content-Type: {content_type}",
                 f"Content-Length: {len(body)}"]
        ctx = self._trace_ctx
        if ctx is not None:
            lines += [f"X-Trace-Id: {ctx.trace_id}",
                      f"traceparent: {ctx.to_traceparent()}"]
        lines += [f"{name}: {value}" for name, value in
                  (headers or {}).items()]
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        self.log_request(status)
        try:
            self.wfile.write(head + body)
        except DISCONNECTS:
            # The client is gone; nobody is owed this response.
            self._disconnected()

    def _disconnected(self) -> None:
        get_registry().inc("serve.client_disconnect")
        self.close_connection = True

    def log_message(self, format: str, *args: Any) -> None:
        # Access logs go to the metrics registry, not stderr (tests and
        # benchmarks would otherwise drown in per-request lines).
        get_registry().inc(self.requests_metric)


class HTTPServer(ThreadingHTTPServer):
    """Threaded listener whose handlers reach their owner as ``app``."""

    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: Tuple[str, int], handler: type, app: Any):
        super().__init__(address, handler)
        self.app = app

    def handle_error(self, request, client_address) -> None:
        """Count client disconnects instead of spewing tracebacks.

        Anything that escapes the handler's own try/except (e.g. a
        reset while *reading* the request line) lands here; for real
        server bugs keep the default stderr traceback.
        """
        if isinstance(sys.exc_info()[1], DISCONNECTS):
            get_registry().inc("serve.client_disconnect")
            return
        super().handle_error(request, client_address)


def _tracez(query: Query) -> Response:
    """``GET /tracez`` body: flight-recorder snapshot or one trace.

    ``?trace_id=<id>`` looks up a retained trace (404 with the retained
    id list when it aged out); no query returns the recorder snapshot
    (retained traces sorted slowest-first, active-trace count, stats).
    """
    trace_id = query.get("trace_id", [None])[-1]
    recorder = get_flight_recorder()
    if trace_id:
        found = recorder.lookup(trace_id)
        if found is None:
            return 404, {"error": f"trace {trace_id!r} not retained",
                         "retained": recorder.retained_ids()}
        return 200, found
    return 200, recorder.snapshot()


def _requestz(query: Query) -> Response:
    """``GET /requestz`` body: the structured request log (newest first).

    ``?limit=N`` bounds the slice, ``?errors=1`` filters to failures,
    ``?trace_id=<id>`` pulls one request's record.
    """
    try:
        limit = int(query.get("limit", ["100"])[-1])
    except ValueError:
        limit = 100
    errors_only = query.get("errors", ["0"])[-1] not in ("0", "", "false")
    trace_id = query.get("trace_id", [None])[-1]
    log = get_request_log()
    return 200, {"requests": log.snapshot(limit=limit, trace_id=trace_id,
                                          errors_only=errors_only),
                 "appended": log.appended}
