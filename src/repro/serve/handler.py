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
  Feature arrays in a body decode through :func:`json_floats` and
  :func:`refuse_json_booleans`, which together take only JSON numbers.
* **Read-only observability routes.**  ``GET /metrics``, ``/tracez``
  and ``/requestz`` read process-global state and are answered the same
  way in every process.
* **Client disconnects** are counted in ``serve.client_disconnect``
  instead of dumping stack traces to stderr.

Subclasses answer their own routes through :meth:`JsonHandler.route_get`
and :meth:`JsonHandler.route_post`, which return a :data:`Response` or
``None`` for an unknown path (404).

:class:`FrontEnd` is the process lifecycle both front ends share: bind,
serve on a background thread or on the caller's, the alert evaluator,
``SIGTERM`` → drain, stop, the context manager and ``GET /alertz``.
"""

from __future__ import annotations

import json
import signal
import sys
import threading
import urllib.parse
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..telemetry import (AlertManager, get_flight_recorder, get_registry,
                         get_request_log, prometheus_text)
from ..telemetry.reqtrace import TraceContext

__all__ = ["DISCONNECTS", "FrontEnd", "HTTPServer", "JsonHandler",
           "MAX_BODY_BYTES", "Query", "Response", "json_floats",
           "refuse_json_booleans"]

#: Largest request body read (64 MiB): a 1024-feature ``/predict`` of
#: 1000 rows is about 20 MB of JSON.  Larger bodies answer 413 unread.
MAX_BODY_BYTES = 64 * 1024 * 1024

#: Exceptions raised when the client hangs up mid-request/-response.
DISCONNECTS = (BrokenPipeError, ConnectionResetError, ConnectionAbortedError)

#: ``(status, payload)`` or ``(status, payload, extra headers)``; the
#: payload is a JSON-able dict or an already encoded JSON body.
Response = Tuple[Any, ...]
Query = Dict[str, List[str]]

#: JSON's names for the values ``json.loads`` gives besides numbers and
#: arrays.
_JSON_TYPES = {bool: "boolean", str: "string", type(None): "null",
               dict: "object"}


def json_floats(value: Any) -> np.ndarray:
    """A decoded JSON array of numbers as a float64 array.

    Every JSON number, integer or not, converts as
    ``np.asarray(value, dtype=np.float64)`` would convert it.  A boolean,
    string, null or object raises :class:`ValueError` naming its type,
    where that conversion would read it as 1.0/0.0, parse the string or
    give NaN; so does an integer too large for float64, where that
    conversion raises :class:`OverflowError`.  A boolean among numbers
    is promoted to a number by numpy before it can be seen:
    :func:`refuse_json_booleans` catches it.
    """
    array = np.asarray(value)
    kind = array.dtype.kind
    if kind in "iuf":
        return array.astype(np.float64, copy=False)
    if kind == "O":  # integers beyond 64 bits, or a non-number inside
        for item in array.flat:
            if type(item) not in (int, float):
                raise ValueError(f"got a JSON "
                                 f"{_JSON_TYPES.get(type(item), 'value')}")
            try:
                float(item)
            except OverflowError:
                digits = str(item)
                raise ValueError(f"got the JSON number {digits[:20]}... "
                                 f"({len(digits)} digits), too large "
                                 f"for float64") from None
        return np.asarray(value, dtype=np.float64)
    raise ValueError(f"got a JSON {'boolean' if kind == 'b' else 'string'}")


def refuse_json_booleans(body: bytes, value: Any) -> None:
    """Raise :class:`ValueError` if ``value``, decoded from the JSON
    ``body``, holds a boolean at any depth of its arrays.

    Looks only when ``body`` spells ``true`` or ``false``, so an
    all-number body costs one bytes search.
    """
    if b"true" not in body and b"false" not in body:
        return
    stack = [value]
    while stack:
        item = stack.pop()
        if type(item) is bool:
            raise ValueError("got a JSON boolean")
        if type(item) is list:
            stack.extend(item)


class JsonHandler(BaseHTTPRequestHandler):
    """Base request handler: routing, one-write responses, trace ids."""

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
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
            ctx = TraceContext.mint()
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
        try:
            self.wfile.write(head + body)
        except DISCONNECTS:
            # The client is gone; nobody is owed this response.
            self._disconnected()

    def _disconnected(self) -> None:
        get_registry().inc("serve.client_disconnect")
        self.close_connection = True

    def log_message(self, format: str, *args: Any) -> None:
        # No access log on stderr: tests and benchmarks would drown in
        # per-request lines, and /requestz keeps the recent requests.
        pass


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


class FrontEnd:
    """Listener lifecycle of the model server and the fleet router.

    Binds ``handler`` on ``(host, port)`` at construction (``port=0``
    picks an ephemeral port), serves on a background thread
    (:meth:`start`) or on the caller's (:meth:`serve_forever`), runs the
    alert rules while serving, and stops in one order: stop accepting,
    close the listener, :meth:`_release` whatever the subclass holds,
    join the serving thread.  What differs per subclass is a class
    attribute or a hook, never a branch here.
    """

    #: Request handler class (a :class:`JsonHandler`) the listener
    #: dispatches to.
    handler: type
    #: Name of the thread :meth:`start` serves on (``-drain`` suffixed
    #: for the thread :meth:`drain` stops on).
    thread_name: str
    #: Counter bumped once per :meth:`drain`.
    drain_metric: str

    def __init__(self, host: str, port: int,
                 alert_rules: Optional[list] = None,
                 alert_interval_s: float = 1.0):
        self.alerts = (AlertManager(list(alert_rules))
                       if alert_rules else None)
        self.alert_interval_s = float(alert_interval_s)
        self.draining = False
        self._httpd = HTTPServer((host, port), self.handler, self)
        self._thread: Optional[threading.Thread] = None
        self._started = False

    def _release(self) -> None:
        """Free what the subclass holds once the listener is closed."""

    def _signal_handlers(self) -> Dict[int, Callable[[int, Any], None]]:
        """Signal → handler map :meth:`install_signal_handlers` sets."""
        return {signal.SIGTERM: lambda signum, frame: self.drain()}

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        """Actual ``(host, port)`` after binding (resolves ``port=0``)."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def alertz(self) -> Dict[str, Any]:
        """``GET /alertz`` body: evaluate-now + alert states.

        Evaluating on read means the endpoint is accurate even when the
        background evaluator is not running (tests, one-shot probes).
        """
        if self.alerts is None:
            return {"enabled": False, "rules": [], "firing": []}
        self.alerts.evaluate()
        return self.alerts.snapshot()

    # ------------------------------------------------------------------
    def _begin(self) -> None:
        if self._started:
            raise RuntimeError(f"{type(self).__name__} already started")
        self._started = True
        if self.alerts is not None:
            self.alerts.start(self.alert_interval_s)

    def start(self) -> "FrontEnd":
        """Serve in a background thread; returns self (fluent)."""
        self._begin()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name=self.thread_name,
            daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread (CLI entry point), with the
        signal handlers installed when that is the main thread."""
        self._begin()
        self.install_signal_handlers()
        try:
            self._httpd.serve_forever()
        finally:
            self.stop()

    def install_signal_handlers(self) -> bool:
        """Install :meth:`_signal_handlers` (main thread only).

        ``SIGTERM`` starts the graceful :meth:`drain`, which is also how
        a fleet supervisor stops a worker.  Returns whether the handlers
        were installed.
        """
        if threading.current_thread() is not threading.main_thread():
            return False
        try:
            for signum, on_signal in self._signal_handlers().items():
                signal.signal(signum, on_signal)
        except (ValueError, OSError, AttributeError):
            return False
        return True

    def drain(self) -> None:
        """Graceful shutdown trigger: signal-safe, returns at once.

        ``shutdown()`` must not run on the thread blocked inside
        ``serve_forever`` (it would wait for its own loop to exit), so
        :meth:`stop` runs on a helper thread.
        """
        if self.draining:
            return
        self.draining = True
        get_registry().inc(self.drain_metric)
        threading.Thread(target=self.stop, name=f"{self.thread_name}-drain",
                         daemon=True).start()

    def stop(self) -> None:
        """Stop accepting, close the listener, release, join."""
        self.draining = True
        if self.alerts is not None:
            self.alerts.stop()
        if self._started:
            # shutdown() synchronizes with a serve_forever loop; calling
            # it on a never-served listener would block forever.
            self._httpd.shutdown()
        self._httpd.server_close()
        self._release()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "FrontEnd":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()


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

    ``?limit=N`` (a non-negative integer, else 400) bounds the slice,
    ``?errors=1`` filters to failures, ``?trace_id=<id>`` pulls one
    request's record.
    """
    raw_limit = query.get("limit", ["100"])[-1]
    if not (raw_limit.isascii() and raw_limit.isdigit()):
        return 400, {"error": f"limit must be a non-negative integer, "
                              f"got {raw_limit!r}"}
    limit = int(raw_limit)
    errors_only = query.get("errors", ["0"])[-1] not in ("0", "", "false")
    trace_id = query.get("trace_id", [None])[-1]
    log = get_request_log()
    return 200, {"requests": log.snapshot(limit=limit, trace_id=trace_id,
                                          errors_only=errors_only),
                 "appended": log.appended}
