"""The one harness the live gate scripts share.  It owns:

* the HTTP JSON client, :func:`http_request` and :func:`http_json`;
* closed-loop HTTP load, :class:`LoadGenerator`;
* a traced fleet, :func:`traced_fleet` (``Supervisor`` + ``Router``
  with request tracing on);
* one serve-CLI server phase, :func:`server_phase` (registry reset →
  ``build_server`` → stop);
* the scratch workdir, :func:`scratch_dir`;
* the PASS/FAIL checker and its failure summary, :class:`Checks`.

``chaos_serve.py``, ``check_trace.py``, ``check_online.py``,
``check_quality.py`` and the heredoc in ``check_serve.sh`` import this
module first; importing it puts ``src/`` on ``sys.path``.  No other
script under ``scripts/`` opens an HTTP connection, builds a fleet,
switches request tracing or makes a temporary directory.  ``bench/``
keeps its own client, because the benchmark's paths are fixed.
"""

import collections
import contextlib
import http.client
import json
import os
import sys
import tempfile
import threading
import time

import numpy as np

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_SRC = os.path.join(REPO_ROOT, "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


def _send(conn, method, path, payload):
    """One request on ``conn`` → ``(status, body, headers)``."""
    body = None
    headers = {}
    if payload is not None:
        body = payload if isinstance(payload, bytes) \
            else json.dumps(payload).encode("utf-8")
        headers["Content-Type"] = "application/json"
    conn.request(method, path, body, headers)
    response = conn.getresponse()
    raw = response.read().decode("utf-8")
    try:
        parsed = json.loads(raw) if raw else {}
    except ValueError:
        parsed = raw
    return response.status, parsed, dict(response.getheaders())


def http_request(host, port, method, path, payload=None, timeout=30.0):
    """One request on a fresh connection → ``(status, body, headers)``.

    ``payload`` is sent as JSON, or as is when it is ``bytes``.  The
    body is parsed JSON, ``{}`` when empty, and text when it is not
    JSON (``/metrics``).
    """
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        return _send(conn, method, path, payload)
    finally:
        conn.close()


def http_json(host, port, method, path, payload=None, timeout=30.0):
    """One request → ``(status, body)``."""
    return http_request(host, port, method, path, payload, timeout)[:2]


#: One request of a :class:`LoadGenerator`; all but the phase and the
#: latency are None after a connection error.
Response = collections.namedtuple(
    "Response", "phase latency_ms status trace_id body")


class LoadGenerator:
    """Closed-loop keep-alive ``POST /predict`` load.

    ``clients`` threads each hold one connection and send ``payloads``
    in rotation (client ``c`` sends ``c``, ``c + clients``, ...) as fast
    as the server answers: ``requests`` each, or until :meth:`stop`.
    :attr:`responses` records each one under the *current*
    :attr:`phase`, which the caller may flip while the load runs.  As a
    context manager it starts and stops the load.
    """

    def __init__(self, host, port, payloads, clients, requests=None,
                 phase=""):
        self.address = (host, int(port))
        self.payloads = payloads
        self.clients = int(clients)
        self.requests = requests
        self.phase = phase
        self.responses = []
        self._stop = threading.Event()
        self._threads = []

    def _client(self, cid):
        conn = http.client.HTTPConnection(*self.address, timeout=30.0)
        sent = 0
        while not self._stop.is_set() and sent != self.requests:
            payload = self.payloads[(cid + sent * self.clients)
                                    % len(self.payloads)]
            sent += 1
            phase = self.phase
            status = trace_id = body = None
            t0 = time.perf_counter()
            try:
                status, body, headers = _send(conn, "POST", "/predict",
                                              payload)
                trace_id = headers.get("X-Trace-Id")
            except (http.client.HTTPException, OSError):
                conn.close()
            self.responses.append(Response(
                phase, 1000.0 * (time.perf_counter() - t0), status,
                trace_id, body))
        conn.close()

    def start(self):
        self._threads = [
            threading.Thread(target=self._client, args=(cid,),
                             name=f"load-client-{cid}", daemon=True)
            for cid in range(self.clients)]
        for thread in self._threads:
            thread.start()
        return self

    def join(self):
        """Wait for every client to finish (or be stopped)."""
        for thread in self._threads:
            thread.join(timeout=35.0)

    def stop(self):
        self._stop.set()
        self.join()

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()

    def summary(self, phases):
        """Per phase: the count of 200 (``ok``) and other (``fail``)
        responses, and the P50/P95/P99 latency of the 200s (0.0 when
        there are none)."""
        out = {}
        for name in phases:
            mine = [r for r in self.responses if r.phase == name]
            ok = [r.latency_ms for r in mine if r.status == 200]
            lat = np.asarray(ok or [0.0])
            out[name] = {"ok": len(ok), "fail": len(mine) - len(ok),
                         **{f"p{q}_ms": float(np.percentile(lat, q))
                            for q in (50, 95, 99)}}
        return out


def scratch_dir(prefix):
    """A context manager: a fresh temporary directory, removed on exit."""
    return tempfile.TemporaryDirectory(prefix=prefix,
                                       ignore_cleanup_errors=True)


@contextlib.contextmanager
def traced_fleet(bundle_path, service, supervisor_options,
                 router_options, trace_dir=None):
    """Yield a started ``(Supervisor, Router)`` pair serving
    ``bundle_path`` on an ephemeral port, with request tracing on in
    this process as ``service``; on exit stop the router, the
    supervisor, then tracing."""
    from repro.serve import Router, Supervisor
    from repro.telemetry import (disable_request_tracing,
                                 enable_request_tracing)

    supervisor = Supervisor(bundle_path, **supervisor_options)
    router = Router(supervisor, port=0, **router_options)
    enable_request_tracing(service=service, trace_dir=trace_dir)
    try:
        supervisor.start()
        router.start()
        yield supervisor, router
    finally:
        router.stop()
        supervisor.stop()
        disable_request_tracing()


@contextlib.contextmanager
def server_phase(bundle_path, config_text, workdir, tag):
    """Reset the metrics registry and yield a started ``ModelServer``
    that the serve CLI's ``build_server`` makes from ``config_text``
    (written to ``workdir/serve-<tag>.toml``) on an ephemeral port;
    stop it on exit, also when the body raises."""
    from repro import telemetry
    from repro.serve.__main__ import _parse_args, build_server

    telemetry.get_registry().reset()
    config_path = os.path.join(workdir, f"serve-{tag}.toml")
    with open(config_path, "w") as handle:
        handle.write(config_text)
    server = build_server(_parse_args(
        [bundle_path, "--config", config_path, "--port", "0"]))
    server.start()
    try:
        yield server
    finally:
        server.stop()


class Checks:
    """``check(condition, label)`` prints a PASS/FAIL line and keeps the
    failed labels; :meth:`summary` ends the gate."""

    def __init__(self):
        self.failures = []

    def __call__(self, condition, label):
        print(("PASS" if condition else "FAIL") + f"  {label}")
        if not condition:
            self.failures.append(label)

    def summary(self, failed, passed):
        """Print ``failed`` and the failed labels to stderr and return 1,
        or print ``passed`` and return 0."""
        if self.failures:
            print(f"\n{failed} FAILED: {len(self.failures)} assertion(s):",
                  file=sys.stderr)
            for label in self.failures:
                print(f"  - {label}", file=sys.stderr)
            return 1
        print(f"\n{passed}")
        return 0
