"""Fleet router: consistent-hash, health-gated request routing.

The front door of the fault-tolerant serving fleet.  A stdlib
``ThreadingHTTPServer`` with the handler base the workers use
(:mod:`~repro.serve.handler`) accepts client requests and forwards them
to the worker processes a :class:`~repro.serve.fleet.Supervisor` (or
:class:`~repro.serve.fleet.StaticFleet`) maintains:

* **Consistent hashing.**  Each request body is digested (sha1) and
  placed on a hash ring built over the *stable* fleet membership, then
  served by the nearest *healthy* worker clockwise.  Identical feature
  payloads therefore keep landing on the same worker, preserving each
  worker's encoded-hypervector LRU locality; when a worker leaves
  rotation only its arc of keys moves.
* **Health gating + circuit breakers.**  Routing only considers workers
  the supervisor reports ``up``, and each worker is additionally
  wrapped in a :class:`~repro.reliability.CircuitBreaker` — a worker
  that keeps erroring is skipped *before* a connection is spent on it,
  and half-open probes let it back in gradually.
* **Bounded retry.**  ``/predict`` is idempotent (pure function of the
  payload), so connection resets, timeouts, and 5xx/503/504 worker
  answers are retried on the next worker along the ring with a small
  exponential backoff, up to ``max_attempts`` — a single crashed worker
  costs affected requests one retry, not an error.
* **Keep-alive connection pools.**  One persistent-connection pool per
  worker; a stale pooled connection (worker restarted between requests)
  is transparently replaced once before the attempt counts as a
  failure.
* **Graceful drain.**  SIGTERM stops the accept loop, waits for
  in-flight requests, then stops the fleet — no request is abandoned
  mid-flight.  The listener lifecycle is the one the workers run
  (:class:`~repro.serve.handler.FrontEnd`).

Endpoints: ``POST /predict`` (routed), ``GET /healthz`` (fleet +
breaker summary), ``GET /tracez`` + ``/requestz`` (the router's own
traces and request log), ``GET /metrics`` (Prometheus text of the router
process registry: the router's own ``fleet.router.*`` fault counters
and latency quantiles), ``GET /driftz``
(per-worker model-quality drift snapshots + a fleet-wide rollup of the
worst PSI/z-score), ``GET /alertz`` (the router's own alert-rule
states), ``POST /reload`` (broadcast to every live worker; any
rejection answers 409 with the per-worker outcomes).
"""

from __future__ import annotations

import bisect
import hashlib
import http.client
import json
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..reliability.circuit import CircuitBreaker
from ..telemetry import clock, get_registry, get_request_log, span
from ..telemetry.reqtrace import HUB as _HUB
from ..telemetry.reqtrace import TraceContext
from .handler import DISCONNECTS, FrontEnd, JsonHandler, Query, Response

__all__ = ["Router", "HashRing"]

#: Worker answers worth retrying on a different worker (the request is
#: idempotent): server errors, shed (503), and deadline (504).
_RETRYABLE_STATUSES = frozenset({500, 502, 503, 504})
#: How long a stopping router waits for its in-flight requests.
_DRAIN_TIMEOUT_S = 10.0
#: Virtual ring points per worker.
_REPLICAS = 64
#: Idle keep-alive connections kept per worker.
_POOL_SIZE = 16


class HashRing:
    """Consistent hash ring over worker ids (sha1 points).

    ``_REPLICAS`` virtual points per worker smooth the key distribution;
    :meth:`ordered` yields every distinct worker starting from the
    request digest's position, which doubles as the retry order.
    """

    def __init__(self, worker_ids: List[str]):
        self.worker_ids = list(worker_ids)
        points: List[Tuple[int, str]] = []
        for worker_id in self.worker_ids:
            for replica in range(_REPLICAS):
                digest = hashlib.sha1(
                    f"{worker_id}#{replica}".encode()).digest()
                points.append((int.from_bytes(digest[:8], "big"),
                               worker_id))
        points.sort()
        self._points = points
        self._hashes = [point[0] for point in points]

    def ordered(self, key: bytes) -> List[str]:
        """Distinct worker ids in ring order starting at ``key``."""
        if not self._points:
            return []
        position = int.from_bytes(
            hashlib.sha1(key).digest()[:8], "big")
        start = bisect.bisect_left(self._hashes, position)
        seen: List[str] = []
        for i in range(len(self._points)):
            worker_id = self._points[(start + i) % len(self._points)][1]
            if worker_id not in seen:
                seen.append(worker_id)
                if len(seen) == len(self.worker_ids):
                    break
        return seen

    def __len__(self) -> int:
        return len(self.worker_ids)


class _WorkerClient:
    """Keep-alive connection pool to one worker.

    A pooled connection can be stale (the worker restarted since the
    last request); the first send over a *reused* connection that dies
    with a disconnect is transparently replayed once on a fresh
    connection.  Timeouts and fresh-connection failures propagate — the
    router decides whether to retry elsewhere.
    """

    def __init__(self, host: str, port: int, timeout_s: float = 10.0):
        self.host = host
        self.port = int(port)
        self.timeout_s = float(timeout_s)
        self._pool: List[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def _checkout(self) -> Tuple[http.client.HTTPConnection, bool]:
        with self._lock:
            if self._pool:
                return self._pool.pop(), True
        return http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s), False

    def _checkin(self, conn: http.client.HTTPConnection) -> None:
        with self._lock:
            if len(self._pool) < _POOL_SIZE:
                self._pool.append(conn)
                return
        conn.close()

    def request(self, method: str, path: str, body: bytes = b"",
                headers: Optional[Dict[str, str]] = None
                ) -> Tuple[int, bytes]:
        send_headers = {"Content-Type": "application/json"}
        if headers:
            send_headers.update(headers)
        conn, reused = self._checkout()
        while True:
            try:
                conn.request(method, path, body=body or None,
                             headers=send_headers)
                response = conn.getresponse()
                data = response.read()
                status = response.status
                will_close = response.will_close
            except (http.client.RemoteDisconnected,
                    *DISCONNECTS) as exc:
                conn.close()
                if reused:
                    # Stale keep-alive connection, not a worker fault:
                    # one replay on a fresh socket.
                    conn = http.client.HTTPConnection(
                        self.host, self.port, timeout=self.timeout_s)
                    reused = False
                    continue
                raise exc
            except Exception:
                conn.close()
                raise
            if will_close:
                conn.close()
            else:
                self._checkin(conn)
            return status, data

    def close(self) -> None:
        with self._lock:
            pool, self._pool = self._pool, []
        for conn in pool:
            conn.close()


class _RouterHandler(JsonHandler):
    """Routes requests to the owning :class:`Router`."""

    def route_get(self, path: str, query: Query) -> Optional[Response]:
        app = self.server.app
        if path == "/healthz":
            payload = app.health()
            return (200 if payload["status"] != "down" else 503), payload
        if path == "/driftz":
            return 200, app.fleet_driftz()
        if path == "/alertz":
            return 200, app.alertz()
        return None

    def route_post(self, path: str, body: bytes) -> Optional[Response]:
        app = self.server.app
        if path == "/reload":
            return app.broadcast_reload(body)
        if path != "/predict":
            return None
        # Root span of the whole distributed request: the routed
        # worker's server.request hangs under one of this trace's
        # router.attempt spans.  Closed *before* the response goes out
        # so an immediate /tracez lookup already sees it.
        parent = TraceContext.parse(self.headers.get("traceparent"))
        with _HUB.trace("router.request", parent=parent,
                        attrs={"path": "/predict"}) as trace:
            self._trace_ctx = trace.ctx
            status, data, headers = app.route_predict(body, trace=trace)
            trace.annotate(status=status)
            if status >= 500:
                trace.set_error(f"HTTP {status}")
        return status, data, headers


class Router(FrontEnd):
    """HTTP front-end routing ``/predict`` across a worker fleet.

    Parameters
    ----------
    fleet:
        A :class:`~repro.serve.fleet.Supervisor` or
        :class:`~repro.serve.fleet.StaticFleet` (anything with
        ``all_workers`` / ``healthy_workers`` / ``describe`` /
        ``stop``).
    host, port:
        Bind address (``port=0`` → ephemeral, tests).
    max_attempts:
        Upper bound on workers tried per request (including the first).
    retry_backoff_s:
        Base of the exponential inter-attempt backoff.
    request_timeout_s:
        Per-attempt socket timeout towards a worker.
    breaker_options:
        Keyword overrides for each worker's
        :class:`~repro.reliability.CircuitBreaker`.
    own_fleet:
        Stop the fleet when the router stops (CLI mode).
    alert_rules:
        Declarative :class:`~repro.telemetry.alerts.AlertRule` list
        evaluated against the *router's* registry (router latency
        quantiles, fault counters, worker up/restart gauges) on
        a background thread while the router runs; exposed at
        ``GET /alertz`` and as ``alert.state.*`` gauges.
    alert_interval_s:
        Background evaluation period for the alert rules.
    """

    handler = _RouterHandler
    thread_name = "fleet-router"
    drain_metric = "fleet.router.drain"

    def __init__(self, fleet: Any, host: str = "127.0.0.1", port: int = 0,
                 max_attempts: int = 3,
                 retry_backoff_s: float = 0.05,
                 request_timeout_s: float = 10.0,
                 breaker_options: Optional[Dict[str, Any]] = None,
                 own_fleet: bool = False,
                 alert_rules: Optional[List[Any]] = None,
                 alert_interval_s: float = 1.0):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.fleet = fleet
        self.max_attempts = int(max_attempts)
        self.retry_backoff_s = float(retry_backoff_s)
        self.request_timeout_s = float(request_timeout_s)
        self.breaker_options = dict(breaker_options or {})
        self.own_fleet = bool(own_fleet)
        self._ring: Optional[HashRing] = None
        self._ring_members: Tuple[str, ...] = ()
        self._clients: Dict[str, _WorkerClient] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._state_lock = threading.Lock()
        self._inflight = 0
        self._idle = threading.Condition()
        super().__init__(host, port, alert_rules, alert_interval_s)

    # ------------------------------------------------------------------
    # Fleet plumbing
    # ------------------------------------------------------------------
    def _ring_for(self, members: List[Tuple[str, Tuple[str, int]]]
                  ) -> HashRing:
        ids = tuple(worker_id for worker_id, _ in members)
        with self._state_lock:
            if self._ring is None or ids != self._ring_members:
                self._ring = HashRing(list(ids))
                self._ring_members = ids
            return self._ring

    def _client(self, worker_id: str, address: Tuple[str, int]
                ) -> _WorkerClient:
        with self._state_lock:
            client = self._clients.get(worker_id)
            if client is None or (client.host, client.port) != address:
                client = _WorkerClient(
                    *address, timeout_s=self.request_timeout_s)
                self._clients[worker_id] = client
            return client

    def breaker(self, worker_id: str) -> CircuitBreaker:
        with self._state_lock:
            breaker = self._breakers.get(worker_id)
            if breaker is None:
                breaker = CircuitBreaker(name=f"worker.{worker_id}",
                                         **self.breaker_options)
                self._breakers[worker_id] = breaker
            return breaker

    # ------------------------------------------------------------------
    # Request routing
    # ------------------------------------------------------------------
    def route_predict(self, body: bytes,
                      trace: Optional[span] = None) -> Response:
        """Route one ``/predict`` body; returns (status, payload, headers).

        The payload is the worker's JSON body, or an error dict when no
        worker answered.  Non-retryable worker answers (2xx, 4xx) pass
        through verbatim — they are the worker's verdict on the request,
        not a worker fault.  ``trace`` (the handler's open root span)
        threads the request id into error payloads, the request log, and
        the latency exemplar; each forwarding attempt opens a
        ``router.attempt`` child span whose context travels to the
        worker as its ``traceparent``.
        """
        registry = get_registry()
        request_id = trace.trace_id if trace is not None else None
        if self.draining:
            registry.inc("fleet.router.draining_rejects")
            return (503, {"error": "router is draining", "retryable": True,
                          "request_id": request_id}, {"Retry-After": "1"})
        with self._idle:
            self._inflight += 1
        t0 = clock()
        status = 500
        try:
            status, data, headers = self._route_predict_inner(body, trace)
            return status, data, headers
        finally:
            latency_ms = 1000.0 * (clock() - t0)
            registry.observe("fleet.router.latency_ms", latency_ms,
                             exemplar=request_id)
            if trace is not None:
                get_request_log().append(
                    path="/predict", status=status, trace_id=request_id,
                    latency_ms=round(latency_ms, 3),
                    error=(f"HTTP {status}" if status >= 500 else None))
            with self._idle:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.notify_all()

    def _route_predict_inner(self, body: bytes,
                             trace: Optional[span] = None
                             ) -> Response:
        registry = get_registry()
        request_id = trace.trace_id if trace is not None else None
        root_ctx = trace.ctx if trace is not None else None
        members = self.fleet.all_workers()
        healthy = dict(self.fleet.healthy_workers())
        ring = self._ring_for(members)
        candidates = [worker_id for worker_id in ring.ordered(body)
                      if worker_id in healthy]
        if not candidates:
            registry.inc("fleet.router.no_backend")
            return (503, {"error": "no healthy worker in rotation",
                          "retryable": True, "request_id": request_id},
                    {"Retry-After": "1"})

        attempts = 0
        last_failure = "all workers refused by circuit breakers"
        for worker_id in candidates:
            if attempts >= self.max_attempts:
                break
            breaker = self.breaker(worker_id)
            if not breaker.allow():
                registry.inc("fleet.router.breaker_skips")
                _HUB.event("router.breaker_skip", {"worker": worker_id})
                continue
            if attempts:
                registry.inc("fleet.router.retries")
                backoff_s = self.retry_backoff_s * (2.0 ** (attempts - 1))
                with span("router.retry_backoff",
                          attrs={"backoff_s": backoff_s}, aggregate=False):
                    time.sleep(backoff_s)
            attempts += 1
            client = self._client(worker_id, healthy[worker_id])
            # The attempt span's context is the traceparent the worker
            # sees, so its server.request hop hangs under *this attempt*
            # (failover retries become sibling attempts in the tree).
            # With tracing disabled the root context still travels —
            # the worker echoes the same request id either way.
            with span("router.attempt",
                      attrs={"worker": worker_id, "attempt": attempts},
                      aggregate=False) as attempt_span:
                fwd_ctx = attempt_span.ctx or root_ctx
                fwd_headers = None
                if fwd_ctx is not None:
                    fwd_headers = {
                        "traceparent": fwd_ctx.to_traceparent(),
                        "X-Trace-Id": fwd_ctx.trace_id}
                try:
                    status, data = client.request(
                        "POST", "/predict", body, headers=fwd_headers)
                except Exception as exc:
                    breaker.record_failure()
                    registry.inc("fleet.router.connect_errors")
                    last_failure = (f"{worker_id}: "
                                    f"{type(exc).__name__}: {exc}")
                    attempt_span.set_error(last_failure)
                    continue
                attempt_span.annotate(status=status)
                if status in _RETRYABLE_STATUSES:
                    breaker.record_failure()
                    registry.inc("fleet.router.upstream_errors")
                    last_failure = f"{worker_id}: HTTP {status}"
                    attempt_span.set_error(last_failure)
                    continue
                breaker.record_success()
            if attempts > 1:
                registry.inc("fleet.router.rerouted")
            return status, data, None
        registry.inc("fleet.router.exhausted")
        return (503, {"error": f"no worker answered after {attempts} "
                               f"attempts (last: {last_failure})",
                      "retryable": True, "request_id": request_id},
                {"Retry-After": "1"})

    def broadcast_reload(self, body: bytes
                         ) -> Tuple[int, Dict[str, Any]]:
        """``POST /reload`` fan-out to every healthy worker.

        Answers 200 only when *every* reached worker accepted the
        reload; any refusal (a worker's 400 for a malformed body, its 409
        for a bad bundle) or connection failure yields 409 with
        per-worker outcomes (workers that already swapped keep the new
        bundle — the caller decides whether to retry or roll back).  The
        body is forwarded verbatim.
        """
        results: Dict[str, Any] = {}
        succeeded = failed = 0
        for worker_id, address in self.fleet.healthy_workers():
            client = self._client(worker_id, address)
            try:
                status, data = client.request("POST", "/reload", body)
                try:
                    payload = json.loads(data.decode("utf-8"))
                except ValueError:
                    payload = {"raw": data.decode("utf-8", "replace")}
                results[worker_id] = {"status": status, **(
                    payload if isinstance(payload, dict) else
                    {"body": payload})}
                if status == 200:
                    succeeded += 1
                else:
                    failed += 1
            except Exception as exc:
                results[worker_id] = {
                    "status": None,
                    "error": f"{type(exc).__name__}: {exc}"}
                failed += 1
        ok = failed == 0 and bool(results)
        if not ok:
            get_registry().inc("fleet.router.reload.rejected")
        return 200 if ok else 409, {"reloaded": ok, "workers": results,
                             "succeeded": succeeded, "failed": failed}

    # ------------------------------------------------------------------
    # Model-quality observability (/driftz)
    # ------------------------------------------------------------------
    def fleet_driftz(self) -> Dict[str, Any]:
        """``GET /driftz``: per-worker drift snapshots + fleet rollup.

        Fans ``GET /driftz`` out to every healthy worker (same pattern
        as :meth:`broadcast_reload`) and aggregates the headline drift
        scalars — worst PSI/z-score across workers, total window
        samples — so one probe answers "is the fleet drifting" without
        scraping each worker.
        """
        workers: Dict[str, Any] = {}
        psi_max = zscore_max = pred_psi = 0.0
        samples = 0
        reporting = 0
        for worker_id, address in self.fleet.healthy_workers():
            client = self._client(worker_id, address)
            try:
                status, data = client.request("GET", "/driftz")
                payload = json.loads(data.decode("utf-8"))
            except Exception as exc:
                workers[worker_id] = {
                    "error": f"{type(exc).__name__}: {exc}"}
                continue
            if status != 200 or not isinstance(payload, dict):
                workers[worker_id] = {"status": status}
                continue
            workers[worker_id] = payload
            if not payload.get("enabled"):
                continue
            reporting += 1
            feature = payload.get("feature") or {}
            prediction = payload.get("prediction") or {}
            psi_max = max(psi_max, float(feature.get("psi_max") or 0.0))
            zscore_max = max(zscore_max,
                             float(feature.get("zscore_max") or 0.0))
            pred_psi = max(pred_psi,
                           float(prediction.get("psi") or 0.0))
            samples += int(payload.get("samples") or 0)
        return {
            "enabled": reporting > 0,
            "fleet": {"feature_psi_max": psi_max,
                      "feature_zscore_max": zscore_max,
                      "prediction_psi": pred_psi,
                      "samples": samples,
                      "workers_reporting": reporting,
                      "workers_probed": len(workers)},
            "workers": workers,
        }

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def health(self) -> Dict[str, Any]:
        fleet = self.fleet.describe()
        up, size = int(fleet.get("up", 0)), int(fleet.get("size", 0))
        if self.draining:
            status = "draining"
        elif up == 0:
            status = "down"
        elif up < size:
            status = "degraded"
        else:
            status = "ok"
        with self._state_lock:
            breakers = {worker_id: breaker.describe()
                        for worker_id, breaker in self._breakers.items()}
        return {
            "status": status,
            "fleet": fleet,
            "breakers": breakers,
            "inflight": self._inflight,
        }

    # ------------------------------------------------------------------
    # Lifecycle (the rest is FrontEnd's)
    # ------------------------------------------------------------------
    def _release(self) -> None:
        """Wait for in-flight requests, close the worker connection
        pools, and stop the fleet when the router owns it."""
        deadline = clock() + _DRAIN_TIMEOUT_S
        with self._idle:
            while self._inflight > 0 and clock() < deadline:
                self._idle.wait(timeout=max(0.0, deadline - clock()))
        with self._state_lock:
            clients = list(self._clients.values())
            self._clients = {}
        for client in clients:
            client.close()
        if self.own_fleet:
            self.fleet.stop()

    def __repr__(self) -> str:
        return (f"Router({self.url}, fleet={len(self._ring_members)} "
                f"members, draining={self.draining})")
