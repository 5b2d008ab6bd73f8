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
  mid-flight.

Endpoints: ``POST /predict`` (routed), ``GET /healthz`` (fleet +
breaker summary), ``GET /tracez`` + ``/requestz`` (the router's own
traces and request log), ``GET /metrics`` (Prometheus text of the router
process registry — which already carries the supervisor's per-worker
up/restart gauges, the breaker state gauges, and the router's own
``fleet.router.*`` counters and latency quantiles), ``GET /driftz``
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
import signal
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from ..reliability.circuit import CircuitBreaker
from ..telemetry import (AlertManager, BurnRateTracker, clock,
                         get_registry, get_request_log, request_span)
from ..telemetry.reqtrace import HUB as _HUB
from ..telemetry.reqtrace import TraceContext, _RequestTrace
from .handler import DISCONNECTS, HTTPServer, JsonHandler, Query, Response

__all__ = ["Router", "HashRing"]

#: Worker answers worth retrying on a different worker (the request is
#: idempotent): server errors, shed (503), and deadline (504).
_RETRYABLE_STATUSES = frozenset({500, 502, 503, 504})


class HashRing:
    """Consistent hash ring over worker ids (sha1 points).

    ``replicas`` virtual points per worker smooth the key distribution;
    :meth:`ordered` yields every distinct worker starting from the
    request digest's position, which doubles as the retry order.
    """

    def __init__(self, worker_ids: List[str], replicas: int = 64):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = int(replicas)
        self.worker_ids = list(worker_ids)
        points: List[Tuple[int, str]] = []
        for worker_id in self.worker_ids:
            for replica in range(self.replicas):
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

    def __init__(self, host: str, port: int, timeout_s: float = 10.0,
                 pool_size: int = 16):
        self.host = host
        self.port = int(port)
        self.timeout_s = float(timeout_s)
        self.pool_size = int(pool_size)
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
            if len(self._pool) < self.pool_size:
                self._pool.append(conn)
                return
        conn.close()

    def request(self, method: str, path: str, body: bytes = b"",
                content_type: str = "application/json",
                headers: Optional[Dict[str, str]] = None
                ) -> Tuple[int, bytes]:
        send_headers = {"Content-Type": content_type}
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
                    get_registry().inc("fleet.router.stale_connections")
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

    requests_metric = "fleet.router.http.requests"

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


class Router:
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
    replicas:
        Virtual ring points per worker.
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
    slo_objective:
        Availability/latency success objective for the burn-rate
        trackers (fraction of requests that must succeed / meet the
        latency target); exported as ``fleet.slo.*`` gauges.
    slo_latency_ms:
        Latency target a request must meet to count as "fast" for the
        latency SLO.
    alert_rules:
        Declarative :class:`~repro.telemetry.alerts.AlertRule` list
        evaluated against the *router's* registry (fleet SLO burn
        gauges, router latency quantiles, worker up/restart gauges) on
        a background thread while the router runs; exposed at
        ``GET /alertz`` and as ``alert.state.*`` gauges.
    alert_interval_s:
        Background evaluation period for the alert rules.
    """

    def __init__(self, fleet: Any, host: str = "127.0.0.1", port: int = 0,
                 replicas: int = 64, max_attempts: int = 3,
                 retry_backoff_s: float = 0.05,
                 request_timeout_s: float = 10.0,
                 breaker_options: Optional[Dict[str, Any]] = None,
                 own_fleet: bool = False,
                 slo_objective: float = 0.999,
                 slo_latency_ms: float = 250.0,
                 alert_rules: Optional[List[Any]] = None,
                 alert_interval_s: float = 1.0):
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.fleet = fleet
        self.replicas = int(replicas)
        self.max_attempts = int(max_attempts)
        self.retry_backoff_s = float(retry_backoff_s)
        self.request_timeout_s = float(request_timeout_s)
        self.breaker_options = dict(breaker_options or {})
        self.own_fleet = bool(own_fleet)
        self.slo_latency_ms = float(slo_latency_ms)
        self.slo_availability = BurnRateTracker(objective=slo_objective)
        self.slo_latency = BurnRateTracker(objective=slo_objective)
        self.alerts = (AlertManager(list(alert_rules))
                       if alert_rules else None)
        self.alert_interval_s = float(alert_interval_s)
        self.draining = False
        self._ring: Optional[HashRing] = None
        self._ring_members: Tuple[str, ...] = ()
        self._clients: Dict[str, _WorkerClient] = {}
        self._breakers: Dict[str, CircuitBreaker] = {}
        self._state_lock = threading.Lock()
        self._inflight = 0
        self._idle = threading.Condition()
        self._httpd = HTTPServer((host, port), _RouterHandler, self)
        self._thread: Optional[threading.Thread] = None
        self._started = False

    # ------------------------------------------------------------------
    # Fleet plumbing
    # ------------------------------------------------------------------
    def _ring_for(self, members: List[Tuple[str, Tuple[str, int]]]
                  ) -> HashRing:
        ids = tuple(worker_id for worker_id, _ in members)
        with self._state_lock:
            if self._ring is None or ids != self._ring_members:
                self._ring = HashRing(list(ids), replicas=self.replicas)
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
                      trace: Optional[_RequestTrace] = None) -> Response:
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
            self._record_slo(503, 0.0)
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
            self._record_slo(status, latency_ms)
            if trace is not None:
                get_request_log().append(
                    path="/predict", status=status, trace_id=request_id,
                    latency_ms=round(latency_ms, 3),
                    error=(f"HTTP {status}" if status >= 500 else None))
            with self._idle:
                self._inflight -= 1
                if self._inflight == 0:
                    self._idle.notify_all()

    def _record_slo(self, status: int, latency_ms: float) -> None:
        """Feed the burn-rate trackers and refresh the SLO gauges.

        Availability counts any non-5xx answer as success (4xx is the
        client's fault, not the fleet's); the latency SLO counts
        successful answers under ``slo_latency_ms``.
        """
        registry = get_registry()
        ok = status < 500
        self.slo_availability.record(ok)
        self.slo_latency.record(ok and latency_ms <= self.slo_latency_ms)
        registry.set_gauge("fleet.slo.availability.burn_fast",
                           self.slo_availability.burn_rate(
                               self.slo_availability.fast_window_s))
        registry.set_gauge("fleet.slo.availability.burn_slow",
                           self.slo_availability.burn_rate(
                               self.slo_availability.slow_window_s))
        registry.set_gauge("fleet.slo.latency.burn_fast",
                           self.slo_latency.burn_rate(
                               self.slo_latency.fast_window_s))
        registry.set_gauge("fleet.slo.latency.burn_slow",
                           self.slo_latency.burn_rate(
                               self.slo_latency.slow_window_s))

    def _route_predict_inner(self, body: bytes,
                             trace: Optional[_RequestTrace] = None
                             ) -> Response:
        registry = get_registry()
        registry.inc("fleet.router.requests")
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
                with request_span("router.retry_backoff",
                                  backoff_s=backoff_s):
                    time.sleep(backoff_s)
            attempts += 1
            client = self._client(worker_id, healthy[worker_id])
            # The attempt span's context is the traceparent the worker
            # sees, so its server.request hop hangs under *this attempt*
            # (failover retries become sibling attempts in the tree).
            # With tracing disabled the root context still travels —
            # the worker echoes the same request id either way.
            with request_span("router.attempt", worker=worker_id,
                              attempt=attempts) as attempt_span:
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

        By default answers 200 only when *every* reached worker accepted
        the reload; any 409/connection failure yields 409 with
        per-worker outcomes (workers that already swapped keep the new
        bundle — the caller decides whether to retry or roll back).

        A JSON body with ``"partial": "allow"`` switches to
        best-effort semantics: as long as *at least one* worker accepts,
        the fan-out answers **207** (Multi-Status) with the same
        per-worker breakdown, and only an all-workers failure is a 409.
        This is what a rolling online-learning promotion wants — a
        single wedged worker should not veto the fleet; it catches up on
        its next reload.  The ``partial`` key is stripped before
        forwarding (workers would reject an unknown key).
        """
        partial = False
        if body.strip():
            try:
                payload = json.loads(body.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                payload = None  # let the workers produce the 400
            if isinstance(payload, dict) and "partial" in payload:
                mode = payload.pop("partial")
                if mode not in ("allow", "deny"):
                    return 400, {"error": f"partial must be 'allow' or "
                                          f"'deny', got {mode!r}"}
                partial = mode == "allow"
                body = json.dumps(payload).encode("utf-8")
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
        registry = get_registry()
        if ok:
            registry.inc("fleet.router.reload.success")
            http_status = 200
        elif partial and succeeded:
            registry.inc("fleet.router.reload.partial")
            http_status = 207
        else:
            registry.inc("fleet.router.reload.rejected")
            http_status = 409
        return http_status, {"reloaded": ok, "workers": results,
                             "succeeded": succeeded, "failed": failed}

    # ------------------------------------------------------------------
    # Model-quality observability (/driftz, /alertz)
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
        registry = get_registry()
        registry.set_gauge("fleet.quality.psi_max", psi_max)
        registry.set_gauge("fleet.quality.prediction_psi", pred_psi)
        registry.set_gauge("fleet.quality.workers_reporting",
                           float(reporting))
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

    def alertz(self) -> Dict[str, Any]:
        """``GET /alertz``: evaluate-now snapshot of the router rules."""
        if self.alerts is None:
            return {"enabled": False, "rules": [], "firing": []}
        self.alerts.evaluate()
        return self.alerts.snapshot()

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
            "slo": {
                "latency_target_ms": self.slo_latency_ms,
                "availability": self.slo_availability.summary(),
                "latency": self.slo_latency.summary(),
            },
        }

    @property
    def address(self) -> Tuple[str, int]:
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> "Router":
        if self._thread is not None:
            raise RuntimeError("router already started")
        self._started = True
        self._start_alerts()
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="fleet-router",
            daemon=True)
        self._thread.start()
        return self

    def _start_alerts(self) -> None:
        if self.alerts is not None and self.alerts._thread is None:
            self.alerts.start(self.alert_interval_s)

    def serve_forever(self) -> None:
        """Serve on the calling thread (CLI); SIGTERM/SIGINT drain."""
        self._started = True
        self.install_signal_handlers()
        self._start_alerts()
        try:
            self._httpd.serve_forever()
        finally:
            self.stop()

    def install_signal_handlers(self) -> bool:
        if threading.current_thread() is not threading.main_thread():
            return False

        def _on_term(signum, frame):  # pragma: no cover - signal path
            self.drain()

        try:
            signal.signal(signal.SIGTERM, _on_term)
        except (ValueError, OSError, AttributeError):
            return False
        return True

    def drain(self) -> None:
        """Graceful shutdown trigger (signal-safe, returns at once)."""
        if self.draining:
            return
        self.draining = True
        get_registry().inc("fleet.router.drain")
        threading.Thread(target=self.stop, name="fleet-router-drain",
                         daemon=True).start()

    def stop(self, drain_timeout_s: float = 10.0) -> None:
        """Stop accepting, flush in-flight requests, stop the fleet."""
        self.draining = True
        if self.alerts is not None:
            self.alerts.stop()
        if self._started:
            self._httpd.shutdown()
        self._httpd.server_close()
        deadline = clock() + drain_timeout_s
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
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def __enter__(self) -> "Router":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def __repr__(self) -> str:
        return (f"Router({self.url}, fleet={len(self._ring_members)} "
                f"members, draining={self.draining})")
