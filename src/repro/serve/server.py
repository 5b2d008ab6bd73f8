"""Stdlib HTTP model server: /predict, /healthz, /metrics.

:class:`ModelServer` wires an :class:`~repro.serve.engine.InferenceEngine`
behind a :class:`~repro.serve.batching.MicroBatcher` and exposes it over
``http.server`` (zero dependencies; ``ThreadingHTTPServer`` gives one
handler thread per connection, which is exactly what feeds the
micro-batcher concurrent submits to coalesce).

Endpoints
---------
``POST /predict``
    Body ``{"features": [[...], ...]}`` (one row per sample; a single
    flat list is treated as one sample).  Response
    ``{"labels": [...], "model": <config fingerprint>}`` — the
    fingerprint of the engine snapshot that *computed the labels*
    (a list if a hot reload split the request across two models).
    Degradation mapping: admission-control rejection → **503** with
    ``Retry-After``; per-request deadline expiry → **504**; malformed
    input → **400**; engine failure → **500**.
``GET /healthz``
    Engine + batcher + shedder facts as JSON (status ``ok`` /
    ``shedding`` / ``draining``), plus the bundle identity (version,
    config fingerprint, path) and the engine mode (``packed`` /
    ``float``) so a fleet supervisor can detect a torn or wrong-version
    worker.  ``?deep=1`` additionally runs the engine selfcheck and
    reports ``selfcheck`` (a failing selfcheck answers **500** so
    health-gated routing drops the worker).
``GET /metrics``
    Prometheus text exposition of the process-global telemetry registry
    (the same counters/histograms the batcher and engine populate).
``GET /driftz``
    Model-quality snapshot from the engine's streaming
    :class:`~repro.telemetry.quality.DriftMonitor` (feature PSI /
    z-scores vs the training baseline, prediction skew, margin and
    confidence histograms, HV saturation); ``{"enabled": false}`` when
    the bundle carries no quality baseline.
``GET /alertz``
    Evaluate-now snapshot of the declarative alert rules
    (:mod:`repro.telemetry.alerts`): per-rule state machine
    (inactive/pending/firing/resolved), firing list, recent
    transitions.
``POST /slow`` (chaos builds only)
    Fault-injection stall: ``{"stall_s": 2.5}`` wedges ``/predict`` and
    ``/healthz`` for the given duration, simulating a hung worker for
    the chaos harness.  Only routed when the server was built with
    ``chaos=True`` (the CLI's ``--chaos``); otherwise 404.

``GET /metrics``, ``/tracez`` and ``/requestz``, one-write responses,
request-id echo, ``Content-Length`` checks and client-disconnect
counting come from the handler base shared with the fleet router, and
the listener lifecycle from :class:`~repro.serve.handler.FrontEnd`
(:mod:`~repro.serve.handler`).  ``SIGTERM`` triggers a graceful drain:
stop accepting, answer everything queued in the micro-batcher, then
exit — the same code path a fleet supervisor uses to stop a worker.
``SIGHUP`` hot-reloads the bundle.
"""

from __future__ import annotations

import json
import signal
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..reliability.degrade import (DeadlineExceededError, LoadShedder,
                                   OverloadShedError)
from ..telemetry import clock, get_registry, get_request_log
from ..telemetry.reqtrace import HUB as _HUB
from ..telemetry.reqtrace import TraceContext
from .batching import MicroBatcher
from .bundle import BundleError
from .engine import EngineSelfCheckError, InferenceEngine
from .handler import FrontEnd, JsonHandler, Query, Response, json_floats

__all__ = ["ModelServer", "RequestError", "ReloadError"]


class ReloadError(RuntimeError):
    """A hot reload was requested but could not be satisfied."""


class RequestError(ValueError):
    """Client-side error (malformed JSON / wrong feature shape): HTTP 400."""


class _Handler(JsonHandler):
    """Routes requests to the owning :class:`ModelServer`."""

    def route_get(self, path: str, query: Query) -> Optional[Response]:
        app = self.server.app
        # Probe endpoints are *not* traced (a supervisor heartbeats
        # /healthz several times a second — root spans for those would
        # churn the flight recorder), but every response still echoes a
        # request id.
        if path == "/healthz":
            app._maybe_stall()
            deep = query.get("deep", ["0"])[-1] not in ("0", "", "false")
            payload = app.health(deep=deep)
            return (200 if payload["status"] != "selfcheck_failed"
                    else 500), payload
        if path == "/driftz":
            return 200, app.driftz()
        if path == "/alertz":
            return 200, app.alertz()
        if path == "/onlinez":
            return 200, app.onlinez()
        return None

    def route_post(self, path: str, body: bytes) -> Optional[Response]:
        app = self.server.app
        if path == "/predict":
            return self._do_predict(app, body)
        if path == "/reload":
            return self._do_reload(app, body)
        if path == "/feedback":
            return self._do_feedback(app, body)
        if path == "/promote":
            return self._do_promote(app)
        if path == "/slow" and app.chaos:
            return self._do_slow(app, body)
        return None

    def _do_predict(self, app: "ModelServer", body: bytes) -> Response:
        registry = get_registry()
        # Root span of this worker's part of the request.  The client's
        # traceparent (router or external) becomes the parent, so the
        # cross-process stitcher hangs this hop under the router's
        # attempt span.  Works with tracing disabled too — the context
        # still carries the request id every response echoes.  The
        # response is sent AFTER the root span closes, so by the time
        # the client holds its trace id the flight recorder has already
        # retained the trace — an immediate /tracez lookup cannot race
        # the request it is looking for.
        client_parent = TraceContext.parse(self.headers.get("traceparent"))
        headers = None
        with _HUB.trace("server.request",
                        parent=client_parent,
                        attrs={"path": "/predict"}) as trace:
            self._trace_ctx = trace.ctx
            t0 = clock()
            n_rows = 0
            try:
                app._maybe_stall()
                features = _parse_features(body, app.engine.in_features)
                n_rows = len(features)
                labels, models = app.predict(features,
                                             trace_ctx=trace.ctx)
            except RequestError as exc:
                registry.inc("serve.http.bad_request")
                status, payload = 400, {"error": str(exc),
                                        "request_id": trace.trace_id}
            except OverloadShedError as exc:
                status, payload = 503, {
                    "error": str(exc), "retryable": True,
                    "request_id": exc.request_id or trace.trace_id,
                    "model": exc.model}
                headers = {"Retry-After": "1"}
            except DeadlineExceededError as exc:
                status, payload = 504, {
                    "error": str(exc), "retryable": True,
                    "request_id": exc.request_id or trace.trace_id,
                    "model": exc.model}
            except Exception as exc:  # engine failure
                registry.inc("serve.http.internal_error")
                status, payload = 500, {
                    "error": f"{type(exc).__name__}: {exc}",
                    "request_id": trace.trace_id}
            else:
                if app.online is not None:
                    # Retain single-row request features so feedback can
                    # reference them by request_id instead of re-upload.
                    app.online.remember(trace.trace_id, features)
                status, payload = 200, {
                    "labels": [int(label) for label in labels],
                    "model": models[0] if len(models) == 1 else models,
                    "request_id": trace.trace_id,
                }
            error_text = payload.get("error")
            latency_ms = 1000.0 * (clock() - t0)
            # The P99 exemplar points at a real recent trace: a slow
            # /metrics scrape can be chased into /tracez directly.
            registry.observe("serve.latency_ms", latency_ms,
                             exemplar=trace.trace_id)
            trace.annotate(status=status, rows=n_rows)
            # A client's 4xx is logged, not kept as a server error: the
            # flight recorder's error ring is for this worker's faults.
            if status >= 500:
                trace.set_error(error_text)
            get_request_log().append(
                path="/predict", status=status, trace_id=trace.trace_id,
                latency_ms=round(latency_ms, 3), rows=n_rows,
                error=error_text)
        return status, payload, headers

    def _do_reload(self, app: "ModelServer", body: bytes) -> Response:
        """``POST /reload``: swap in a re-verified bundle (or refuse).

        An optional JSON body ``{"bundle": "path.npz"}`` points the
        server at a *new* artifact; otherwise the configured
        ``bundle_path`` is re-read.  Any other key, or a path that is
        not a string, is a **400** and nothing is reloaded.  A torn,
        invalid, or incompatible bundle returns **409** and the old
        engine keeps serving.
        """
        registry = get_registry()
        try:
            path = None
            if body.strip():
                try:
                    payload = json.loads(body.decode("utf-8"))
                except (ValueError, UnicodeDecodeError) as exc:
                    raise RequestError(
                        f"reload body is not valid JSON: {exc}") from exc
                if not (isinstance(payload, dict)
                        and set(payload) <= {"bundle"}
                        and isinstance(payload.get("bundle", ""), str)):
                    raise RequestError(
                        'reload body must be {"bundle": "path"}, got '
                        f"{json.dumps(payload)[:200]}")
                path = payload.get("bundle")
            info = app.reload(path)
        except RequestError as exc:
            registry.inc("serve.http.bad_request")
            return 400, {"error": str(exc)}
        except ReloadError as exc:
            registry.inc("serve.reload.rejected")
            return 409, {"error": str(exc), "reloaded": False}
        return 200, info

    def _do_feedback(self, app: "ModelServer", body: bytes) -> Response:
        """``POST /feedback``: guarded shadow-model update from a label.

        Body: ``{"label": k, "features": [...]}`` or ``{"label": k,
        "request_id": "<id from /predict>"}``.  Updates only the
        *shadow* copy — the live engine is untouched until a promotion
        passes every gate.  404 when online learning is disabled or the
        request_id fell out of the window, 422 when the numerics guard
        vetoes the payload, 429 when rate-limited.
        """
        registry = get_registry()
        registry.inc("serve.feedback.requests")
        if app.online is None:
            return 404, {"error": "online learning is not enabled on "
                                  "this server"}
        try:
            payload = json.loads(body.decode("utf-8"))
            if not isinstance(payload, dict):
                raise ValueError("feedback body must be a JSON object")
        except (ValueError, UnicodeDecodeError) as exc:
            registry.inc("serve.feedback.bad_request")
            return 400, {"error": f"invalid feedback body: {exc}"}
        try:
            status, answer = app.online.feedback(payload)
        except Exception as exc:  # defensive: keep the worker alive
            registry.inc("serve.http.internal_error")
            return 500, {"error": f"{type(exc).__name__}: {exc}"}
        if status == 400:
            registry.inc("serve.feedback.bad_request")
        return status, answer, ({"Retry-After": "1"} if status == 429
                                else None)

    def _do_promote(self, app: "ModelServer") -> Response:
        """``POST /promote``: run the promotion gates right now.

        Evaluation on demand — the gates still apply; this cannot force
        an unqualified shadow into production.  Returns the full
        decision record (also retained on ``/onlinez``).
        """
        if app.online is None:
            return 404, {"error": "online learning is not enabled on "
                                  "this server"}
        try:
            return 200, app.online.try_promote()
        except Exception as exc:  # defensive: keep the worker alive
            get_registry().inc("serve.http.internal_error")
            return 500, {"error": f"{type(exc).__name__}: {exc}"}

    def _do_slow(self, app: "ModelServer", body: bytes) -> Response:
        """``POST /slow`` (chaos builds): wedge the worker for a while."""
        try:
            stall_s = float(json.loads(body.decode("utf-8"))["stall_s"])
            if not 0.0 <= stall_s <= 120.0:
                raise ValueError(f"stall_s out of range: {stall_s}")
        except (KeyError, TypeError, ValueError,
                UnicodeDecodeError) as exc:
            return 400, {"error": f'expected {{"stall_s": s}}: {exc}'}
        app.stall(stall_s)
        return 200, {"stalled_s": stall_s}


def _parse_features(body: bytes, width: int) -> np.ndarray:
    """Decode and shape-check the /predict request body (``width``
    raw features per row)."""
    try:
        payload = json.loads(body.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise RequestError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict) or "features" not in payload:
        raise RequestError('request body must be {"features": [...]}')
    try:
        features = json_floats(payload["features"])
    except (TypeError, ValueError) as exc:
        raise RequestError(f"features are not numeric: {exc}") from exc
    if features.ndim == 1:
        features = features[None, :]
    if features.ndim != 2 or features.size == 0:
        raise RequestError(
            f"features must be a (n, F) matrix, got shape "
            f"{features.shape}")
    if features.shape[1] != width:
        raise RequestError(f"features have {features.shape[1]} columns, "
                           f"the model takes {width}")
    if not np.isfinite(features).all():
        raise RequestError("features contain NaN/Inf")
    return features


class ModelServer(FrontEnd):
    """HTTP front end around an engine + micro-batcher.

    Parameters
    ----------
    engine:
        The :class:`InferenceEngine` to serve.
    host, port:
        Bind address; ``port=0`` picks an ephemeral port (tests).
    max_batch_size, max_latency_ms, workers:
        Micro-batcher tuning (see :class:`MicroBatcher`).
    high_watermark:
        Queue depth at which admission control starts shedding
        (hysteresis down to ``high_watermark // 2``); ``None`` disables
        shedding.
    timeout_s:
        Default per-request deadline inside the batcher.
    bundle_path:
        Where this server's bundle lives on disk.  Enables hot reload
        (``POST /reload`` / SIGHUP): the path is re-verified and a fresh
        engine is atomically swapped behind the batcher.
    engine_options:
        Keyword arguments for the :class:`InferenceEngine` built on
        reload (``cache_size``, ``use_packed``, ...).  Defaults to the
        current engine's cache capacity with packed auto-selection.
    chaos:
        Route the fault-injection ``POST /slow`` endpoint (never enable
        outside tests/chaos harnesses).
    alert_rules:
        Declarative :class:`~repro.telemetry.alerts.AlertRule` list
        evaluated against the metrics registry on a background thread
        while the server runs (and on every ``GET /alertz``); rule
        states are also published as ``alert.state.*`` gauges in
        ``/metrics``.  ``None``/empty disables alerting.
    alert_interval_s:
        Background evaluation period for the alert rules.
    online_options:
        Keyword arguments for an :class:`~repro.online.OnlineLearner`
        riding this server (the ``[online]`` config section): enables
        ``POST /feedback`` guarded shadow-model updates, ``GET
        /onlinez``, and gated atomic promotion through ``POST
        /promote`` / auto-promotion.  ``None`` (the default) disables
        online learning entirely; ``{}`` enables it with defaults.
    """

    handler = _Handler
    thread_name = "model-server"
    drain_metric = "serve.drain"

    def __init__(self, engine: InferenceEngine, host: str = "127.0.0.1",
                 port: int = 0, max_batch_size: int = 32,
                 max_latency_ms: float = 5.0, workers: int = 2,
                 high_watermark: Optional[int] = 128,
                 timeout_s: Optional[float] = 5.0,
                 bundle_path: Optional[str] = None,
                 engine_options: Optional[Dict[str, Any]] = None,
                 chaos: bool = False,
                 alert_rules: Optional[list] = None,
                 alert_interval_s: float = 1.0,
                 online_options: Optional[Dict[str, Any]] = None):
        self.engine = engine
        self.bundle_path = bundle_path
        self.chaos = bool(chaos)
        self._stall_until = 0.0
        if engine_options is None:
            # Test doubles may not implement the full engine surface;
            # fall back to engine defaults on reload in that case.
            cache_info = getattr(engine, "cache_info", None)
            engine_options = ({"cache_size": cache_info()["max_entries"]}
                              if callable(cache_info) else {})
        self.engine_options = dict(engine_options)
        self.reloads = 0
        self.last_reload_ts: Optional[float] = None
        self.started_at = time.time()
        self._reload_lock = threading.Lock()
        self.shedder = (LoadShedder(high_watermark)
                        if high_watermark else None)
        # The batcher calls through ``_predict_batch`` (which reads
        # ``self.engine`` per batch) instead of a bound method, so a hot
        # reload only has to swap the attribute — in-flight batches
        # finish on whichever engine they started with.
        bundle = getattr(engine, "bundle", None)
        model_label = (bundle.info.get("pipeline")
                       if bundle is not None else None)
        self.batcher = MicroBatcher(
            self._predict_batch, max_batch_size=max_batch_size,
            max_latency_ms=max_latency_ms, workers=workers,
            shedder=self.shedder, default_timeout_s=timeout_s,
            model_label=model_label)
        self.online = None
        if online_options is not None:
            # Imported lazily: repro.online imports serve.bundle types
            # through the learner, so a module-level import here would
            # cycle.
            from ..online import OnlineLearner
            self.online = OnlineLearner(self, **online_options)
        super().__init__(host, port, alert_rules, alert_interval_s)

    def _predict_batch(self, features: np.ndarray):
        # Snapshot the engine ONCE per batch: the labels and the
        # fingerprint the handler reports must come from the same
        # model, even if a concurrent /reload swaps ``self.engine``
        # between dispatch and response assembly.
        engine = self.engine
        labels = engine.predict_features(features)
        return labels, engine.bundle.info.get("config_fingerprint")

    # ------------------------------------------------------------------
    def predict(self, features: np.ndarray,
                trace_ctx: Optional[TraceContext] = None
                ) -> Tuple[List[int], List[Any]]:
        """Route the request through the micro-batcher (blocking).

        All rows of a multi-sample request are enqueued atomically so
        the workers can batch them together (and with rows from other
        concurrent connections).  Returns ``(labels, models)`` where
        ``models`` lists the distinct config fingerprints of the engine
        snapshots that computed the rows (one entry unless a hot reload
        landed mid-request).  ``trace_ctx`` rides into the batcher so
        queue/dispatch spans (and shed/deadline request ids) attach to
        the HTTP request's trace even when called from a non-traced
        thread.
        """
        results = self.batcher.submit(features, trace_ctx=trace_ctx)
        labels = [label for label, _ in results]
        models = []
        for _, fingerprint in results:
            if fingerprint not in models:
                models.append(fingerprint)
        return labels, models

    # -- chaos stall (test-only fault injection) -----------------------
    def stall(self, stall_s: float) -> None:
        """Wedge ``/predict`` and ``/healthz`` for ``stall_s`` seconds
        (chaos harness: simulates a hung worker that a supervisor's
        probe timeout must catch)."""
        self._stall_until = clock() + float(stall_s)

    def _maybe_stall(self) -> None:
        while self.chaos and clock() < self._stall_until:
            time.sleep(0.05)

    def health(self, deep: bool = False) -> Dict[str, Any]:
        """Health facts; ``deep=True`` also runs the engine selfcheck.

        The shallow probe is what a supervisor heartbeats (cheap, no
        engine work); the deep probe re-proves the packed fast path
        against the float reference — the reload tests and the fleet's
        post-restart readiness check both use it.
        """
        shedding = bool(self.shedder is not None and self.shedder.shedding)
        status = "ok"
        if shedding:
            status = "shedding"
        if self.draining:
            status = "draining"
        info = self.engine.bundle.info
        payload = {
            "status": status,
            "engine": self.engine.describe(),
            # getattr: engines are duck-typed (façades/wrappers may not
            # carry the packed-path flag).
            "mode": ("packed" if getattr(self.engine, "use_packed", False)
                     else "float"),
            "bundle": {
                "version": info.get("bundle_version"),
                "fingerprint": info.get("config_fingerprint"),
                "pipeline": info.get("pipeline"),
                "path": self.bundle_path,
            },
            "reloads": self.reloads,
            "batcher": {"depth": self.batcher.depth,
                        **self.batcher.stats},
            "shedder": (None if self.shedder is None
                        else {"high": self.shedder.high_watermark,
                              "low": self.shedder.low_watermark,
                              "shedding": shedding,
                              **self.shedder.stats}),
        }
        if deep:
            try:
                self.engine.selfcheck()
            except Exception as exc:
                payload["status"] = "selfcheck_failed"
                payload["selfcheck"] = f"{type(exc).__name__}: {exc}"
            else:
                payload["selfcheck"] = "ok"
            # Operator-facing engine vitals: a cold cache, a packed
            # path that silently fell back to float, or an engine still
            # serving a stale bundle are all visible here without a
            # /metrics scrape.
            cache_info = getattr(self.engine, "cache_info", None)
            cache = cache_info() if callable(cache_info) else {}
            lookups = cache.get("hits", 0) + cache.get("misses", 0)
            payload["engine_vitals"] = {
                "cache_hit_rate": (cache["hits"] / lookups
                                   if lookups else None),
                "cache_entries": cache.get("entries", 0),
                "packed_path": bool(getattr(self.engine, "use_packed",
                                            False)),
                "quality_monitor": getattr(self.engine, "quality",
                                           None) is not None,
                "last_reload_ts": self.last_reload_ts,
                "started_at": self.started_at,
                "uptime_s": time.time() - self.started_at,
            }
        return payload

    # ------------------------------------------------------------------
    # Model-quality observability (/driftz)
    # ------------------------------------------------------------------
    def driftz(self) -> Dict[str, Any]:
        """``GET /driftz`` body: the engine's drift-monitor snapshot."""
        monitor = getattr(self.engine, "quality", None)
        if monitor is None:
            return {"enabled": False}
        return monitor.snapshot()

    def onlinez(self) -> Dict[str, Any]:
        """``GET /onlinez`` body: online-learning status + last decision."""
        if self.online is None:
            return {"enabled": False}
        return self.online.status()

    # ------------------------------------------------------------------
    # Hot reload
    # ------------------------------------------------------------------
    def reload(self, bundle_path: Optional[str] = None) -> Dict[str, Any]:
        """Atomically swap in an engine built from a fresh bundle read.

        The new bundle is read once, then CRC-verified, structurally
        validated and engine-constructed (including the packed-path
        selfcheck) *before* the swap.  The engine starts at the feature
        interface: requests carry features, so no CNN trunk is built.
        Any failure raises :class:`ReloadError` and the old engine keeps
        serving untouched.  Returns a summary dict (also the ``POST /reload``
        response body).
        """
        path = bundle_path or self.bundle_path
        if not path:
            raise ReloadError(
                "no bundle path configured — start the server with "
                "bundle_path= (or POST {\"bundle\": \"path\"})")
        with self._reload_lock:
            try:
                engine = InferenceEngine.from_path(
                    path, build_extractor=False, **self.engine_options)
            except (BundleError, EngineSelfCheckError, OSError) as exc:
                raise ReloadError(
                    f"reload of {path!r} rejected "
                    f"({type(exc).__name__}: {exc}); "
                    "previous engine keeps serving") from exc
            old_fingerprint = self.engine.bundle.info.get(
                "config_fingerprint")
            self.engine = engine  # atomic swap behind _predict_batch
            self.bundle_path = path
            self.reloads += 1
            self.last_reload_ts = time.time()
            get_registry().inc("serve.reload.success")
        return {
            "reloaded": True,
            "reloads": self.reloads,
            "bundle_path": path,
            "previous_fingerprint": old_fingerprint,
            "engine": engine.describe(),
        }

    # ------------------------------------------------------------------
    # Lifecycle (the rest is FrontEnd's)
    # ------------------------------------------------------------------
    def _signal_handlers(self):
        """``SIGTERM`` → drain, plus ``SIGHUP`` → :meth:`reload`.

        A failed reload from a signal never propagates: the old engine
        keeps serving and the rejection is counted in
        ``serve.reload.rejected``.
        """
        def _on_hup(signum, frame):  # pragma: no cover - signal path
            try:
                self.reload()
            except ReloadError:
                get_registry().inc("serve.reload.rejected")

        return {**super()._signal_handlers(), signal.SIGHUP: _on_hup}

    def _release(self) -> None:
        """Answer everything queued in the micro-batcher, then stop its
        workers (see :meth:`MicroBatcher.shutdown`)."""
        self.batcher.shutdown()
