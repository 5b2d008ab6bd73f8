"""Serving-path tracing: id echo, propagation, batcher/router spans,
/tracez + /requestz."""

import http.client
import json
import threading
import time

import numpy as np
import pytest

from repro.reliability import (DeadlineExceededError, LoadShedder,
                               OverloadShedError)
from repro.serve import (InferenceEngine, MicroBatcher, ModelServer,
                         Router, StaticFleet, free_port)
from repro.telemetry import (TraceContext, disable_request_tracing,
                             enable_request_tracing, get_flight_recorder,
                             get_registry, get_request_log,
                             read_trace_jsonl)


def http_request(host, port, method, path, body=None, headers=None,
                 timeout=30.0):
    """(status, parsed json, response headers) without raising on 4xx."""
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        conn.request(method, path, body, headers or {})
        response = conn.getresponse()
        raw = response.read()
        try:
            parsed = json.loads(raw.decode("utf-8")) if raw else {}
        except ValueError:
            parsed = {}
        return response.status, parsed, dict(response.getheaders())
    finally:
        conn.close()


def predict(address, payload, headers=None):
    body = json.dumps(payload).encode("utf-8")
    send = {"Content-Type": "application/json"}
    send.update(headers or {})
    return http_request(address[0], address[1], "POST", "/predict",
                        body, send)


@pytest.fixture
def traced():
    """Request tracing on (recorder + request log, no JSONL export)."""
    enable_request_tracing(service="test-worker")
    yield get_flight_recorder()
    disable_request_tracing()


@pytest.fixture
def server(synthetic_bundle):
    engine = InferenceEngine(synthetic_bundle(seed=77), cache_size=0)
    with ModelServer(engine, port=0, max_batch_size=16,
                     max_latency_ms=1.0, workers=2) as srv:
        yield srv


class TestServerTracing:
    def test_predict_traced_end_to_end(self, traced, server):
        rng = np.random.default_rng(7)
        status, payload, headers = predict(
            server.address, {"features": rng.standard_normal(32).tolist()})
        assert status == 200
        trace_id = headers.get("X-Trace-Id")
        assert trace_id and len(trace_id) == 32
        assert headers.get("traceparent", "").split("-")[1] == trace_id
        assert payload["request_id"] == trace_id

        found = traced.lookup(trace_id)
        assert found is not None
        names = {s["name"] for s in found["spans"]}
        assert {"server.request", "serve.batcher.queue",
                "serve.batcher.dispatch", "serve.predict"} <= names
        assert any(n.startswith("stage.") for n in names)
        root = found["tree"][0]["span"]
        assert root["name"] == "server.request"
        assert root["service"] == "test-worker"

    def test_client_traceparent_propagates(self, traced, server):
        upstream = TraceContext.mint()
        rng = np.random.default_rng(8)
        status, payload, headers = predict(
            server.address,
            {"features": rng.standard_normal(32).tolist()},
            {"traceparent": upstream.to_traceparent()})
        assert status == 200
        assert headers["X-Trace-Id"] == upstream.trace_id
        found = traced.lookup(upstream.trace_id)
        root = next(s for s in found["spans"]
                    if s["name"] == "server.request")
        assert root["parent_id"] == upstream.span_id

    def test_unsampled_flag_is_still_recorded_and_exported(
            self, server, tmp_path):
        """A caller's ``-00`` flags do not switch recording off: every
        request a traced worker serves reaches the flight recorder and
        the JSONL export, and the echoed traceparent carries ``-01``."""
        recorder = enable_request_tracing(service="test-worker",
                                          trace_dir=str(tmp_path))
        try:
            upstream = TraceContext.mint()
            header = upstream.to_traceparent()[:-2] + "00"
            rng = np.random.default_rng(15)
            status, _, headers = predict(
                server.address,
                {"features": rng.standard_normal(32).tolist()},
                {"traceparent": header})
            assert status == 200
            assert headers["X-Trace-Id"] == upstream.trace_id
            assert headers["traceparent"].endswith("-01")
            assert recorder.lookup(upstream.trace_id) is not None
        finally:
            disable_request_tracing()
        exported = read_trace_jsonl(*map(str, tmp_path.glob("trace-*")))
        assert "server.request" in {
            e["name"] for e in exported
            if e["trace_id"] == upstream.trace_id}

    def test_malformed_traceparent_mints_fresh(self, traced, server):
        rng = np.random.default_rng(9)
        status, _, headers = predict(
            server.address,
            {"features": rng.standard_normal(32).tolist()},
            {"traceparent": "zz-not-a-traceparent"})
        assert status == 200
        trace_id = headers["X-Trace-Id"]
        assert len(trace_id) == 32
        int(trace_id, 16)

    def test_error_responses_echo_trace_id(self, traced, server):
        host, port = server.address
        status, _, headers = http_request(host, port, "GET", "/nope")
        assert status == 404
        assert headers.get("X-Trace-Id")
        status, payload, headers = http_request(
            host, port, "POST", "/predict", b"not json",
            {"Content-Type": "application/json"})
        assert status == 400
        assert headers.get("X-Trace-Id")
        assert payload["request_id"] == headers["X-Trace-Id"]

    def test_client_errors_do_not_evict_a_server_error(
            self, traced, server, monkeypatch):
        """A 4xx is the client's fault: it stays in /requestz but is not
        an error trace, so a flood of malformed bodies cannot push a
        worker's 500 out of /tracez's error ring."""
        host, port = server.address

        def broken(features):
            raise RuntimeError("engine down")

        monkeypatch.setattr(server.engine, "predict_features", broken)
        status, _, headers = predict(server.address,
                                     {"features": [0.0] * 32})
        assert status == 500
        failed = headers["X-Trace-Id"]
        monkeypatch.undo()
        flood = traced.errors + 6
        for _ in range(flood):
            status, _, _ = http_request(
                host, port, "POST", "/predict", b"not json",
                {"Content-Type": "application/json"})
            assert status == 400
        status, payload, _ = http_request(host, port, "GET",
                                          f"/tracez?trace_id={failed}")
        assert status == 200 and "error" in payload["retained_for"]
        status, payload, _ = http_request(
            host, port, "GET", f"/requestz?limit={flood + 1}")
        assert [r["status"] for r in payload["requests"]].count(400) \
            == flood

    def test_ids_echo_even_with_tracing_disabled(self, server):
        rng = np.random.default_rng(10)
        status, payload, headers = predict(
            server.address, {"features": rng.standard_normal(32).tolist()})
        assert status == 200
        assert headers.get("X-Trace-Id")
        assert payload["request_id"] == headers["X-Trace-Id"]

    def test_tracez_and_requestz_endpoints(self, traced, server):
        host, port = server.address
        rng = np.random.default_rng(11)
        ids = []
        for _ in range(3):
            _, _, headers = predict(
                server.address,
                {"features": rng.standard_normal(32).tolist()})
            ids.append(headers["X-Trace-Id"])

        status, payload, _ = http_request(host, port, "GET", "/tracez")
        assert status == 200
        assert {t["trace_id"] for t in payload["retained"]} >= set(ids)
        status, payload, _ = http_request(
            host, port, "GET", f"/tracez?trace_id={ids[0]}")
        assert status == 200 and payload["trace_id"] == ids[0]
        status, payload, _ = http_request(
            host, port, "GET", "/tracez?trace_id=" + "f" * 32)
        assert status == 404 and "retained" in payload

        status, payload, _ = http_request(host, port, "GET",
                                          "/requestz?limit=2")
        assert status == 200
        assert payload["appended"] >= 3
        assert len(payload["requests"]) == 2
        assert all(r["trace_id"] for r in payload["requests"])
        status, payload, _ = http_request(
            host, port, "GET", f"/requestz?trace_id={ids[1]}")
        assert [r["trace_id"] for r in payload["requests"]] == [ids[1]]

    @pytest.mark.parametrize("limit", ["-1", "abc"])
    def test_requestz_rejects_bad_limit(self, traced, server, limit):
        host, port = server.address
        status, payload, _ = http_request(host, port, "GET",
                                          f"/requestz?limit={limit}")
        assert status == 400 and "limit" in payload["error"]

    def test_probes_not_recorded(self, traced, server):
        host, port = server.address
        before = get_flight_recorder().stats["traces_seen"]
        status, _, headers = http_request(host, port, "GET", "/healthz")
        assert status == 200
        assert headers.get("X-Trace-Id")  # echo yes, record no
        assert get_flight_recorder().stats["traces_seen"] == before


class TestBatcherErrors:
    def test_deadline_error_carries_request_id_and_model(self, traced):
        gate = threading.Event()

        def stalled(batch):
            gate.wait(5.0)
            return np.zeros(len(batch), dtype=int), None

        registry = get_registry()
        batcher = MicroBatcher(stalled, max_batch_size=4,
                               max_latency_ms=1.0, workers=1,
                               model_label="TestModel")
        try:
            filler = threading.Thread(
                target=lambda: batcher.submit(np.ones(3), timeout_s=10.0))
            filler.start()
            time.sleep(0.05)
            from repro.telemetry import get_hub
            with get_hub().trace("req") as trace:
                with pytest.raises(DeadlineExceededError) as excinfo:
                    batcher.submit(np.ones(3), timeout_s=0.05)
            assert excinfo.value.request_id == trace.trace_id
            assert excinfo.value.model == "TestModel"
            metric = registry.snapshot()[
                "serve.batcher.deadline.model.TestModel"]
            assert metric["value"] >= 1
        finally:
            gate.set()
            filler.join()
            batcher.shutdown()

    def test_shed_error_carries_request_id_and_model(self, traced):
        gate = threading.Event()

        def stalled(batch):
            gate.wait(5.0)
            return np.zeros(len(batch), dtype=int), None

        registry = get_registry()
        batcher = MicroBatcher(stalled, max_batch_size=4,
                               max_latency_ms=1.0, workers=1,
                               shedder=LoadShedder(1),
                               default_timeout_s=10.0,
                               model_label="TestModel")
        shed = []

        def submit_one():
            try:
                batcher.submit(np.ones(3))
            except OverloadShedError as exc:
                shed.append(exc)

        try:
            from repro.telemetry import get_hub
            with get_hub().trace("req"):
                threads = [threading.Thread(target=submit_one)
                           for _ in range(6)]
                for thread in threads:
                    thread.start()
                    time.sleep(0.02)
            gate.set()
            for thread in threads:
                thread.join()
            assert shed
            assert all(exc.model == "TestModel" for exc in shed)
            metric = registry.snapshot()[
                "serve.batcher.shed.model.TestModel"]
            assert metric["value"] >= len(shed)
        finally:
            gate.set()
            batcher.shutdown()


@pytest.fixture
def routed(synthetic_bundle):
    """One live worker + one dead address behind a Router (failover)."""
    bundle = synthetic_bundle(seed=78)
    live = ModelServer(InferenceEngine(bundle, cache_size=0), port=0,
                       max_batch_size=16, max_latency_ms=1.0,
                       workers=1).start()
    dead_address = ("127.0.0.1", free_port())
    fleet = StaticFleet([live.address, dead_address])
    router = Router(fleet, port=0, max_attempts=2,
                    retry_backoff_s=0.005, request_timeout_s=10.0,
                    breaker_options={"failure_threshold": 10_000,
                                     "min_requests": 10_000})
    router.start()
    yield router
    router.stop()
    live.stop()


class TestRouterTracing:
    def test_failover_retry_recorded(self, traced, routed):
        rng = np.random.default_rng(12)
        host, port = routed.address
        retried = None
        for _ in range(16):
            status, payload, headers = predict(
                (host, port),
                {"features": rng.standard_normal(32).tolist()})
            assert status == 200
            trace_id = headers["X-Trace-Id"]
            assert payload["request_id"] == trace_id
            found = traced.lookup(trace_id)
            assert found is not None
            attempts = [s for s in found["spans"]
                        if s["name"] == "router.attempt"]
            if len(attempts) >= 2:
                retried = found
                break
        assert retried is not None, \
            "no request hashed to the dead worker first"
        names = {s["name"] for s in retried["spans"]}
        assert {"router.request", "router.attempt",
                "router.retry_backoff", "server.request"} <= names
        attempts = [s for s in retried["spans"]
                    if s["name"] == "router.attempt"]
        assert any(s["status"] == "error" for s in attempts)
        assert {s["attrs"]["worker"] for s in attempts} == {"w0", "w1"}
        attempt_ids = {s["span_id"] for s in attempts}
        request_root = next(s for s in retried["spans"]
                            if s["name"] == "server.request")
        assert request_root["parent_id"] in attempt_ids

    def test_router_error_payloads(self, traced, routed):
        host, port = routed.address
        status, payload, headers = http_request(
            host, port, "POST", "/predict", b"not json",
            {"Content-Type": "application/json"})
        assert status == 400
        assert headers.get("X-Trace-Id")
        assert payload["request_id"] == headers["X-Trace-Id"]

    def test_router_tracez_requestz(self, traced, routed):
        host, port = routed.address
        rng = np.random.default_rng(14)
        _, _, headers = predict(
            (host, port), {"features": rng.standard_normal(32).tolist()})
        trace_id = headers["X-Trace-Id"]
        status, payload, _ = http_request(
            host, port, "GET", f"/tracez?trace_id={trace_id}")
        assert status == 200
        assert payload["trace_id"] == trace_id
        status, payload, _ = http_request(host, port, "GET", "/requestz")
        assert status == 200
        assert any(r["trace_id"] == trace_id
                   for r in payload["requests"])

    @pytest.mark.parametrize("limit", ["-1", "abc"])
    def test_router_requestz_rejects_bad_limit(self, traced, routed, limit):
        host, port = routed.address
        status, payload, _ = http_request(host, port, "GET",
                                          f"/requestz?limit={limit}")
        assert status == 400 and "limit" in payload["error"]
