"""HTTP model server: routing, error mapping, e2e pipeline parity."""

import json
import os
import socket
import statistics
import struct
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.data import make_dataset
from repro.learn import VanillaHD
from repro.serve import InferenceEngine, ModelBundle, ModelServer
from repro.serve.handler import MAX_BODY_BYTES
from repro.telemetry import get_registry

from .conftest import (http_status, keepalive_predict_ms,
                       post_with_content_length, whole_response_status)

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")


def counter(name):
    entry = get_registry().snapshot().get(name) or {}
    return float(entry.get("value", 0.0))


def post(url, payload, timeout=30):
    request = urllib.request.Request(
        url, data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return response.read().decode("utf-8")


class GatedEngine:
    """Engine façade whose predict blocks until released (503/504 tests)."""

    def __init__(self, engine):
        self.engine = engine
        self.bundle = engine.bundle
        self.in_features = engine.in_features
        self.gate = threading.Event()

    def predict_features(self, features):
        self.gate.wait(10.0)
        return self.engine.predict_features(features)

    def describe(self):
        return self.engine.describe()


class TestRoutes:
    @pytest.fixture()
    def server(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(seed=21))
        with ModelServer(engine, port=0, max_batch_size=16,
                         max_latency_ms=2.0, workers=2) as server:
            yield server

    def test_predict_matrix_and_flat(self, server):
        rng = np.random.default_rng(21)
        features = rng.standard_normal((12, 32))
        out = post(server.url + "/predict",
                   {"features": features.tolist()})
        expected = [int(v) for v in
                    server.engine.predict_features(features)]
        assert out["labels"] == expected
        assert out["model"] == server.engine.bundle.info[
            "config_fingerprint"]
        # A flat list is one sample.
        single = post(server.url + "/predict",
                      {"features": features[0].tolist()})
        assert single["labels"] == expected[:1]

    def test_healthz(self, server):
        health = json.loads(get(server.url + "/healthz"))
        assert health["status"] == "ok"
        assert health["engine"]["packed"]
        assert "depth" in health["batcher"]
        assert health["shedder"]["high"] == 128

    def test_metrics_exposition(self, server):
        rng = np.random.default_rng(22)
        post(server.url + "/predict",
             {"features": rng.standard_normal((4, 32)).tolist()})
        metrics = get(server.url + "/metrics")
        assert "repro_serve_batcher_completed" in metrics
        assert "repro_serve_batcher_batch_size_count" in metrics

    def test_unknown_route_404(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            get(server.url + "/nope")
        assert excinfo.value.code == 404

    @pytest.mark.parametrize("payload", [
        {"features": "nope"},
        {"wrong_key": [[1.0]]},
        {"features": []},
        {"features": [[1.0, float("nan")] + [0.0] * 30]},
    ])
    def test_malformed_request_400(self, server, payload):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server.url + "/predict", payload)
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("value, kind", [
        (True, "boolean"), ("1.5", "string"), (None, "null"),
        ({"x": 1.0}, "object")])
    def test_non_number_features_are_400_naming_the_type(
            self, server, value, kind):
        # A plain float64 conversion reads true as 1.0, parses "1.5" and
        # turns null into NaN; none of them is a feature value.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server.url + "/predict", {"features": [[value] * 32]})
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"] == (
            f"features are not numeric: got a JSON {kind}")

    @pytest.mark.parametrize("row", [
        [True] + [0.5] * 31, [0.5] * 31 + [False], [1] * 31 + [True]],
        ids=["true-among-floats", "false-among-floats", "true-among-ints"])
    def test_a_boolean_among_numbers_is_400(self, server, row):
        # numpy promotes a boolean among numbers to 1.0/0.0 before a
        # dtype check can see it.
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server.url + "/predict", {"features": [[0.0] * 32, row]})
        assert excinfo.value.code == 400
        assert json.loads(excinfo.value.read())["error"] == (
            "features are not numeric: got a JSON boolean")

    def test_true_outside_the_features_is_served(self, server):
        rows = [[0.5] * 32]
        out = post(server.url + "/predict",
                   {"features": rows, "note": "true", "flag": False})
        expected = server.engine.predict_features(np.asarray(rows))
        assert out["labels"] == [int(v) for v in expected]

    def test_every_json_number_converts_as_float64(self, server):
        # Integers, including ones beyond 64 bits, mix with floats.
        rows = [[1] * 32, [2 ** 64] + [0.5] * 31, [-(2 ** 63), 7.0] * 16]
        out = post(server.url + "/predict", {"features": rows})
        expected = server.engine.predict_features(
            np.asarray(rows, dtype=np.float64))
        assert out["labels"] == [int(v) for v in expected]

    def test_wrong_width_is_400_with_request_id(self, server):
        before = counter("serve.http.bad_request")
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server.url + "/predict", {"features": [[0.0] * 31]})
        assert excinfo.value.code == 400
        payload = json.loads(excinfo.value.read())
        assert payload["request_id"] == excinfo.value.headers["X-Trace-Id"]
        assert counter("serve.http.bad_request") == before + 1

    def test_width_is_the_raw_feature_width(self):
        """NSHD's scale stage takes F = 1024 raw features and its
        encoder F̂ = 16 reduced ones: /predict accepts F wide rows."""
        bundle = ModelBundle.load(
            os.path.join(FIXTURES, "golden_nshd_bundle_packed.npz"))
        with np.load(os.path.join(FIXTURES, "golden_inputs.npz")) as archive:
            raw = archive["nshd.raw_features"][:4]
        reduced = bundle.info["encoder"]["in_features"]
        engine = InferenceEngine(bundle, build_extractor=False)
        assert engine.in_features == raw.shape[1] != reduced
        with ModelServer(engine, port=0) as server:
            out = post(server.url + "/predict", {"features": raw.tolist()})
            assert out["labels"] == [int(label) for label in
                                     engine.predict_features(raw)]
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(server.url + "/predict",
                     {"features": raw[:, :reduced].tolist()})
            assert excinfo.value.code == 400

    def test_invalid_json_400(self, server):
        request = urllib.request.Request(
            server.url + "/predict", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400


class TestDegradationMapping:
    def test_overload_maps_to_503(self, synthetic_bundle):
        gated = GatedEngine(InferenceEngine(synthetic_bundle(seed=23)))
        server = ModelServer(gated, port=0, max_batch_size=4,
                             max_latency_ms=1.0, workers=1,
                             high_watermark=1, timeout_s=10.0)
        server.start()
        try:
            rng = np.random.default_rng(23)
            codes = []

            def fire():
                try:
                    post(server.url + "/predict",
                         {"features": rng.standard_normal(32).tolist()})
                    codes.append(200)
                except urllib.error.HTTPError as exc:
                    codes.append(exc.code)
                    if exc.code == 503:
                        assert exc.headers.get("Retry-After") == "1"

            threads = [threading.Thread(target=fire) for _ in range(6)]
            for t in threads:
                t.start()
            import time
            time.sleep(0.1)
            gated.gate.set()
            for t in threads:
                t.join()
            assert 503 in codes, f"no shed response in {codes}"
            health = json.loads(get(server.url + "/healthz"))
            assert health["shedder"]["shed"] >= 1
        finally:
            gated.gate.set()
            server.stop()

    def test_engine_failure_maps_to_500(self, synthetic_bundle):
        class FailingEngine(GatedEngine):
            def predict_features(self, features):
                raise RuntimeError("engine fault")

        failing = FailingEngine(InferenceEngine(synthetic_bundle(seed=25)))
        with ModelServer(failing, port=0, workers=1) as server:
            before = counter("serve.http.internal_error")
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(server.url + "/predict", {"features": [0.0] * 32})
            assert excinfo.value.code == 500
            body = json.loads(excinfo.value.read())
            assert body["error"] == "RuntimeError: engine fault"
            assert counter("serve.http.internal_error") == before + 1

    def test_deadline_maps_to_504(self, synthetic_bundle):
        gated = GatedEngine(InferenceEngine(synthetic_bundle(seed=24)))
        server = ModelServer(gated, port=0, workers=1,
                             high_watermark=None, timeout_s=0.05)
        server.start()
        try:
            rng = np.random.default_rng(24)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(server.url + "/predict",
                     {"features": rng.standard_normal(32).tolist()})
            assert excinfo.value.code == 504
        finally:
            gated.gate.set()
            server.stop()


def wait_for(predicate, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.005)


class TestWire:
    """Each response is one write, so a keep-alive client never waits
    out a delayed ACK; a hostile Content-Length is refused unread."""

    @pytest.fixture()
    def server(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(seed=25))
        with ModelServer(engine, port=0) as server:
            yield server

    @pytest.mark.parametrize("method, path, payload, status", [
        ("POST", "/predict", {"features": [0.0] * 32}, 200),
        ("POST", "/predict", {"features": "nope"}, 400),
        ("GET", "/nope", None, 404),
        ("GET", "/metrics", None, 200),
    ])
    def test_one_write_per_response(self, server, handler_writes, method,
                                    path, payload, status):
        assert http_status(server.address, method, path, payload) == status
        assert [whole_response_status(c) for c in handler_writes] == [status]

    def test_one_write_for_shed_503(self, synthetic_bundle, handler_writes):
        gated = GatedEngine(InferenceEngine(synthetic_bundle(seed=26)))
        server = ModelServer(gated, port=0, workers=1, high_watermark=1,
                             timeout_s=10.0).start()
        body = {"features": [0.0] * 32}
        threads = [threading.Thread(
            target=http_status,
            args=(server.address, "POST", "/predict", body))
            for _ in range(2)]
        try:
            # The first request is in flight at the gate, the second
            # queued: the third crosses the watermark.
            threads[0].start()
            wait_for(lambda: server.batcher.stats["submitted"] == 1
                     and server.batcher.depth == 0)
            threads[1].start()
            wait_for(lambda: server.batcher.depth == 1)
            assert http_status(server.address, "POST", "/predict",
                               body) == 503
            assert [whole_response_status(c)
                    for c in handler_writes] == [503]
        finally:
            gated.gate.set()
            for thread in threads:
                thread.join(10.0)
            server.stop()
        assert not any(thread.is_alive() for thread in threads)

    def test_keepalive_predict_median_under_20ms(self, server):
        body = json.dumps({"features": [0.0] * 32}).encode()
        times = keepalive_predict_ms(server.address, body)
        assert statistics.median(times) < 20.0, times

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_hostile_content_length_is_400_unread(self, server, value):
        status, headers, body, closed = post_with_content_length(
            server.address, value)
        assert status == 400
        assert json.loads(body)["request_id"] == headers["X-Trace-Id"]
        assert closed
        assert http_status(server.address, "GET", "/healthz") == 200

    @pytest.mark.parametrize("value", [str(MAX_BODY_BYTES + 1), "9" * 30])
    def test_oversized_content_length_is_413_unread(self, server, value):
        # No body follows the header: reading it would hang the client.
        status, headers, body, closed = post_with_content_length(
            server.address, value)
        assert status == 413
        assert json.loads(body)["request_id"] == headers["X-Trace-Id"]
        assert headers["Connection"] == "close" and closed
        assert http_status(server.address, "GET", "/healthz") == 200


class TestLifecycle:
    def test_stop_without_start_is_safe(self, synthetic_bundle):
        server = ModelServer(InferenceEngine(synthetic_bundle()), port=0)
        server.stop()  # must not deadlock or raise

    def test_context_manager_releases_port(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle())
        with ModelServer(engine, port=0) as server:
            port = server.address[1]
            assert port > 0
        # Rebinding the same port proves the listener closed.
        with ModelServer(engine, port=port) as server2:
            assert server2.address[1] == port


class BrokenSelfcheckEngine:
    """Engine façade whose deep selfcheck fails (torn-worker detection)."""

    def __init__(self, engine):
        self.engine = engine
        self.bundle = engine.bundle
        self.in_features = engine.in_features
        self.use_packed = engine.use_packed

    def predict_features(self, features):
        return self.engine.predict_features(features)

    def describe(self):
        return self.engine.describe()

    def selfcheck(self):
        raise RuntimeError("packed path diverged from float reference")


class TestHealthzIdentity:
    def test_shallow_health_reports_bundle_and_mode(self, synthetic_bundle,
                                                    tmp_path):
        bundle = synthetic_bundle(seed=61)
        path = str(tmp_path / "bundle.npz")
        bundle.save(path)
        engine = InferenceEngine(bundle)
        with ModelServer(engine, port=0, bundle_path=path) as server:
            health = json.loads(get(server.url + "/healthz"))
        assert health["mode"] == "packed"
        assert health["bundle"]["fingerprint"] == bundle.info[
            "config_fingerprint"]
        assert health["bundle"]["version"] == bundle.info["bundle_version"]
        assert health["bundle"]["pipeline"] == "SyntheticHD"
        assert health["bundle"]["path"] == path
        assert "selfcheck" not in health  # shallow probes stay cheap

    def test_float_engine_reports_float_mode(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(seed=62, binary=False))
        assert not engine.use_packed
        with ModelServer(engine, port=0) as server:
            health = json.loads(get(server.url + "/healthz"))
        assert health["mode"] == "float"

    def test_deep_health_runs_selfcheck(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(seed=63))
        with ModelServer(engine, port=0) as server:
            health = json.loads(get(server.url + "/healthz?deep=1"))
        assert health["selfcheck"] == "ok"
        assert health["status"] == "ok"

    def test_deep_health_failure_maps_to_500(self, synthetic_bundle):
        engine = BrokenSelfcheckEngine(
            InferenceEngine(synthetic_bundle(seed=64)))
        with ModelServer(engine, port=0) as server:
            # Shallow stays 200 (probe traffic must not run the check)…
            health = json.loads(get(server.url + "/healthz"))
            assert health["status"] == "ok"
            # …deep runs it and degrades the answer to 500.
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(server.url + "/healthz?deep=1")
            assert excinfo.value.code == 500
            payload = json.loads(excinfo.value.read())
            assert payload["status"] == "selfcheck_failed"
            assert "diverged" in payload["selfcheck"]


class TestChaosEndpoint:
    def test_slow_is_404_when_chaos_unarmed(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(seed=65))
        with ModelServer(engine, port=0, chaos=False) as server:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(server.url + "/slow", {"stall_s": 0.1})
            assert excinfo.value.code == 404

    def test_slow_stalls_healthz_when_armed(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(seed=66))
        with ModelServer(engine, port=0, chaos=True) as server:
            out = post(server.url + "/slow", {"stall_s": 0.5})
            assert out["stalled_s"] == 0.5
            t0 = time.monotonic()
            health = json.loads(get(server.url + "/healthz"))
            assert time.monotonic() - t0 >= 0.3  # probe was wedged
            assert health["status"] == "ok"  # …but answers once unstuck

    def test_slow_validates_body(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(seed=67))
        with ModelServer(engine, port=0, chaos=True) as server:
            for payload in ({}, {"stall_s": -1.0}, {"stall_s": 1e9}):
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    post(server.url + "/slow", payload)
                assert excinfo.value.code == 400


class TestClientDisconnect:
    def test_mid_request_reset_is_counted_not_crashed(self,
                                                      synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(seed=68))
        with ModelServer(engine, port=0) as server:
            before = counter("serve.client_disconnect")
            sock = socket.create_connection(server.address, timeout=5)
            # Claim a large body, then slam the door with an RST while
            # the handler is blocked reading it.
            sock.sendall(b"POST /predict HTTP/1.1\r\n"
                         b"Host: test\r\n"
                         b"Content-Type: application/json\r\n"
                         b"Content-Length: 1000000\r\n\r\n")
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER,
                            struct.pack("ii", 1, 0))
            sock.close()
            deadline = time.monotonic() + 5.0
            while (counter("serve.client_disconnect") <= before
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert counter("serve.client_disconnect") > before
            # The server survived: normal requests still answer.
            out = post(server.url + "/predict",
                       {"features": [0.0] * 32})
            assert len(out["labels"]) == 1


class TestGracefulDrain:
    def test_drain_stops_accepting_and_is_idempotent(self,
                                                     synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(seed=69))
        server = ModelServer(engine, port=0).start()
        url = server.url
        post(url + "/predict", {"features": [0.0] * 32})
        before = counter("serve.drain")
        server.drain()
        server.drain()  # second call is a no-op
        assert server.draining
        assert counter("serve.drain") == before + 1
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                post(url + "/predict", {"features": [0.0] * 32},
                     timeout=1)
            except (urllib.error.URLError, ConnectionError, OSError):
                break
            time.sleep(0.05)
        else:
            pytest.fail("listener still accepting after drain")
        server.stop()  # safe after drain


class TestReloadUnderLoad:
    def test_concurrent_reload_never_tears_responses(self,
                                                     synthetic_bundle,
                                                     tmp_path):
        """Satellite acceptance: /predict hammered during good + torn
        reloads sees zero 5xx and every answer consistent with exactly
        one of the two engines (never a half-swapped state)."""
        bundle_a = synthetic_bundle(seed=71)
        bundle_b = synthetic_bundle(seed=72)
        path_a = str(tmp_path / "a.npz")
        path_b = str(tmp_path / "b.npz")
        torn = str(tmp_path / "torn.npz")
        bundle_a.save(path_a)
        bundle_b.save(path_b)
        with open(path_a, "rb") as handle:
            blob = handle.read()
        with open(torn, "wb") as handle:
            handle.write(blob[: len(blob) // 2])

        rng = np.random.default_rng(71)
        pool = rng.standard_normal((16, 32))
        fingerprints = {}
        expected = {}
        for bundle in (bundle_a, bundle_b):
            fp = bundle.info["config_fingerprint"]
            engine = InferenceEngine(bundle)
            fingerprints[fp] = bundle
            expected[fp] = [int(v) for v in
                            engine.predict_features(pool)]
        assert len(fingerprints) == 2

        server = ModelServer(InferenceEngine(bundle_a), port=0,
                             max_batch_size=8, max_latency_ms=1.0,
                             workers=2, bundle_path=path_a).start()
        stop = threading.Event()
        bad = []

        def hammer(cid):
            i = cid
            while not stop.is_set():
                idx = i % len(pool)
                i += 1
                try:
                    out = post(server.url + "/predict",
                               {"features": pool[idx].tolist()})
                except urllib.error.HTTPError as exc:
                    bad.append(("http", exc.code))
                    continue
                fp = out["model"]
                if fp not in expected:
                    bad.append(("unknown-model", fp))
                elif out["labels"] != [expected[fp][idx]]:
                    bad.append(("torn-labels", fp, idx, out["labels"]))

        threads = [threading.Thread(target=hammer, args=(cid,))
                   for cid in range(4)]
        try:
            for thread in threads:
                thread.start()
            reloads = rejected = 0
            deadline = time.monotonic() + 3.0
            cycle = [path_b, torn, path_a, torn]
            while time.monotonic() < deadline:
                target = cycle[reloads % len(cycle)]
                try:
                    post(server.url + "/reload", {"bundle": target})
                except urllib.error.HTTPError as exc:
                    assert exc.code == 409 and target == torn
                    rejected += 1
                reloads += 1
        finally:
            stop.set()
            for thread in threads:
                thread.join()
            server.stop()
        assert not bad, bad[:10]
        assert reloads >= 4 and rejected >= 1
        assert server.reloads >= 2  # the good swaps landed


class TestEndToEnd:
    def test_served_predictions_match_pipeline_bitexact(self):
        """Satellite acceptance: /predict == pipeline.predict exactly."""
        x_tr, y_tr, x_te, _ = make_dataset(num_classes=3, num_train=60,
                                           num_test=40, seed=31)
        pipeline = VanillaHD(num_classes=3, image_size=x_tr.shape[-1],
                             dim=256, seed=31)
        pipeline.fit(x_tr, y_tr, epochs=2)
        bundle = ModelBundle.from_pipeline(pipeline)
        engine = InferenceEngine(bundle)
        flat = np.asarray(x_te).reshape(len(x_te), -1)
        with ModelServer(engine, port=0, max_batch_size=16,
                         max_latency_ms=2.0, workers=2) as server:
            served = []
            for start in range(0, len(flat), 16):
                out = post(server.url + "/predict",
                           {"features": flat[start:start + 16].tolist()})
                served.extend(out["labels"])
        expected = [int(v) for v in pipeline.predict(x_te)]
        assert served == expected
