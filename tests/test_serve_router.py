"""Fleet router: hash ring, retry/breaker routing, reload fan-out."""

import json
import os
import statistics
import urllib.error

import numpy as np
import pytest

from repro.serve import (HashRing, InferenceEngine, ModelServer, Router,
                         StaticFleet, free_port)
from repro.serve.handler import MAX_BODY_BYTES
from repro.telemetry import get_registry

from .conftest import (counter, get, http_status, keepalive_predict_ms,
                       post, post_with_content_length, request,
                       whole_response_status)

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")


class TestHashRing:
    def test_deterministic_and_complete(self):
        ring = HashRing(["w0", "w1", "w2"])
        key = b'{"features": [1.0, 2.0]}'
        order = ring.ordered(key)
        assert sorted(order) == ["w0", "w1", "w2"]
        assert order == HashRing(["w0", "w1", "w2"]).ordered(key)

    def test_different_keys_spread_across_workers(self):
        ring = HashRing([f"w{i}" for i in range(4)])
        firsts = {ring.ordered(f"key-{i}".encode())[0]
                  for i in range(200)}
        assert firsts == {"w0", "w1", "w2", "w3"}

    def test_member_removal_only_remaps_its_arc(self):
        """Consistent hashing's point: dropping w3 must not move keys
        that were assigned to the surviving workers."""
        full = HashRing(["w0", "w1", "w2", "w3"])
        reduced = HashRing(["w0", "w1", "w2"])
        moved = survivors = 0
        for i in range(500):
            key = f"key-{i}".encode()
            before = full.ordered(key)[0]
            if before == "w3":
                continue
            survivors += 1
            if reduced.ordered(key)[0] != before:
                moved += 1
        assert survivors > 300
        assert moved == 0

    def test_ordered_is_a_failover_sequence(self):
        ring = HashRing(["w0", "w1", "w2"])
        order = ring.ordered(b"payload")
        assert len(order) == len(set(order)) == 3


@pytest.fixture
def fleet_servers(synthetic_bundle):
    """Two in-process ModelServers over the same bundle + StaticFleet."""
    bundle = synthetic_bundle(seed=51)
    engine = InferenceEngine(bundle)
    servers = [ModelServer(InferenceEngine(bundle), port=0,
                           max_batch_size=16, max_latency_ms=1.0,
                           workers=1).start() for _ in range(2)]
    fleet = StaticFleet([server.address for server in servers])
    yield fleet, servers, engine
    for server in servers:
        server.stop()


class TestRouting:
    def test_parity_with_direct_engine(self, fleet_servers):
        fleet, servers, engine = fleet_servers
        rng = np.random.default_rng(51)
        features = rng.standard_normal((24, 32))
        with Router(fleet, port=0) as router:
            routed = []
            for row in features:
                out = post(router.url + "/predict",
                           {"features": row.tolist()})
                routed.extend(out["labels"])
        expected = [int(v) for v in engine.predict_features(features)]
        assert routed == expected

    def test_requests_reach_both_workers(self, fleet_servers):
        fleet, servers, _ = fleet_servers
        rng = np.random.default_rng(52)
        with Router(fleet, port=0) as router:
            for row in rng.standard_normal((40, 32)):
                post(router.url + "/predict", {"features": row.tolist()})
            counts = [get(server.url + "/healthz")["batcher"]["completed"]
                      for server in servers]
        assert all(count > 0 for count in counts), counts

    def test_retry_routes_around_dead_worker(self, fleet_servers):
        fleet, servers, engine = fleet_servers
        # Add a third, never-listening member — requests hashed to it
        # must fail over along the ring and still succeed.
        dead = StaticFleet([servers[0].address, servers[1].address,
                            ("127.0.0.1", free_port())])
        rng = np.random.default_rng(53)
        features = rng.standard_normal((30, 32))
        registry = get_registry()
        before = (registry.snapshot().get("fleet.router.rerouted")
                  or {}).get("value", 0)
        with Router(dead, port=0, retry_backoff_s=0.0) as router:
            routed = []
            for row in features:
                out = post(router.url + "/predict",
                           {"features": row.tolist()})
                routed.extend(out["labels"])
        expected = [int(v) for v in engine.predict_features(features)]
        assert routed == expected
        after = (registry.snapshot().get("fleet.router.rerouted")
                 or {}).get("value", 0)
        assert after > before  # some keys did hash to the dead worker

    def test_breaker_opens_on_repeat_failures_then_skips(self,
                                                         fleet_servers):
        fleet, servers, _ = fleet_servers
        dead = StaticFleet([servers[0].address, servers[1].address,
                            ("127.0.0.1", free_port())])
        rng = np.random.default_rng(54)
        with Router(dead, port=0, retry_backoff_s=0.0,
                    breaker_options={"failure_threshold": 2,
                                     "recovery_timeout_s": 60.0}
                    ) as router:
            for row in rng.standard_normal((40, 32)):
                post(router.url + "/predict", {"features": row.tolist()})
            health = get(router.url + "/healthz")
            breaker = health["breakers"].get("w2")
            assert breaker is not None and breaker["state"] == "open"
            assert breaker["stats"]["opens"] >= 1
            # Once open, further requests skip the dead worker without
            # spending a connection attempt on it.
            skips_before = counter("fleet.router.breaker_skips")
            for row in rng.standard_normal((20, 32)):
                post(router.url + "/predict", {"features": row.tolist()})
            assert counter("fleet.router.breaker_skips") > skips_before

    def test_no_healthy_worker_is_503(self, fleet_servers):
        fleet, servers, _ = fleet_servers
        fleet.set_healthy("w0", False)
        fleet.set_healthy("w1", False)
        before = counter("fleet.router.no_backend")
        with Router(fleet, port=0) as router:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(router.url + "/predict", {"features": [0.0] * 32})
            assert excinfo.value.code == 503
            assert excinfo.value.headers.get("Retry-After") == "1"
        assert counter("fleet.router.no_backend") == before + 1

    def test_every_attempt_failing_counts_each_fault_once(
            self, synthetic_bundle):
        """One member refuses the connection and one answers 500: the
        request spends both attempts, then answers 503."""
        class FailingEngine:
            def __init__(self, engine):
                self.bundle = engine.bundle
                self.in_features = engine.in_features

            def predict_features(self, features):
                raise RuntimeError("engine fault")

        names = ("fleet.router.connect_errors",
                 "fleet.router.upstream_errors", "fleet.router.retries",
                 "fleet.router.exhausted")
        engine = FailingEngine(InferenceEngine(synthetic_bundle(seed=56)))
        with ModelServer(engine, port=0, workers=1) as failing:
            fleet = StaticFleet([failing.address,
                                 ("127.0.0.1", free_port())])
            before = [counter(name) for name in names]
            with Router(fleet, port=0, max_attempts=2,
                        retry_backoff_s=0.0) as router:
                with pytest.raises(urllib.error.HTTPError) as excinfo:
                    post(router.url + "/predict", {"features": [0.0] * 32})
                assert excinfo.value.code == 503
                error = json.loads(excinfo.value.read())["error"]
                assert error.startswith("no worker answered after 2")
        assert [counter(name) - old for name, old
                in zip(names, before)] == [1, 1, 1, 1]

    def test_worker_4xx_passes_through_without_retry(self, fleet_servers):
        fleet, servers, _ = fleet_servers
        with Router(fleet, port=0) as router:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(router.url + "/predict", {"features": "nope"})
            assert excinfo.value.code == 400

    def test_wrong_width_passes_through_as_400(self, fleet_servers):
        """A row the model cannot take is the client's error on every
        worker: the router passes the 400 on instead of retrying it."""
        fleet, servers, _ = fleet_servers
        with Router(fleet, port=0) as router:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(router.url + "/predict", {"features": [[0.0] * 31]})
            assert excinfo.value.code == 400

    def test_integer_beyond_float64_is_400_and_opens_no_breaker(
            self, fleet_servers):
        """A feature float64 cannot hold is the client's error on every
        worker: no upstream error is counted, so no breaker opens and
        a valid request is still served."""
        fleet, servers, engine = fleet_servers
        row = [int("9" * 400)] + [0.0] * 31
        before = counter("fleet.router.upstream_errors")
        with Router(fleet, port=0) as router:
            for _ in range(6):
                status, _, _ = request(router.url + "/predict",
                                       {"features": [row]})
                assert status == 400
            breakers = get(router.url + "/healthz")["breakers"]
            out = post(router.url + "/predict", {"features": [[0.0] * 32]})
        assert counter("fleet.router.upstream_errors") == before
        assert breakers and all(b["state"] == "closed"
                                for b in breakers.values())
        assert out["labels"] == [int(v) for v in
                                 engine.predict_features(np.zeros((1, 32)))]

    def test_health_status_degraded_and_down(self, fleet_servers):
        fleet, servers, _ = fleet_servers
        with Router(fleet, port=0) as router:
            assert get(router.url + "/healthz")["status"] == "ok"
            fleet.set_healthy("w1", False)
            assert (get(router.url + "/healthz")["status"]
                    == "degraded")
            fleet.set_healthy("w0", False)
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(router.url + "/healthz")
            assert excinfo.value.code == 503
            assert json.loads(excinfo.value.read())["status"] == "down"

    def test_metrics_exposes_fleet_counters(self, fleet_servers):
        fleet, servers, _ = fleet_servers
        with Router(fleet, port=0) as router:
            post(router.url + "/predict", {"features": [0.0] * 32})
            metrics = get(router.url + "/metrics", text=True)
            assert "repro_fleet_router_latency_ms_count" in metrics

    def test_unknown_route_404(self, fleet_servers):
        fleet, servers, _ = fleet_servers
        with Router(fleet, port=0) as router:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                get(router.url + "/nope")
            assert excinfo.value.code == 404

    def test_max_attempts_validated(self, fleet_servers):
        fleet, _, _ = fleet_servers
        with pytest.raises(ValueError):
            Router(fleet, max_attempts=0)


class TestWire:
    """Router responses are one write each, like the workers' (a routed
    request is two responses: the worker's, then the router's)."""

    @pytest.mark.parametrize("method, path, payload, statuses", [
        ("POST", "/predict", {"features": [0.0] * 32}, [200, 200]),
        ("POST", "/predict", {"features": "nope"}, [400, 400]),
        ("GET", "/nope", None, [404]),
        ("GET", "/metrics", None, [200]),
    ])
    def test_one_write_per_response(self, fleet_servers, handler_writes,
                                    method, path, payload, statuses):
        fleet, _, _ = fleet_servers
        with Router(fleet, port=0) as router:
            status = http_status(router.address, method, path, payload)
        assert status == statuses[-1]
        assert [whole_response_status(c)
                for c in handler_writes] == statuses

    def test_one_write_for_no_backend_503(self, fleet_servers,
                                          handler_writes):
        fleet, _, _ = fleet_servers
        fleet.set_healthy("w0", False)
        fleet.set_healthy("w1", False)
        with Router(fleet, port=0) as router:
            assert http_status(router.address, "POST", "/predict",
                               {"features": [0.0] * 32}) == 503
        assert [whole_response_status(c)
                for c in handler_writes] == [503]

    def test_keepalive_predict_median_under_20ms(self, fleet_servers):
        fleet, _, _ = fleet_servers
        body = json.dumps({"features": [0.0] * 32}).encode()
        with Router(fleet, port=0) as router:
            times = keepalive_predict_ms(router.address, body)
        assert statistics.median(times) < 20.0, times

    @pytest.mark.parametrize("value", ["abc", "-1"])
    def test_hostile_content_length_is_400_unread(self, fleet_servers,
                                                  value):
        fleet, _, _ = fleet_servers
        with Router(fleet, port=0) as router:
            status, headers, body, closed = post_with_content_length(
                router.address, value)
            assert status == 400
            assert json.loads(body)["request_id"] == headers["X-Trace-Id"]
            assert closed
            assert http_status(router.address, "GET", "/healthz") == 200

    @pytest.mark.parametrize("value", [str(MAX_BODY_BYTES + 1), "9" * 30])
    def test_oversized_content_length_is_413_unread(self, fleet_servers,
                                                    value):
        fleet, servers, _ = fleet_servers
        with Router(fleet, port=0) as router:
            status, headers, body, closed = post_with_content_length(
                router.address, value)
            assert status == 413
            assert json.loads(body)["request_id"] == headers["X-Trace-Id"]
            assert headers["Connection"] == "close" and closed
            assert http_status(router.address, "GET", "/healthz") == 200
        # Refused at the router: no worker saw the request.
        assert all(s.batcher.stats["submitted"] == 0 for s in servers)


class TestBroadcastReload:
    def test_good_bundle_reloads_everywhere(self, fleet_servers,
                                            synthetic_bundle, tmp_path):
        fleet, servers, _ = fleet_servers
        path = str(tmp_path / "next.npz")
        synthetic_bundle(seed=51).save(path)
        with Router(fleet, port=0) as router:
            out = post(router.url + "/reload", {"bundle": path})
        assert out["reloaded"] is True
        assert all(entry["status"] == 200
                   for entry in out["workers"].values())
        assert all(server.reloads == 1 for server in servers)

    def test_torn_bundle_rejected_everywhere_and_serving_survives(
            self, fleet_servers, synthetic_bundle, tmp_path):
        fleet, servers, engine = fleet_servers
        good = str(tmp_path / "good.npz")
        torn = str(tmp_path / "torn.npz")
        synthetic_bundle(seed=51).save(good)
        with open(good, "rb") as handle:
            blob = handle.read()
        with open(torn, "wb") as handle:
            handle.write(blob[: len(blob) // 2])

        rng = np.random.default_rng(55)
        features = rng.standard_normal((10, 32))
        before = counter("fleet.router.reload.rejected")
        with Router(fleet, port=0) as router:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(router.url + "/reload", {"bundle": torn})
            assert excinfo.value.code == 409
            assert counter("fleet.router.reload.rejected") == before + 1
            out = json.loads(excinfo.value.read())
            assert out["reloaded"] is False
            assert all(entry["status"] == 409
                       for entry in out["workers"].values())
            # Old engines keep serving, bit-exact.
            routed = []
            for row in features:
                routed.extend(post(router.url + "/predict",
                                   {"features": row.tolist()})["labels"])
        assert routed == [int(v) for v in
                          engine.predict_features(features)]
        assert all(server.reloads == 0 for server in servers)

    def test_default_mode_still_409_when_one_worker_down(
            self, fleet_servers, synthetic_bundle, tmp_path):
        fleet, servers, _ = fleet_servers
        mixed = StaticFleet([servers[0].address, servers[1].address,
                             ("127.0.0.1", free_port())])
        path = str(tmp_path / "next.npz")
        synthetic_bundle(seed=51).save(path)
        with Router(mixed, port=0) as router:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(router.url + "/reload", {"bundle": path})
            assert excinfo.value.code == 409

    def test_unknown_key_is_refused_by_every_worker(
            self, fleet_servers, synthetic_bundle, tmp_path):
        """The body is forwarded verbatim: each worker answers 400 to a
        key it does not know, so the fan-out is a 409 and nothing
        reloads."""
        fleet, servers, _ = fleet_servers
        path = str(tmp_path / "next.npz")
        synthetic_bundle(seed=51).save(path)
        before = counter("fleet.router.reload.rejected")
        with Router(fleet, port=0) as router:
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                post(router.url + "/reload",
                     {"bundle": path, "partial": "allow"})
            assert excinfo.value.code == 409
            out = json.loads(excinfo.value.read())
        assert out["reloaded"] is False
        assert [entry["status"] for entry in out["workers"].values()] \
            == [400] * len(servers)
        assert counter("fleet.router.reload.rejected") == before + 1
        assert all(server.reloads == 0 for server in servers)


class TestDrain:
    def test_draining_rejects_then_stops(self, fleet_servers):
        fleet, servers, _ = fleet_servers
        router = Router(fleet, port=0).start()
        url = router.url
        post(url + "/predict", {"features": [0.0] * 32})
        router.stop()
        # The listener is gone: connecting again must fail.
        with pytest.raises(urllib.error.URLError):
            post(url + "/predict", {"features": [0.0] * 32}, timeout=2)

    def test_request_mid_drain_is_rejected_and_counted(self,
                                                       fleet_servers):
        fleet, servers, _ = fleet_servers
        before = counter("fleet.router.draining_rejects")
        with Router(fleet, port=0) as router:
            router.draining = True
            status, payload, headers = router.route_predict(
                json.dumps({"features": [0.0] * 32}).encode("utf-8"))
        assert status == 503 and payload["retryable"] is True
        assert headers == {"Retry-After": "1"}
        assert counter("fleet.router.draining_rejects") == before + 1

    def test_drain_is_idempotent(self, fleet_servers):
        fleet, servers, _ = fleet_servers
        router = Router(fleet, port=0).start()
        router.drain()
        router.drain()
        router.stop()


class TestGoldenParity:
    def test_routed_bitexact_with_single_server_on_golden_bundle(self):
        """Acceptance: router answers == single-server answers on the
        committed golden fixtures (same bundle on every worker)."""
        bundle_path = os.path.join(FIXTURES,
                                   "golden_nshd_bundle_packed.npz")
        with np.load(os.path.join(FIXTURES,
                                  "golden_inputs.npz")) as archive:
            raw = np.asarray(archive["nshd.raw_features"])
        engine = InferenceEngine.from_path(bundle_path,
                                           build_extractor=False)
        servers = [ModelServer(
            InferenceEngine.from_path(bundle_path, build_extractor=False),
            port=0, max_batch_size=16, max_latency_ms=1.0,
            workers=1).start() for _ in range(2)]
        try:
            single = ModelServer(engine, port=0, max_batch_size=16,
                                 max_latency_ms=1.0, workers=1).start()
            try:
                fleet = StaticFleet([s.address for s in servers])
                with Router(fleet, port=0) as router:
                    routed, direct = [], []
                    for start in range(0, len(raw), 8):
                        chunk = raw[start:start + 8].tolist()
                        routed.extend(post(router.url + "/predict",
                                           {"features": chunk})["labels"])
                        direct.extend(post(single.url + "/predict",
                                           {"features": chunk})["labels"])
            finally:
                single.stop()
        finally:
            for server in servers:
                server.stop()
        assert routed == direct
        assert routed == [int(v) for v in engine.predict_features(raw)]
