"""Hot bundle reload: atomic engine swap, torn-bundle rejection, SIGHUP."""

import json
import signal
import threading
import urllib.error
import urllib.request

import numpy as np
import pytest

from repro.serve import (InferenceEngine, ModelBundle, ModelServer,
                         ReloadError)
from repro.telemetry import get_registry

from .conftest import _synthetic_bundle, save_version_1


def post(url, payload=None, timeout=30):
    data = (b"" if payload is None
            else json.dumps(payload).encode("utf-8"))
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def get(url, timeout=10):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read())


@pytest.fixture
def bundles(tmp_path):
    """Two structurally different on-disk bundles (float vs packed)."""
    a = str(tmp_path / "a.npz")
    b = str(tmp_path / "b.npz")
    _synthetic_bundle(seed=1, binary=False).save(a)
    _synthetic_bundle(seed=2, binary=True).save(b)
    return a, b


@pytest.fixture
def server(bundles):
    path_a, _ = bundles
    engine = InferenceEngine.from_path(path_a, cache_size=16)
    with ModelServer(engine, port=0, workers=1,
                     bundle_path=path_a) as srv:
        yield srv


class TestReloadMethod:
    def test_reload_reads_the_bundle_once(self, server, bundles,
                                          bundle_reads):
        _, path_b = bundles
        server.reload(path_b)
        assert bundle_reads == [path_b]

    def test_reload_swaps_engine(self, server, bundles):
        _, path_b = bundles
        old_engine = server.engine
        info = server.reload(path_b)
        assert info["reloaded"] is True
        assert info["reloads"] == 1
        assert server.engine is not old_engine
        assert server.bundle_path == path_b
        # the new engine really is the packed one
        assert server.engine.use_packed

    def test_reload_same_path_by_default(self, server, bundles):
        path_a, _ = bundles
        info = server.reload()
        assert info["bundle_path"] == path_a
        assert server.reloads == 1

    def test_predictions_switch_after_reload(self, server, bundles):
        _, path_b = bundles
        rng = np.random.default_rng(0)
        features = rng.standard_normal((4, 32))
        before, _ = server.predict(features)
        server.reload(path_b)
        after, _ = server.predict(features)
        want = InferenceEngine.from_path(path_b).predict_features(features)
        assert after == [int(v) for v in want]
        # engines differ, so at least the model fingerprint changed
        assert (server.engine.bundle.info["config_fingerprint"]
                != ModelBundle.load(bundles[0]).info["config_fingerprint"])
        assert isinstance(before, list)

    def test_missing_file_raises_and_keeps_engine(self, server):
        old_engine = server.engine
        with pytest.raises(ReloadError, match="rejected"):
            server.reload("/nonexistent/bundle.npz")
        assert server.engine is old_engine
        assert server.reloads == 0

    def test_torn_bundle_rejected(self, server, bundles, tmp_path):
        path_a, _ = bundles
        torn = str(tmp_path / "torn.npz")
        with open(path_a, "rb") as handle:
            blob = handle.read()
        with open(torn, "wb") as handle:
            handle.write(blob[:len(blob) // 2])  # truncated mid-write
        old_engine = server.engine
        with pytest.raises(ReloadError, match="previous engine"):
            server.reload(torn)
        assert server.engine is old_engine

    def test_no_path_configured_raises(self, bundles):
        path_a, _ = bundles
        engine = InferenceEngine.from_path(path_a)
        with ModelServer(engine, port=0, workers=1) as srv:
            with pytest.raises(ReloadError, match="no bundle path"):
                srv.reload()

    def test_engine_options_survive_reload(self, bundles):
        path_a, path_b = bundles
        engine = InferenceEngine.from_path(path_a, cache_size=7)
        with ModelServer(engine, port=0, workers=1, bundle_path=path_a,
                         engine_options={"cache_size": 7}) as srv:
            srv.reload(path_b)
            assert srv.engine.cache_info()["max_entries"] == 7


class TestReloadHTTP:
    def test_post_reload_success(self, server, bundles):
        _, path_b = bundles
        out = post(server.url + "/reload", {"bundle": path_b})
        assert out["reloaded"] is True
        assert out["engine"]["packed"] is True
        health = get(server.url + "/healthz")
        assert health["reloads"] == 1
        assert health["bundle"]["path"] == path_b
        assert "bundle_path" not in health

    def test_post_reload_empty_body_rereads_configured_path(self, server):
        out = post(server.url + "/reload")
        assert out["reloaded"] is True

    def test_post_reload_bad_path_is_409(self, server):
        rejected = get_registry().counter("serve.reload.rejected")
        before = rejected.value
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server.url + "/reload", {"bundle": "/no/such.npz"})
        assert excinfo.value.code == 409
        assert rejected.value == before + 1
        body = json.loads(excinfo.value.read())
        assert body["reloaded"] is False
        # old engine still serves
        rng = np.random.default_rng(1)
        out = post(server.url + "/predict",
                   {"features": rng.standard_normal((2, 32)).tolist()})
        assert len(out["labels"]) == 2

    def test_post_reload_non_bipolar_projection_is_409(self, server,
                                                       tmp_path):
        bundle = _synthetic_bundle(seed=3, binary=True)
        projection = bundle.arrays["encoder.projection"].copy()
        projection[0, 0] = 0.5
        bundle.arrays["encoder.projection"] = projection
        bad = str(tmp_path / "half.npz")
        save_version_1(bundle, bad)
        old_engine = server.engine
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server.url + "/reload", {"bundle": bad})
        assert excinfo.value.code == 409
        body = json.loads(excinfo.value.read())
        assert body["reloaded"] is False
        assert "not bipolar" in body["error"]
        assert server.engine is old_engine

    def test_post_reload_invalid_json_is_400(self, server):
        request = urllib.request.Request(
            server.url + "/reload", data=b"{not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=10)
        assert excinfo.value.code == 400

    def test_post_reload_non_dict_body_is_400(self, server):
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server.url + "/reload", ["not", "a", "dict"])
        assert excinfo.value.code == 400

    @pytest.mark.parametrize("body", [
        {"bundel": "b"}, {"bundle": "b", "partial": "allow"},
        {"bundle": 5}])
    def test_post_reload_other_keys_are_400_and_nothing_reloads(
            self, server, bundles, body):
        # A mistyped key must not fall back to re-reading the configured
        # bundle and answer 200 as if the requested one were served.
        _, path_b = bundles
        body = {key: path_b if value == "b" else value
                for key, value in body.items()}
        old_engine = server.engine
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            post(server.url + "/reload", body)
        assert excinfo.value.code == 400
        assert "bundle" in json.loads(excinfo.value.read())["error"]
        assert server.engine is old_engine
        assert server.reloads == 0
        assert server.bundle_path == bundles[0]

    def test_reload_metrics_counted(self, server, bundles):
        _, path_b = bundles
        registry = get_registry()
        before = registry.snapshot().get("serve.reload.success",
                                         {}).get("value", 0)
        post(server.url + "/reload", {"bundle": path_b})
        after = registry.snapshot()["serve.reload.success"]["value"]
        assert after == before + 1


class TestSignalHandler:
    def test_install_on_main_thread(self, server):
        previous = signal.getsignal(signal.SIGHUP)
        try:
            assert server.install_signal_handlers() is True
            handler = signal.getsignal(signal.SIGHUP)
            assert callable(handler)
            # Invoking the handler performs a reload of the configured
            # bundle (exactly what a real SIGHUP delivery does).
            handler(signal.SIGHUP, None)
            assert server.reloads == 1
        finally:
            signal.signal(signal.SIGHUP, previous)

    def test_handler_swallows_reload_failure(self, server):
        previous = signal.getsignal(signal.SIGHUP)
        try:
            server.install_signal_handlers()
            handler = signal.getsignal(signal.SIGHUP)
            server.bundle_path = "/vanished/bundle.npz"
            rejected = get_registry().counter("serve.reload.rejected")
            before = rejected.value
            handler(signal.SIGHUP, None)  # must not raise
            assert server.reloads == 0
            assert rejected.value == before + 1
        finally:
            signal.signal(signal.SIGHUP, previous)

    def test_install_refused_off_main_thread(self, server):
        result = {}

        def worker():
            result["installed"] = server.install_signal_handlers()

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert result["installed"] is False
