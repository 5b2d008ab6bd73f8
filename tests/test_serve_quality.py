"""Model-quality observability on the serving path.

Covers the bundle → engine → server → router wiring of the streaming
drift monitors (:mod:`repro.telemetry.quality`) and the alert rules
engine (:mod:`repro.telemetry.alerts`): baseline capture at export
time, auto-enabled monitors in the engine, ``/driftz`` + ``/alertz``
endpoints, deep-health engine vitals, fleet-wide drift aggregation on
the router, and the serve CLI's ``[alerts]`` / quality config keys.
"""

import json
import urllib.request

import numpy as np
import pytest

from repro.data import make_dataset
from repro.hd.backend import unpack_bipolar
from repro.learn import VanillaHD
from repro.pipeline import stages
from repro.serve import BundleError, InferenceEngine, ModelBundle, ModelServer
from repro.serve.__main__ import _parse_args, build_server, load_config
from repro.serve.fleet import StaticFleet
from repro.serve.router import Router
from repro.telemetry import (MetricsRegistry, load_alert_rules,
                             use_registry)
from repro.telemetry.quality import QualityBaseline

from .conftest import _synthetic_bundle


def get(url, timeout=5.0):
    with urllib.request.urlopen(url, timeout=timeout) as response:
        return json.loads(response.read())


def post(url, payload, timeout=5.0):
    request = urllib.request.Request(
        url, json.dumps(payload).encode("utf-8"),
        {"Content-Type": "application/json"})
    with urllib.request.urlopen(request, timeout=timeout) as response:
        return json.loads(response.read())


def bundle_with_baseline(seed=0, features=16, classes=4, train=512):
    """Synthetic bundle + a baseline computed through its own engine
    (the same closure :meth:`ModelBundle._capture_baseline` sketches)."""
    bundle = _synthetic_bundle(dim=256, features=features,
                               classes=classes, seed=seed)
    engine = InferenceEngine(bundle, build_extractor=False)
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(train, features))
    sims = np.asarray(engine.similarities(
        unpack_bipolar(engine.encode_features(x), engine.dim)))
    bundle.info["quality_baseline"] = QualityBaseline.from_training(
        x, labels=np.argmax(sims, axis=1), num_classes=classes,
        similarities=sims).to_dict()
    return bundle


@pytest.fixture(scope="module")
def fitted_vanilla():
    x_tr, y_tr, *_ = make_dataset(num_classes=3, num_train=60,
                                  num_test=10, seed=11)
    pipeline = VanillaHD(num_classes=3, image_size=x_tr.shape[-1],
                         dim=256, seed=11)
    pipeline.fit(x_tr, y_tr, epochs=2)
    return pipeline, x_tr, y_tr


class TestBaselineExport:
    def test_from_pipeline_captures_baseline(self, fitted_vanilla):
        pipeline, x_tr, y_tr = fitted_vanilla
        feats = pipeline.graph.run(x_tr, stop="scale")
        bundle = ModelBundle.from_pipeline(
            pipeline, baseline_features=feats, baseline_labels=y_tr)
        section = bundle.info["quality_baseline"]
        baseline = QualityBaseline.from_dict(section)
        assert baseline.num_features == feats.shape[1]
        assert baseline.num_classes == 3
        assert baseline.n_samples == len(feats)
        assert baseline.margin  # similarity pass ran through the graph
        np.testing.assert_allclose(
            baseline.class_priors,
            np.bincount(y_tr, minlength=3) / len(y_tr))

    def test_baseline_survives_save_load(self, fitted_vanilla, tmp_path):
        pipeline, x_tr, y_tr = fitted_vanilla
        feats = pipeline.graph.run(x_tr, stop="scale")
        bundle = ModelBundle.from_pipeline(pipeline,
                                           baseline_features=feats)
        path = str(tmp_path / "bundle.npz")
        bundle.save(path)
        back = ModelBundle.load(path)
        restored = QualityBaseline.from_dict(
            back.info["quality_baseline"])
        np.testing.assert_allclose(restored.expected,
                                   QualityBaseline.from_dict(
                                       bundle.info["quality_baseline"]
                                   ).expected)

    def test_baseline_sample_subsamples_deterministically(
            self, fitted_vanilla):
        pipeline, x_tr, _ = fitted_vanilla
        feats = pipeline.graph.run(x_tr, stop="scale")
        one = ModelBundle.from_pipeline(pipeline, baseline_features=feats,
                                        baseline_sample=16)
        two = ModelBundle.from_pipeline(pipeline, baseline_features=feats,
                                        baseline_sample=16)
        assert one.info["quality_baseline"]["n_samples"] == 16
        assert one.info["quality_baseline"] == \
            two.info["quality_baseline"]

    def test_mismatched_labels_raise(self, fitted_vanilla):
        pipeline, x_tr, _ = fitted_vanilla
        feats = pipeline.graph.run(x_tr, stop="scale")
        with pytest.raises(BundleError, match="rows"):
            ModelBundle.from_pipeline(pipeline, baseline_features=feats,
                                      baseline_labels=np.zeros(3))

    def test_no_baseline_by_default(self, fitted_vanilla):
        bundle = ModelBundle.from_pipeline(fitted_vanilla[0])
        assert "quality_baseline" not in bundle.info


class TestEngineWiring:
    def test_auto_enabled_with_baseline(self):
        engine = InferenceEngine(bundle_with_baseline(),
                                 build_extractor=False)
        assert engine.quality is not None
        assert engine.describe()["quality"]["samples"] == 0

    def test_disabled_without_baseline(self):
        engine = InferenceEngine(_synthetic_bundle(seed=1),
                                 build_extractor=False)
        assert engine.quality is None
        assert engine.describe()["quality"] is None

    def test_forcing_quality_without_baseline_raises(self):
        with pytest.raises(BundleError, match="quality_baseline"):
            InferenceEngine(_synthetic_bundle(seed=1),
                            build_extractor=False, quality=True)

    def test_quality_false_opts_out(self):
        engine = InferenceEngine(bundle_with_baseline(),
                                 build_extractor=False, quality=False)
        assert engine.quality is None

    def test_predictions_feed_the_monitor(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = InferenceEngine(bundle_with_baseline(),
                                     build_extractor=False,
                                     quality_window=128)
            engine.quality.min_samples = 32
            rng = np.random.default_rng(0)
            engine.predict_features(rng.normal(size=(64, 16)))
            assert engine.quality.samples == 64
            assert registry.get("quality.samples").value == 64
            assert registry.get("quality.margin").count == 64
            engine.predict_features(4 + rng.normal(size=(64, 16)))
            assert registry.get("quality.feature.psi_max").value > 0.25

    def test_monitor_failure_never_fails_serving(self):
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = InferenceEngine(bundle_with_baseline(),
                                     build_extractor=False)
            engine.quality.observe = lambda *a, **k: 1 / 0
            labels = engine.predict_features(
                np.random.default_rng(0).normal(size=(4, 16)))
            assert len(labels) == 4
            assert registry.get("quality.monitor_errors").value == 1


class TestClassifyOnce:
    """``predict_features`` ranks each batch once; the drift monitor is
    fed the score matrix the classify stage ranked."""

    @staticmethod
    def _spy(engine):
        fed = []
        observe = engine.quality.observe

        def spy(*args, **kwargs):
            fed.append(kwargs["similarities"])
            return observe(*args, **kwargs)
        engine.quality.observe = spy
        return fed

    @pytest.mark.parametrize("use_packed", [None, False])
    def test_one_classify_pass_per_call(self, monkeypatch, use_packed):
        engine = InferenceEngine(bundle_with_baseline(seed=4),
                                 build_extractor=False,
                                 use_packed=use_packed)
        assert engine.use_packed is (use_packed is None)
        calls = {"cosine_similarities": 0, "packed_cosine_similarity": 0}
        for name in calls:
            kernel = getattr(stages, name)

            def counted(*args, _kernel=kernel, _name=name, **kwargs):
                calls[_name] += 1
                return _kernel(*args, **kwargs)
            monkeypatch.setattr(stages, name, counted)
        rng = np.random.default_rng(4)
        for rows in (64, 1, 3):
            engine.predict_features(rng.normal(size=(rows, 16)))
        ran = ("packed_cosine_similarity" if engine.use_packed
               else "cosine_similarities")
        assert calls[ran] == 3
        assert sum(calls.values()) == 3
        assert engine.quality.samples == 68

    def test_packed_scores_match_the_float_engine(self):
        bundle = bundle_with_baseline(seed=5)
        x = np.random.default_rng(5).normal(size=(200, 16))
        fed, summaries = {}, {}
        for use_packed in (True, False):
            registry = MetricsRegistry()
            with use_registry(registry):
                engine = InferenceEngine(bundle, build_extractor=False,
                                         use_packed=use_packed)
                fed[use_packed] = self._spy(engine)
                engine.predict_features(x[:64])
                engine.predict_features(x[64:])
            summaries[use_packed] = {
                name: registry.get(f"quality.{name}").summary()
                for name in ("confidence", "margin")}
        for packed, floating in zip(fed[True], fed[False]):
            np.testing.assert_allclose(packed, floating, rtol=0,
                                       atol=1e-12)
        for name in ("confidence", "margin"):
            packed, floating = summaries[True][name], summaries[False][name]
            assert packed["count"] == floating["count"] == 200
            for key in ("mean", "min", "max", "p50", "p95", "p99"):
                assert abs(packed[key] - floating[key]) <= 1e-12, \
                    (name, key)

    def test_float_engine_feeds_the_ranked_matrix(self):
        engine = InferenceEngine(bundle_with_baseline(seed=6),
                                 build_extractor=False, use_packed=False)
        fed = self._spy(engine)
        x = np.random.default_rng(6).normal(size=(32, 16))
        labels = engine.predict_features(x)
        want = engine.similarities(engine.encode_features(x))
        np.testing.assert_array_equal(fed[0], want)
        np.testing.assert_array_equal(labels, want.argmax(axis=1))


@pytest.fixture
def quality_server():
    registry = MetricsRegistry()
    with use_registry(registry):
        engine = InferenceEngine(bundle_with_baseline(),
                                 build_extractor=False,
                                 quality_window=256)
        engine.quality.min_samples = 64
        rules = load_alert_rules([
            {"name": "feature-drift",
             "metric": "quality.feature.psi_max",
             "op": ">", "threshold": 0.25},
        ])
        server = ModelServer(engine, port=0, max_latency_ms=1.0,
                             workers=1, alert_rules=rules,
                             alert_interval_s=0.05).start()
        try:
            yield server, registry
        finally:
            server.stop()


class TestServerEndpoints:
    def test_driftz_and_alertz_lifecycle(self, quality_server):
        server, _ = quality_server
        rng = np.random.default_rng(4)
        assert get(server.url + "/driftz")["enabled"]
        assert get(server.url + "/alertz")["firing"] == []
        for _ in range(2):
            post(server.url + "/predict",
                 {"features": rng.normal(size=(64, 16)).tolist()})
        clean = get(server.url + "/driftz")
        assert clean["feature"]["psi_max"] < 0.25
        assert get(server.url + "/alertz")["firing"] == []
        for _ in range(5):
            post(server.url + "/predict",
                 {"features": (4 + rng.normal(size=(64, 16))).tolist()})
        drifted = get(server.url + "/driftz")
        assert drifted["feature"]["psi_max"] > 0.25
        alerts = get(server.url + "/alertz")
        assert alerts["firing"] == ["feature-drift"]
        (status,) = [s for s in alerts["rules"]
                     if s["rule"]["name"] == "feature-drift"]
        assert status["state"] == "firing"
        assert status["fire_count"] >= 1

    def test_alert_state_gauges_in_metrics(self, quality_server):
        server, registry = quality_server
        get(server.url + "/alertz")  # force one evaluation
        assert "alert.state.feature-drift" in registry

    def test_driftz_disabled_without_monitor(self):
        engine = InferenceEngine(_synthetic_bundle(seed=2),
                                 build_extractor=False)
        with ModelServer(engine, port=0, workers=1) as server:
            assert get(server.url + "/driftz") == {"enabled": False}
            alerts = get(server.url + "/alertz")
            assert alerts == {"enabled": False, "rules": [],
                              "firing": []}

    def test_deep_health_engine_vitals(self, quality_server):
        server, _ = quality_server
        shallow = get(server.url + "/healthz")
        assert "engine_vitals" not in shallow
        for _ in range(2):  # repeat request → second hits the LRU
            payload = post(server.url + "/predict",
                           {"features": [[0.5] * 16]})
            assert len(payload["labels"]) == 1
        deep = get(server.url + "/healthz?deep=1")
        vitals = deep["engine_vitals"]
        assert vitals["packed_path"] is True
        assert vitals["quality_monitor"] is True
        assert vitals["last_reload_ts"] is None
        assert vitals["uptime_s"] > 0
        assert vitals["cache_hit_rate"] is not None
        assert vitals["cache_hit_rate"] > 0

    def test_reload_stamps_last_reload_ts(self, tmp_path):
        path = str(tmp_path / "bundle.npz")
        bundle_with_baseline(seed=7).save(path)
        engine = InferenceEngine.from_path(path, build_extractor=False)
        with ModelServer(engine, port=0, workers=1,
                         bundle_path=path,
                         engine_options={"build_extractor": False}
                         ) as server:
            assert server.last_reload_ts is None
            server.reload()
            assert server.last_reload_ts is not None
            vitals = get(server.url
                         + "/healthz?deep=1")["engine_vitals"]
            assert vitals["last_reload_ts"] == pytest.approx(
                server.last_reload_ts)


class TestRouterAggregation:
    def test_fleet_driftz_rollup(self):
        bundle = bundle_with_baseline(seed=9)
        servers = [ModelServer(
            InferenceEngine(bundle, build_extractor=False,
                            quality_window=128),
            port=0, max_latency_ms=1.0, workers=1).start()
            for _ in range(2)]
        for server in servers:
            server.engine.quality.min_samples = 32
        fleet = StaticFleet([server.address for server in servers])
        rng = np.random.default_rng(9)
        try:
            with Router(fleet, port=0) as router:
                # Drift only worker 0; the rollup takes the fleet max.
                post(servers[0].url + "/predict",
                     {"features": (4 + rng.normal(size=(64, 16))
                                   ).tolist()})
                post(servers[1].url + "/predict",
                     {"features": rng.normal(size=(64, 16)).tolist()})
                payload = get(router.url + "/driftz")
                assert payload["enabled"]
                fleet_view = payload["fleet"]
                assert fleet_view["workers_reporting"] == 2
                assert fleet_view["samples"] == 128
                assert fleet_view["feature_psi_max"] > 0.25
                assert payload["workers"]["w0"]["feature"]["psi_max"] \
                    > payload["workers"]["w1"]["feature"]["psi_max"]
        finally:
            for server in servers:
                server.stop()

    def test_router_alertz_over_fleet_gauges(self):
        fleet = StaticFleet([])
        rules = load_alert_rules([
            {"name": "no-drift-data",
             "metric": "fleet.quality.heartbeat",
             "kind": "absence"}])
        with Router(fleet, port=0, alert_rules=rules) as router:
            payload = get(router.url + "/alertz")
            assert payload["firing"] == ["no-drift-data"]

    def test_router_alertz_disabled_without_rules(self):
        with Router(StaticFleet([]), port=0) as router:
            assert get(router.url + "/alertz")["enabled"] is False


class TestCliConfig:
    def test_alerts_section_parses_rules(self, tmp_path):
        path = tmp_path / "serve.toml"
        path.write_text(
            "[engine]\nquality = false\nquality_window = 128\n"
            "[alerts]\ninterval_s = 0.5\n"
            '[[alerts.rules]]\nname = "drift"\n'
            'metric = "quality.feature.psi_max"\nthreshold = 0.25\n'
            'for_s = 2.0\n'
            '[[alerts.rules]]\nname = "silent"\n'
            'metric = "quality.samples"\nkind = "absence"\n')
        config = load_config(str(path))
        assert config["quality"] is False
        assert config["quality_window"] == 128
        assert config["alert_interval_s"] == 0.5
        names = [rule.name for rule in config["alert_rules"]]
        assert names == ["drift", "silent"]
        assert config["alert_rules"][0].for_s == 2.0

    def test_malformed_rule_fails_at_load(self, tmp_path):
        path = tmp_path / "serve.toml"
        path.write_text('[[alerts.rules]]\nname = "bad"\n'
                        'metric = "m"\nkind = "nope"\n')
        with pytest.raises(Exception, match="kind"):
            load_config(str(path))

    def test_unknown_alerts_key_raises(self, tmp_path):
        path = tmp_path / "serve.toml"
        path.write_text("[alerts]\ninterval = 1.0\n")
        with pytest.raises(ValueError, match="alerts.interval"):
            load_config(str(path))

    def test_build_server_wires_alerts_and_quality(self, tmp_path):
        bundle_path = str(tmp_path / "bundle.npz")
        bundle_with_baseline(seed=3).save(bundle_path)
        config = tmp_path / "serve.toml"
        config.write_text(
            "[engine]\nquality_window = 96\nbuild_extractor = false\n"
            "[alerts]\ninterval_s = 0.25\n"
            '[[alerts.rules]]\nname = "drift"\n'
            'metric = "quality.feature.psi_max"\nthreshold = 0.25\n')
        server = build_server(_parse_args(
            [bundle_path, "--config", str(config), "--port", "0"]))
        try:
            assert server.engine.quality is not None
            assert server.engine.quality.window == 96
            assert server.alerts is not None
            assert [r.name for r in server.alerts.rules] == ["drift"]
            assert server.alert_interval_s == 0.25
        finally:
            server.stop()

    def test_quality_opt_out_via_config(self, tmp_path):
        bundle_path = str(tmp_path / "bundle.npz")
        bundle_with_baseline(seed=3).save(bundle_path)
        config = tmp_path / "serve.toml"
        config.write_text("[engine]\nquality = false\n"
                          "build_extractor = false\n")
        server = build_server(_parse_args(
            [bundle_path, "--config", str(config), "--port", "0"]))
        try:
            assert server.engine.quality is None
            assert server.alerts is None
        finally:
            server.stop()
