"""Model-quality observability on the serving path.

Covers the bundle → engine → server → router wiring of the streaming
drift monitors (:mod:`repro.telemetry.quality`) and the alert rules
engine (:mod:`repro.telemetry.alerts`): baseline capture at export
time, auto-enabled monitors in the engine, ``/driftz`` + ``/alertz``
endpoints, deep-health engine vitals, fleet-wide drift aggregation on
the router, and the serve CLI's ``[alerts]`` / quality config keys.
"""

import math
import os
import sys
import threading
import urllib.error

import numpy as np
import pytest

from repro.data import make_dataset
from repro.learn import VanillaHD
from repro.pipeline import stages
from repro.serve import (BundleError, InferenceEngine, ModelBundle,
                         ModelServer, ReloadError)
from repro.serve.__main__ import (_parse_args, build_server, load_config,
                                  main)
from repro.serve.fleet import StaticFleet
from repro.serve.router import Router
from repro.telemetry import (MetricsRegistry, load_alert_rules,
                             use_registry)
from repro.telemetry.quality import DriftMonitor, QualityBaseline

from .conftest import _synthetic_bundle, get, post

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")
NSHD_BUNDLE = os.path.join(FIXTURES, "golden_nshd_bundle_packed.npz")


def bundle_with_baseline(seed=0, features=16, classes=4, train=512):
    """Synthetic bundle + a baseline captured through its own graph."""
    bundle = _synthetic_bundle(dim=256, features=features,
                               classes=classes, seed=seed)
    bundle.capture_baseline(
        np.random.default_rng(seed).normal(size=(train, features)))
    return bundle


def golden_rows(count, seed, key="nshd.raw_features"):
    """``count`` jittered copies of a golden pipeline's raw features."""
    with np.load(os.path.join(FIXTURES, "golden_inputs.npz")) as golden:
        raw = golden[key]
    rng = np.random.default_rng(seed)
    rows = raw[rng.integers(0, len(raw), size=count)]
    return rows + 0.05 * (raw.std(axis=0) + 1e-3) * rng.standard_normal(
        rows.shape)


def manifold_bundle():
    """The golden NSHD bundle (1024 raw features, a manifold stage to
    F̂ = 16) with a baseline captured at its reduce output."""
    bundle = ModelBundle.load(NSHD_BUNDLE)
    bundle.capture_baseline(golden_rows(512, seed=0))
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
        calls = {"cosine_similarity": 0, "packed_cosine_similarity": 0}
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
               else "cosine_similarity")
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
                name: registry.get(name).summary()
                for name in ("quality.confidence", "quality.margin")}
        for packed, floating in zip(fed[True], fed[False]):
            np.testing.assert_allclose(packed, floating, rtol=0,
                                       atol=1e-12)
        for name in ("quality.confidence", "quality.margin"):
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


class TestServedFold:
    """The engine writes every served batch into its drift window after
    the model answers; 256-row batches of 128 features wrap the rings."""

    FEATURES = 128
    ROWS = 256

    @pytest.fixture(scope="class")
    def wide_bundle(self):
        return bundle_with_baseline(seed=8, features=self.FEATURES)

    def _batches(self, seed, count=4):
        rng = np.random.default_rng(seed)
        return [rng.normal(size=(self.ROWS + i, self.FEATURES))
                for i in range(count)]

    @pytest.mark.parametrize("use_packed", [True, False])
    def test_labels_and_window_match_a_direct_fold(self, wide_bundle,
                                                   use_packed):
        plain = InferenceEngine(wide_bundle, build_extractor=False,
                                use_packed=use_packed, quality=False)
        engine = InferenceEngine(wide_bundle, build_extractor=False,
                                 use_packed=use_packed, quality_window=512)
        ref = DriftMonitor(engine.quality.baseline, window=512,
                           registry=MetricsRegistry())
        for x in self._batches(8):
            want = plain.predict_features(x)
            np.testing.assert_array_equal(engine.predict_features(x), want)
            ref.observe(x, labels=want)
        ran = engine.quality
        for name in ("_bin_ring", "_feat_ring", "_label_ring"):
            np.testing.assert_array_equal(getattr(ran, name),
                                          getattr(ref, name),
                                          err_msg=name)
        assert (ran.samples, ran._pos, ran._size) == \
            (ref.samples, ref._pos, ref._size)
        got, want = ran.snapshot(), ref.snapshot()
        for key in ("window", "feature", "prediction"):
            assert got[key] == want[key], key

    @pytest.mark.parametrize("use_packed", [True, False])
    def test_lru_hits_feed_the_monitor_what_misses_would(self,
                                                         use_packed):
        """On a reduce-tap bundle the LRU keeps each row's reduce output
        beside its encoding: a stream of repeated rows leaves the same
        labels and window with the LRU as without it."""
        bundle = manifold_bundle()
        engines = [InferenceEngine(bundle, build_extractor=False,
                                   use_packed=use_packed, cache_size=size,
                                   quality_window=128)
                   for size in (256, 0)]
        pool = golden_rows(40, seed=11)
        rng = np.random.default_rng(11)
        # A row is stored on its second sighting and hits from its
        # third: the second draw of ROWS rows hits nearly throughout.
        batches = [pool[:8], pool[[0, 8, 8, 1, 9, 0]],
                   pool[rng.integers(0, 40, size=self.ROWS)],
                   pool[rng.integers(0, 40, size=self.ROWS)], pool[[3]],
                   pool[[3, 3]], pool[10:40], pool[:0], pool[[39, 20]]]
        for x in batches:
            cached, uncached = (engine.predict_features(x)
                                for engine in engines)
            np.testing.assert_array_equal(cached, uncached)
        assert engines[0].use_packed is use_packed
        assert engines[0].cache_info()["hits"] > 100
        ran, ref = (engine.quality for engine in engines)
        assert ran.baseline.tap == "reduce"
        assert ran._feat_ring.shape[1] == 16  # F̂, not the 1024 inputs
        for name in ("_bin_ring", "_label_ring"):
            np.testing.assert_array_equal(getattr(ran, name),
                                          getattr(ref, name),
                                          err_msg=name)
        got, want = ran.snapshot(), ref.snapshot()
        assert got["window"] == want["window"]
        assert got["prediction"] == want["prediction"]
        for key in ("psi_max", "psi_mean", "top"):
            assert got["feature"][key] == want["feature"][key], key
        # BLAS reduces a 1-row batch in another order than a row of a
        # larger one (about 1 ulp apart), so the uncached engine's own
        # reduce rows depend on their batch; the sums agree to that.
        np.testing.assert_allclose(ran._feat_ring.sum(axis=0),
                                   ref._feat_ring.sum(axis=0),
                                   rtol=1e-13, atol=0)
        assert ran.samples == ref.samples == sum(map(len, batches))

    def test_concurrent_callers_and_a_reader(self, wide_bundle):
        engine = InferenceEngine(wide_bundle, build_extractor=False,
                                 quality_window=256)
        errors = []
        done = threading.Event()

        def send(seed):
            try:
                for x in self._batches(seed, count=6):
                    engine.predict_features(x)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        def read():
            while not done.is_set():
                engine.quality.snapshot()

        reader = threading.Thread(target=read)
        senders = [threading.Thread(target=send, args=(seed,))
                   for seed in (1, 2, 3)]
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            reader.start()
            for thread in senders:
                thread.start()
            for thread in senders:
                thread.join(timeout=60)
        finally:
            done.set()
            reader.join(timeout=60)
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in senders + [reader])
        assert not errors
        monitor = engine.quality
        sent = {tuple(row) for seed in (1, 2, 3)
                for x in self._batches(seed, count=6) for row in x}
        held = {tuple(row) for row in monitor._feat_ring}
        assert len(held) == 256 and held <= sent
        assert monitor.samples == 3 * sum(len(x)
                                          for x in self._batches(0, 6))
        window = monitor.snapshot()["window"]
        assert (window["size"], window["labeled"]) == (256, 256)

    def test_a_raising_monitor_never_fails_serving(self, wide_bundle):
        registry = MetricsRegistry()
        with use_registry(registry):
            engine = InferenceEngine(wide_bundle, build_extractor=False)
            engine.quality.observe = lambda *a, **k: 1 / 0
            x = self._batches(3, count=1)[0]
            labels = engine.predict_features(x)
            assert len(labels) == len(x)
            assert registry.get("quality.monitor_errors").value == 1

    def test_wrong_width_leaves_the_monitor_untouched(self, wide_bundle):
        engine = InferenceEngine(wide_bundle, build_extractor=False)
        wide = np.zeros((self.ROWS, self.FEATURES + 1))
        with pytest.raises(ValueError):
            engine.predict_features(wide)
        with ModelServer(engine, port=0, workers=1) as server:
            with pytest.raises(urllib.error.HTTPError) as refused:
                post(server.url + "/predict", {"features": wide.tolist()})
            assert refused.value.code == 400
        assert engine.quality.samples == 0
        assert engine.quality._size == 0

    def test_failed_graph_leaves_the_window_untouched(self, wide_bundle,
                                                      monkeypatch):
        engine = InferenceEngine(wide_bundle, build_extractor=False)

        def broken(*args, **kwargs):
            raise RuntimeError("classify failed")
        monkeypatch.setattr(engine.graph, "run", broken)
        with pytest.raises(RuntimeError):
            engine.predict_features(self._batches(4, count=1)[0])
        assert engine.quality.samples == 0
        assert engine.quality._size == 0


class TestBaselineTap:
    """A bundle with a manifold stage is monitored at its reduce output;
    older baselines and reduce-free graphs at the raw input."""

    def test_manifold_export_watches_the_reduce_output(self):
        bundle = manifold_bundle()
        baseline = QualityBaseline.from_dict(
            bundle.info["quality_baseline"])
        assert (baseline.tap, baseline.num_features) == ("reduce", 16)
        engine = InferenceEngine(bundle, build_extractor=False)
        x = golden_rows(64, seed=1)
        engine.predict_features(x)
        want = engine.graph.run(x, start="scale", stop="encode")
        np.testing.assert_array_equal(engine.quality._feat_ring[:64], want)

    def test_version_1_baseline_is_observed_at_input_width(self):
        bundle = ModelBundle.load(NSHD_BUNDLE)
        data = QualityBaseline.from_training(
            golden_rows(256, seed=2), num_classes=4).to_dict()
        data["version"] = 1
        del data["tap"]
        bundle.info["quality_baseline"] = data
        engine = InferenceEngine(bundle, build_extractor=False)
        assert engine.quality.baseline.tap == "input"
        assert not engine._cache.keep_taps
        x = golden_rows(32, seed=3)
        for _ in range(3):  # the third pass's LRU hits observe them too
            engine.predict_features(x)
        assert engine.cache_info()["hits"] == 32
        assert engine.quality.samples == 96
        np.testing.assert_array_equal(engine.quality._feat_ring[:96],
                                      np.vstack([x] * 3))

    def test_promotion_keeps_the_tap(self):
        bundle = manifold_bundle()
        baseline = QualityBaseline.from_dict(
            bundle.info["quality_baseline"])
        assert baseline.with_class_priors([1, 2, 3, 4, 5]).tap == "reduce"
        grown = np.vstack([bundle.class_matrix(), np.ones((1, 256))])
        child = bundle.promoted(grown, class_priors=np.full(5, 0.2))
        back = QualityBaseline.from_dict(child.info["quality_baseline"])
        assert (back.tap, back.num_features, back.num_classes) \
            == ("reduce", 16, 5)
        engine = InferenceEngine(child, build_extractor=False)
        engine.predict_features(golden_rows(8, seed=4))
        assert engine.quality.samples == 8

    def test_reduce_free_exports_keep_a_raw_baseline(self, fitted_vanilla):
        pipeline, x_tr, _ = fitted_vanilla
        feats = pipeline.graph.run(x_tr, stop="scale")
        vanilla = QualityBaseline.from_dict(ModelBundle.from_pipeline(
            pipeline, baseline_features=feats).info["quality_baseline"])
        assert (vanilla.tap, vanilla.num_features) \
            == ("input", feats.shape[1])
        baseline_hd = ModelBundle.load(
            os.path.join(FIXTURES, "golden_baselinehd_bundle.npz"))
        baseline_hd.capture_baseline(
            golden_rows(128, seed=5, key="baselinehd.raw_features"))
        raw = QualityBaseline.from_dict(
            baseline_hd.info["quality_baseline"])
        assert (raw.tap, raw.num_features) == ("input", 1024)
        assert bundle_with_baseline().info["quality_baseline"]["tap"] \
            == "input"

    def test_describe_and_driftz_name_the_tap(self):
        bundle = manifold_bundle()
        engine = InferenceEngine(bundle, build_extractor=False)
        assert engine.quality.baseline.describe()["tap"] == "reduce"
        assert engine.describe()["quality"]["tap"] == "reduce"
        with ModelServer(engine, port=0, workers=1) as server:
            post(server.url + "/predict",
                 {"features": golden_rows(64, seed=6).tolist()})
            driftz = get(server.url + "/driftz")
        assert driftz["baseline"]["tap"] == "reduce"
        assert driftz["baseline"]["features"] == 16
        assert all(0 <= row["feature"] < 16
                   for row in driftz["feature"]["top"])


def _narrow_baseline(info):
    info["quality_baseline"] = QualityBaseline.from_training(
        np.random.default_rng(0).normal(size=(64, 32)),
        num_classes=info["num_classes"]).to_dict()


def _short_priors(info):
    info["quality_baseline"]["class_priors"] = [0.5, 0.5]


def _no_bin_edges(info):
    del info["quality_baseline"]["bin_edges"]


def _future_version(info):
    info["quality_baseline"]["version"] = 99


def _ragged_expected(info):
    info["quality_baseline"]["expected"][0] = [1.0]


def _non_finite(field, value=math.nan):
    """Put ``value`` into the first number of a baseline field (a list,
    a list of rows, or a quantile dict)."""
    def edit(info):
        values = info["quality_baseline"][field]
        if isinstance(values, dict):
            values["p50"] = value
            return
        if isinstance(values[0], list):
            values = values[0]
        values[0] = value
    return edit


def _priors(*values):
    def edit(info):
        info["quality_baseline"]["class_priors"] = list(values)
    return edit



class TestBaselineValidation:
    """A ``quality_baseline`` section the engine could not monitor with is
    a :class:`BundleError`, so ``/reload`` refuses it with a 409."""

    EDITS = {
        "features but its 'input' tap emits 1024": _narrow_baseline,
        "2 class priors but the bundle has 4": _short_priors,
        "malformed.*bin_edges": _no_bin_edges,
        "malformed.*version 99": _future_version,
        "malformed: ValueError": _ragged_expected,
        "feature_mean is not all finite": _non_finite("feature_mean"),
        "feature_std is not all finite": _non_finite("feature_std"),
        "bin_edges is not all finite": _non_finite("bin_edges"),
        "expected is not all finite": _non_finite("expected", math.inf),
        "class_priors is not all finite": _non_finite("class_priors"),
        "margin is not all finite": _non_finite("margin", -math.inf),
        "confidence is not all finite": _non_finite("confidence", "high"),
        "class_priors must be >= 0": _priors(-0.5, 0.5, 0.5, 0.5),
        "class_priors must be >= 0 and have positive mass":
            _priors(0.0, 0.0, 0.0, 0.0),
    }

    @staticmethod
    def _edited(edit):
        bundle = manifold_bundle()
        if edit is _narrow_baseline:
            del bundle.info["quality_baseline"]
        edit(bundle.info)
        return bundle

    @pytest.mark.parametrize("match", list(EDITS))
    def test_validate_refuses(self, match):
        bundle = self._edited(self.EDITS[match])
        with pytest.raises(BundleError, match=match):
            bundle.validate()
        with pytest.raises(BundleError, match=match):
            InferenceEngine(bundle, build_extractor=False)

    def test_reduce_tap_needs_a_manifold_stage(self):
        bundle = bundle_with_baseline()
        bundle.info["quality_baseline"]["tap"] = "reduce"
        with pytest.raises(BundleError, match="no manifold stage"):
            bundle.validate()

    def test_reduce_tap_width_is_the_manifold_output(self):
        bundle = manifold_bundle()
        bundle.info["manifold"] = dict(bundle.info["manifold"],
                                       out_features=8)
        bundle.info["encoder"] = dict(bundle.info["encoder"],
                                      in_features=8)
        bundle.arrays["manifold.weight"] = \
            bundle.arrays["manifold.weight"][:8]
        bundle.arrays["manifold.bias"] = bundle.arrays["manifold.bias"][:8]
        bundle.arrays["encoder.projection"] = \
            bundle.arrays["encoder.projection"][:8]
        with pytest.raises(BundleError, match="'reduce' tap emits 8"):
            bundle.validate()

    @pytest.mark.parametrize(
        "match", list(EDITS)[:3] + ["feature_mean is not all finite"])
    def test_reload_answers_409_and_keeps_serving(self, tmp_path, match):
        good = str(tmp_path / "good.npz")
        manifold_bundle().save(good)
        bad_bundle = self._edited(self.EDITS[match])
        bad = str(tmp_path / "bad.npz")
        bad_bundle.save(bad)
        engine = InferenceEngine.from_path(good, build_extractor=False)
        x = golden_rows(4, seed=7)
        want = [int(label) for label in engine.predict_features(x)]
        with ModelServer(engine, port=0, workers=1,
                         bundle_path=good) as server:
            with pytest.raises(urllib.error.HTTPError) as refused:
                post(server.url + "/reload", {"bundle": bad})
            assert refused.value.code == 409
            with pytest.raises(ReloadError):
                server.reload(bad)
            assert server.engine is engine
            assert server.reloads == 0
            assert post(server.url + "/predict",
                        {"features": x.tolist()})["labels"] == want
        assert engine.quality.samples == 8


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
        for _ in range(3):  # seen, stored, then the third hits the LRU
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
                         bundle_path=path) as server:
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
            "[engine]\nquality_window = 96\n"
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

    def test_window_below_min_samples_exits_two(self, tmp_path, capsys):
        bundle_path = str(tmp_path / "bundle.npz")
        bundle_with_baseline(seed=3).save(bundle_path)
        config = tmp_path / "serve.toml"
        config.write_text("[engine]\nquality_window = 32\n")
        code = main([bundle_path, "--config", str(config), "--port", "0",
                     "--dry-run"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "min_samples" in err
        assert err.count("\n") == 1

    def test_quality_opt_out_via_config(self, tmp_path):
        bundle_path = str(tmp_path / "bundle.npz")
        bundle_with_baseline(seed=3).save(bundle_path)
        config = tmp_path / "serve.toml"
        config.write_text("[engine]\nquality = false\n")
        server = build_server(_parse_args(
            [bundle_path, "--config", str(config), "--port", "0"]))
        try:
            assert server.engine.quality is None
            assert server.alerts is None
        finally:
            server.stop()
