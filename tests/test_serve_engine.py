"""Inference engine: packed/float agreement, caching, pipeline parity."""

import numpy as np
import pytest

from repro.data import make_dataset
from repro.learn import VanillaHD
from repro.learn.mass import normalized_similarity
from repro.serve import (BundleError, EngineSelfCheckError, InferenceEngine,
                         ModelBundle)
from repro.utils.rng import fresh_rng


@pytest.fixture(scope="module")
def fitted_vanilla():
    x_tr, y_tr, x_te, y_te = make_dataset(num_classes=4, num_train=80,
                                          num_test=40, seed=9)
    pipeline = VanillaHD(num_classes=4, image_size=x_tr.shape[-1],
                         dim=300, seed=9)
    pipeline.fit(x_tr, y_tr, epochs=2)
    return pipeline, x_tr, y_tr, x_te, y_te


class TestPackedPath:
    def test_auto_enabled_on_bipolar_bundle(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle())
        assert engine.use_packed
        assert engine.describe()["packed"]

    def test_float_bundle_stays_on_cosine_path(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(binary=False))
        assert not engine.use_packed

    def test_forcing_packed_on_float_bundle_raises(self, synthetic_bundle):
        with pytest.raises(BundleError, match="bipolar"):
            InferenceEngine(synthetic_bundle(binary=False), use_packed=True)

    def test_packed_bitexact_with_float_engine(self, synthetic_bundle):
        bundle = synthetic_bundle(dim=640, features=24, classes=7, seed=3)
        packed = InferenceEngine(bundle, cache_size=0)
        floating = InferenceEngine(bundle, use_packed=False, cache_size=0)
        rng = fresh_rng((3, "engine-agreement"))
        features = rng.standard_normal((200, 24))
        np.testing.assert_array_equal(packed.predict_features(features),
                                      floating.predict_features(features))

    def test_selfcheck_catches_corruption(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle())
        assert engine.selfcheck()
        packed = engine.graph.stage("classify").packed
        packed.packed_classes = np.roll(packed.packed_classes, 1, axis=0)
        with pytest.raises(EngineSelfCheckError):
            engine.selfcheck()


class TestFloatPath:
    def test_similarities_match_trainer_kernel(self, synthetic_bundle):
        bundle = synthetic_bundle(binary=False)
        engine = InferenceEngine(bundle, cache_size=0)
        rng = fresh_rng((1, "engine-sims"))
        encoded = rng.standard_normal((16, bundle.info["dim"]))
        np.testing.assert_array_equal(
            engine.similarities(encoded),
            normalized_similarity(bundle.class_matrix(), encoded))

    def test_single_sample_matches_batch(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(), cache_size=0)
        rng = fresh_rng((2, "engine-single"))
        features = rng.standard_normal((8, 32))
        batch = engine.predict_features(features)
        singles = [int(engine.predict_features(row)[0]) for row in features]
        np.testing.assert_array_equal(batch, singles)


class TestCache:
    def test_repeat_queries_hit_lru(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(), cache_size=64)
        rng = fresh_rng((4, "engine-cache"))
        features = rng.standard_normal((10, 32))
        first = engine.predict_features(features)
        second = engine.predict_features(features)
        np.testing.assert_array_equal(first, second)
        info = engine.cache_info()
        assert info["hits"] >= 10 and info["misses"] >= 10
        assert info["entries"] == 10

    def test_lru_eviction_bounds_entries(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(), cache_size=4)
        rng = fresh_rng((5, "engine-evict"))
        engine.predict_features(rng.standard_normal((20, 32)))
        assert engine.cache_info()["entries"] == 4

    def test_cache_disabled(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(), cache_size=0)
        rng = fresh_rng((6, "engine-nocache"))
        features = rng.standard_normal((5, 32))
        engine.predict_features(features)
        engine.predict_features(features)
        assert engine.cache_info() == {"entries": 0, "hits": 0,
                                       "misses": 0, "max_entries": 0}


class TestPipelineParity:
    def test_float_bundle_bitexact_with_pipeline(self, fitted_vanilla):
        pipeline, _, _, x_te, _ = fitted_vanilla
        bundle = ModelBundle.from_pipeline(pipeline)
        engine = InferenceEngine(bundle)
        np.testing.assert_array_equal(engine.predict(x_te),
                                      pipeline.predict(x_te))

    def test_accuracy_matches_pipeline(self, fitted_vanilla):
        pipeline, _, _, x_te, y_te = fitted_vanilla
        engine = InferenceEngine(ModelBundle.from_pipeline(pipeline))
        flat = np.asarray(x_te).reshape(len(x_te), -1)
        assert engine.accuracy_features(flat, y_te) == \
            pytest.approx(pipeline.accuracy(x_te, y_te))

    def test_continuous_encoder_refuses_packed(self, fitted_vanilla):
        """VanillaHD's nonlinear encoder is unquantized: the queries are
        continuous, so the packed path must refuse to engage even when
        the class matrix was binarized at export."""
        pipeline = fitted_vanilla[0]
        bundle = ModelBundle.from_pipeline(pipeline, binarize=True)
        assert not InferenceEngine(bundle).use_packed  # auto stays off
        with pytest.raises(BundleError, match="quantizing encoder"):
            InferenceEngine(bundle, use_packed=True)

    def test_quantized_nonlinear_packed_agrees_with_float(
            self, fitted_vanilla):
        """With a quantizing nonlinear encoder both engine paths are
        bipolar end-to-end and must agree bit-for-bit."""
        pipeline, _, _, x_te, _ = fitted_vanilla
        pipeline.encoder.quantize = True
        try:
            bundle = ModelBundle.from_pipeline(pipeline, binarize=True)
        finally:
            pipeline.encoder.quantize = False
        packed = InferenceEngine(bundle, use_packed=True)
        floating = InferenceEngine(bundle, use_packed=False)
        assert packed.use_packed
        np.testing.assert_array_equal(packed.predict(x_te),
                                      floating.predict(x_te))


class TestFromPath:
    def test_round_trip_predictions(self, synthetic_bundle, tmp_path):
        bundle = synthetic_bundle(seed=11)
        path = str(tmp_path / "bundle.npz")
        bundle.save(path)
        engine = InferenceEngine.from_path(path)
        reference = InferenceEngine(bundle)
        rng = fresh_rng((11, "engine-path"))
        features = rng.standard_normal((12, 32))
        np.testing.assert_array_equal(engine.predict_features(features),
                                      reference.predict_features(features))
