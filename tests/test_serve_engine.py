"""Inference engine: packed/float agreement, caching, pipeline parity."""

import os
from collections import OrderedDict

import numpy as np
import pytest

from repro.data import make_dataset
from repro.hd.backend import unpack_bipolar
from repro.learn import VanillaHD
from repro.hd.similarity import cosine_similarity
from repro.serve import (BundleError, EngineSelfCheckError, InferenceEngine,
                         ModelBundle)
from repro.serve.engine import _EncodedLRU
from repro.telemetry import use_registry
from repro.telemetry.quality import QualityBaseline
from repro.utils.rng import fresh_rng

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")


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

    def test_use_packed_tristate(self, synthetic_bundle):
        # None picks packed where allowed, False forces float, True
        # forces packed or refuses.
        assert InferenceEngine(synthetic_bundle()).use_packed
        assert not InferenceEngine(synthetic_bundle(),
                                   use_packed=False).use_packed
        assert InferenceEngine(synthetic_bundle(), use_packed=True).use_packed
        with pytest.raises(BundleError):
            InferenceEngine(synthetic_bundle(binary=False), use_packed=True)

    def test_forcing_packed_on_unquantized_encoder_raises(
            self, synthetic_bundle):
        # Binarized classes but a continuous encoder: the queries cannot
        # be bit-packed, so an explicit packed request fails at load.
        bundle = synthetic_bundle()
        bundle.info["encoder"]["quantize"] = False
        assert not InferenceEngine(bundle).use_packed
        with pytest.raises(BundleError, match="quantizing encoder"):
            InferenceEngine(bundle, use_packed=True)

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
        packed = engine.graph.stage("classify")
        packed.packed_classes = np.roll(packed.packed_classes, 1, axis=0)
        with pytest.raises(EngineSelfCheckError):
            engine.selfcheck()

    @pytest.mark.parametrize("binary", [True, False])
    def test_legacy_compile_plan_is_ignored(self, synthetic_bundle, binary,
                                            tmp_path):
        """An ``info["compile"]`` plan from an older export changes
        neither the labels nor the packed choice."""
        plain = synthetic_bundle(binary=binary)
        legacy = synthetic_bundle(binary=binary)
        # The plan exactly as older exports persisted it.
        legacy.info["compile"] = {'passes': 'all',
                                  'executors': {'encode': 'threaded'}}
        path = str(tmp_path / "legacy.npz")
        legacy.save(path)
        features = fresh_rng((8, "engine-legacy-plan")).standard_normal(
            (64, 32))
        want = InferenceEngine(plain, cache_size=0)
        got = InferenceEngine.from_path(path, cache_size=0)
        assert got.use_packed == want.use_packed == binary
        np.testing.assert_array_equal(got.predict_features(features),
                                      want.predict_features(features))


    @pytest.mark.parametrize("cache_size", [0, 16])
    def test_encode_features_returns_sign_words(self, synthetic_bundle,
                                                cache_size):
        """A packed engine's classify input is the encoder's sign bits:
        ceil(D/64) uint64 words a row, the float engine's ±1 rows
        packed."""
        bundle = synthetic_bundle(dim=130, features=32)
        packed = InferenceEngine(bundle, cache_size=cache_size)
        floating = InferenceEngine(bundle, use_packed=False,
                                   cache_size=cache_size)
        features = fresh_rng((12, "engine-words")).standard_normal((9, 32))
        for _ in range(2):  # cold, then (when cached) all hits
            words = packed.encode_features(features)
            assert words.dtype == np.uint64 and words.shape == (9, 3)
            np.testing.assert_array_equal(
                unpack_bipolar(words, 130),
                floating.encode_features(features))
        assert packed.graph.stage("encode").emits_words
        assert not floating.graph.stage("encode").emits_words


class TestFloatPath:
    def test_similarities_match_trainer_kernel(self, synthetic_bundle):
        bundle = synthetic_bundle(binary=False)
        engine = InferenceEngine(bundle, cache_size=0)
        rng = fresh_rng((1, "engine-sims"))
        encoded = rng.standard_normal((16, bundle.info["dim"]))
        np.testing.assert_array_equal(
            engine.similarities(encoded),
            cosine_similarity(bundle.class_matrix(), encoded))

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

    def test_batch_path_matches_the_per_row_loop(self, synthetic_bundle):
        """Partial hits, duplicate rows within a batch and batches larger
        than the cache leave the same LRU as a lookup-then-store loop
        over the rows, one at a time (the reference kept below)."""

        class RowLRU:
            def __init__(self, max_entries):
                self.max_entries = max_entries
                self.data = OrderedDict()
                self.hits = self.misses = 0

            def get(self, key):
                value = self.data.get(key)
                if value is None:
                    self.misses += 1
                    return None
                self.data.move_to_end(key)
                self.hits += 1
                return value

            def put(self, key, value):
                self.data[key] = value
                self.data.move_to_end(key)
                while len(self.data) > self.max_entries:
                    self.data.popitem(last=False)

        def row_loop_encode(lru, encode, raw):
            keys = [row.tobytes() for row in raw]  # exact keys
            sample = encode(raw[:1])
            encoded = np.empty((len(raw), sample.shape[1]),
                               dtype=sample.dtype)
            miss_idx = []
            for i, key in enumerate(keys):
                hit = lru.get(key)
                if hit is None:
                    miss_idx.append(i)
                else:
                    encoded[i] = hit
            if miss_idx:
                fresh = encode(raw[miss_idx])
                for j, i in enumerate(miss_idx):
                    encoded[i] = fresh[j]
                    lru.put(keys[i], fresh[j].copy())
            return encoded

        bundle = synthetic_bundle()
        uncached = InferenceEngine(bundle, cache_size=0)
        rng = fresh_rng((7, "engine-batch-lru"))
        pool = rng.standard_normal((40, 32))
        batches = [pool[:6],
                   pool[[0, 6, 6, 1, 7, 0]],       # hits, in-batch dupes
                   pool[8:30],                      # > cache: self-evicts
                   pool[[29, 3, 28, 8, 9, 29]],
                   pool[30:40][[0, 1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 1]],
                   pool[[35, 36]], pool[:0]]
        for size in (5, 16):
            with use_registry() as registry:
                engine = InferenceEngine(bundle, cache_size=size)
                reference = RowLRU(size)
                for batch in batches:
                    got = engine.encode_features(batch)
                    want = row_loop_encode(reference,
                                           uncached.encode_features, batch)
                    np.testing.assert_array_equal(got, want)
                cache = engine._cache
                assert [cache._raw[slot].tobytes()
                        for slot in cache._slots.values()] \
                    == list(reference.data)
                for key, slot in zip(reference.data,
                                     cache._slots.values()):
                    np.testing.assert_array_equal(cache._rows[slot],
                                                  reference.data[key])
                assert engine.cache_info() == {
                    "entries": len(reference.data), "hits": reference.hits,
                    "misses": reference.misses, "max_entries": size}
                assert registry.counter("serve.cache.hits").value \
                    == reference.hits
                assert registry.counter("serve.cache.misses").value \
                    == reference.misses

    def test_forced_collisions_cost_misses_not_labels(
            self, synthetic_bundle, monkeypatch):
        """Every row hashed to one key: the LRU holds one entry, and a
        lookup hits only when that entry's raw row equals the query."""
        monkeypatch.setattr(_EncodedLRU, "keys",
                            lambda self, raw: [0] * len(raw))
        bundle = synthetic_bundle()
        uncached = InferenceEngine(bundle, cache_size=0)
        pool = fresh_rng((9, "engine-collide")).standard_normal((8, 32))
        with use_registry() as registry:
            engine = InferenceEngine(bundle, cache_size=16)
            # (batch, hits): the entry holds the last row stored.
            for batch, hits in ((pool, 0), (pool, 1), (pool[[3]], 0),
                                (pool[[3, 3]], 2), (pool[[4, 3]], 1)):
                before = engine.cache_info()["hits"]
                np.testing.assert_array_equal(
                    engine.predict_features(batch),
                    uncached.predict_features(batch))
                assert engine.cache_info()["hits"] - before == hits
            assert engine.cache_info() == {"entries": 1, "hits": 4,
                                           "misses": 17, "max_entries": 16}
            assert registry.counter("serve.cache.misses").value == 17
        np.testing.assert_array_equal(engine._cache._raw[0],
                                      pool[4].view(np.uint64))
        np.testing.assert_array_equal(engine._cache._rows[:1],
                                      uncached.encode_features(pool[4]))

    def test_nan_and_duplicate_rows_hit(self, synthetic_bundle):
        bundle = synthetic_bundle()
        rows = fresh_rng((10, "engine-nan")).standard_normal((4, 32))
        rows[1] = np.nan
        rows[2, 5] = np.nan
        batch = rows[[0, 1, 2, 1, 3, 0]]
        uncached = InferenceEngine(bundle, cache_size=0)
        engine = InferenceEngine(bundle, cache_size=16)
        want = uncached.predict_features(batch)
        # In-batch duplicates are looked up before the batch is stored.
        np.testing.assert_array_equal(engine.predict_features(batch), want)
        np.testing.assert_array_equal(engine.predict_features(batch), want)
        assert engine.cache_info() == {"entries": 4, "hits": 6,
                                       "misses": 6, "max_entries": 16}

    def test_signed_zero_rows_are_distinct_keys(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(), cache_size=16)
        zero = np.zeros((1, 32))
        labels = [engine.predict_features(row)
                  for row in (zero, -zero, zero, -zero)]
        assert np.signbit(-zero).all()
        for got in labels[1:]:
            np.testing.assert_array_equal(got, labels[0])
        assert engine.cache_info() == {"entries": 2, "hits": 2,
                                       "misses": 2, "max_entries": 16}

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


class TestEmptyBatch:
    @pytest.mark.parametrize("use_packed", [None, False])
    @pytest.mark.parametrize("cache_size", [0, 256])
    @pytest.mark.parametrize("quality", [False, True])
    def test_empty_batch_serves_no_labels(self, use_packed, cache_size,
                                          quality):
        """A ``(0, F)`` batch through the golden NSHD bundle (scale →
        reduce → encode → classify) returns no labels and leaves the
        drift monitor untouched; the next batch serves as before."""
        bundle = ModelBundle.load(
            os.path.join(FIXTURES, "golden_nshd_bundle_packed.npz"))
        with np.load(os.path.join(FIXTURES, "golden_inputs.npz")) as golden:
            raw = golden["nshd.raw_features"]
            want = golden["nshd.packed_labels"]
        if quality:
            bundle.info["quality_baseline"] = QualityBaseline.from_training(
                raw, num_classes=bundle.info["num_classes"]).to_dict()
        with use_registry():
            engine = InferenceEngine(bundle, use_packed=use_packed,
                                     cache_size=cache_size,
                                     quality=quality)
            labels = engine.predict_features(np.empty((0, raw.shape[1])))
            assert labels.shape == (0,)
            assert labels.dtype.kind == "i"
            if quality:
                assert engine.quality.samples == 0
            np.testing.assert_array_equal(engine.predict_features(raw),
                                          want)
