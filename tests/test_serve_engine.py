"""Inference engine: packed/float agreement, caching, pipeline parity."""

import os
import re
import sys
import threading
from collections import OrderedDict

import numpy as np
import pytest

from repro.data import make_dataset
from repro.hd.backend import unpack_bipolar
from repro.hd.encoders import RandomProjectionEncoder
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

    def test_selfcheck_catches_wrong_encode_signs(self, synthetic_bundle,
                                                  monkeypatch):
        """A packed encode whose signs drift from sign(encode_raw) is
        refused at load."""
        right = RandomProjectionEncoder.signs

        def wrong(self, features):
            signs = right(self, features)
            signs[0, -1] = ~signs[0, -1]
            return signs

        monkeypatch.setattr(RandomProjectionEncoder, "signs", wrong)
        with pytest.raises(EngineSelfCheckError, match="packed encode"):
            InferenceEngine(synthetic_bundle())

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
    @pytest.fixture()
    def keyed(self, monkeypatch):
        """The row count of every full-key call the LRU makes."""
        counts = []
        full_key = _EncodedLRU.keys

        def counting(self, raw):
            counts.append(len(raw))
            return full_key(self, raw)

        monkeypatch.setattr(_EncodedLRU, "keys", counting)
        return counts

    def test_repeat_queries_hit_lru(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(), cache_size=64)
        rng = fresh_rng((4, "engine-cache"))
        features = rng.standard_normal((10, 32))
        # Seen once, then stored on the second sighting, then read.
        first = engine.predict_features(features)
        for _ in range(2):
            np.testing.assert_array_equal(engine.predict_features(features),
                                          first)
        info = engine.cache_info()
        assert info["hits"] >= 10 and info["misses"] >= 10
        assert info["entries"] == 10

    def test_lru_eviction_bounds_entries(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(), cache_size=4)
        rng = fresh_rng((5, "engine-evict"))
        # Each row twice in a row: the second sighting stores it.
        engine.predict_features(
            rng.standard_normal((20, 32))[np.repeat(np.arange(20), 2)])
        assert engine.cache_info()["entries"] == 4
        assert len(engine._cache._door) <= 4

    def test_batch_path_matches_the_per_row_loop(self, synthetic_bundle):
        """Partial hits, duplicate rows within a batch and batches larger
        than the cache leave the same LRU as a loop that admits, looks
        up, then stores the rows one at a time (the reference kept
        below)."""

        class RowLRU:
            def __init__(self, max_entries):
                self.max_entries = max_entries
                self.data = OrderedDict()  # key -> (fingerprint, value)
                self.door = OrderedDict()  # fingerprints seen once
                self.hits = self.misses = 0

            def admit(self, fp):
                if fp in self.door or any(fp == kept for kept, _ in
                                          self.data.values()):
                    return True
                self.door[fp] = None
                while len(self.door) > self.max_entries:
                    self.door.popitem(last=False)
                return False

            def get(self, key):
                entry = self.data.get(key)
                if entry is None:
                    return None
                self.data.move_to_end(key)
                return entry[1]

            def put(self, key, fp, value):
                self.data[key] = (fp, value)
                self.data.move_to_end(key)
                while len(self.data) > self.max_entries:
                    self.data.popitem(last=False)

        def row_loop_encode(lru, fingerprint, encode, raw):
            keys = [row.tobytes() for row in raw]  # exact keys
            sample = encode(raw[:1])
            encoded = np.empty((len(raw), sample.shape[1]),
                               dtype=sample.dtype)
            miss_idx, prints = [], {}
            for i, key in enumerate(keys):
                # One row at a time: a fingerprint is the row's own.
                fp = fingerprint(raw[i:i + 1].view(np.uint64))[0]
                admitted = lru.admit(fp)
                hit = lru.get(key) if admitted else None
                if hit is not None:
                    lru.hits += 1
                    encoded[i] = hit
                    continue
                lru.misses += 1
                miss_idx.append(i)
                prints[i] = fp if admitted else None  # stored if admitted
            if miss_idx:
                fresh = encode(raw[miss_idx])
                for j, i in enumerate(miss_idx):
                    encoded[i] = fresh[j]
                    if prints[i] is not None:
                        lru.put(keys[i], prints[i], fresh[j].copy())
            return encoded

        bundle = synthetic_bundle()
        uncached = InferenceEngine(bundle, cache_size=0)
        rng = fresh_rng((7, "engine-batch-lru"))
        pool = rng.standard_normal((44, 32))
        batches = [pool[:6],
                   pool[[0, 6, 6, 1, 7, 0]],       # hits, in-batch dupes
                   pool[8:30],                      # > cache: self-evicts
                   pool[[29, 3, 28, 8, 9, 29]],
                   pool[30:40][[0, 1, 0, 2, 3, 4, 5, 6, 7, 8, 9, 1]],
                   pool[[35, 36]], pool[:0],
                   pool[40:44]]                     # new rows, full door
        for size in (5, 16):
            with use_registry() as registry:
                engine = InferenceEngine(bundle, cache_size=size)
                reference = RowLRU(size)
                for batch in batches + batches:  # a third sighting hits
                    got = engine.encode_features(batch)
                    want = row_loop_encode(reference,
                                           engine._cache.fingerprints,
                                           uncached.encode_features, batch)
                    np.testing.assert_array_equal(got, want)
                cache = engine._cache
                assert [cache._raw[slot].tobytes()
                        for slot in cache._slots.values()] \
                    == list(reference.data)
                for (fp, row), slot in zip(reference.data.values(),
                                           cache._slots.values()):
                    assert cache._prints[slot] == fp
                    np.testing.assert_array_equal(cache._rows[slot], row)
                assert list(cache._door) == list(reference.door)
                assert reference.hits > 0
                assert engine.cache_info() == {
                    "entries": len(reference.data), "hits": reference.hits,
                    "misses": reference.misses, "max_entries": size}
                assert registry.counter("serve.cache.hits").value \
                    == reference.hits
                assert registry.counter("serve.cache.misses").value \
                    == reference.misses

    def test_rows_seen_once_are_neither_keyed_nor_stored(
            self, synthetic_bundle, keyed):
        """A unique batch costs no full key and no store; the same batch
        again is keyed and stored, and a third time every row hits."""
        bundle = synthetic_bundle()
        uncached = InferenceEngine(bundle, cache_size=0)
        engine = InferenceEngine(bundle, cache_size=256)
        rows = fresh_rng((13, "engine-doorkeeper")).standard_normal(
            (256, 32))
        want = uncached.predict_features(rows)
        for pass_keyed, entries, hits in ((0, 0, 0), (256, 256, 0),
                                          (256, 256, 256)):
            keyed.clear()
            np.testing.assert_array_equal(engine.predict_features(rows),
                                          want)
            assert sum(keyed) == pass_keyed
            info = engine.cache_info()
            assert (info["entries"], info["hits"]) == (entries, hits)
        assert info["misses"] == 512

    def test_stored_row_outlives_a_flushed_doorkeeper(self,
                                                      synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(), cache_size=8)
        rng = fresh_rng((14, "engine-flush"))
        hot = rng.standard_normal((1, 32))
        for _ in range(2):
            engine.predict_features(hot)  # seen, then stored
        engine.predict_features(rng.standard_normal((80, 32)))
        assert engine.cache_info()["entries"] == 1
        before = engine.cache_info()["hits"]
        engine.predict_features(hot)
        assert engine.cache_info()["hits"] == before + 1

    def test_colliding_fingerprints_key_every_later_row(
            self, synthetic_bundle, keyed, monkeypatch):
        """Every row with one fingerprint: each row after the very first
        is fully keyed, and the labels stay the uncached engine's."""
        monkeypatch.setattr(_EncodedLRU, "fingerprints",
                            lambda self, raw: [7] * len(raw))
        bundle = synthetic_bundle()
        uncached = InferenceEngine(bundle, cache_size=0)
        engine = InferenceEngine(bundle, cache_size=16)
        pool = fresh_rng((15, "engine-one-print")).standard_normal((24, 32))
        for batch in (pool[:10], pool[[3, 10, 11, 3]], pool[12:24]):
            np.testing.assert_array_equal(engine.predict_features(batch),
                                          uncached.predict_features(batch))
        assert sum(keyed) == 10 + 4 + 12 - 1
        assert engine.cache_info()["hits"] == 2

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
            # (batch, hits): the first pass is seen once and not stored;
            # after it the entry holds the last row stored.
            for batch, hits in ((pool, 0), (pool, 0), (pool, 1),
                                (pool[[3]], 0), (pool[[3, 3]], 2),
                                (pool[[4, 3]], 1)):
                before = engine.cache_info()["hits"]
                np.testing.assert_array_equal(
                    engine.predict_features(batch),
                    uncached.predict_features(batch))
                assert engine.cache_info()["hits"] - before == hits
            assert engine.cache_info() == {"entries": 1, "hits": 4,
                                           "misses": 25, "max_entries": 16}
            assert registry.counter("serve.cache.misses").value == 25
        cache = engine._cache
        np.testing.assert_array_equal(cache._raw[0], pool[4].view(np.uint64))
        np.testing.assert_array_equal(cache._rows[:1],
                                      uncached.encode_features(pool[4]))
        # The one slot keeps the fingerprint of the row it holds.
        assert dict(cache._stored) == {
            cache.fingerprints(pool[[4]].view(np.uint64))[0]: 1}

    def test_nan_and_duplicate_rows_hit(self, synthetic_bundle):
        bundle = synthetic_bundle()
        rows = fresh_rng((10, "engine-nan")).standard_normal((4, 32))
        rows[1] = np.nan
        rows[2, 5] = np.nan
        batch = rows[[0, 1, 2, 1, 3, 0]]
        uncached = InferenceEngine(bundle, cache_size=0)
        engine = InferenceEngine(bundle, cache_size=16)
        want = uncached.predict_features(batch)
        # An in-batch duplicate is a second sighting, looked up before
        # the batch is stored: rows 1 and 0 are stored on the first
        # pass, rows 2 and 3 on the second, and the third pass hits all.
        for _ in range(3):
            np.testing.assert_array_equal(engine.predict_features(batch),
                                          want)
        assert engine.cache_info() == {"entries": 4, "hits": 10,
                                       "misses": 8, "max_entries": 16}

    def test_signed_zero_rows_are_distinct_keys(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(), cache_size=16)
        zero = np.zeros((1, 32))
        # The sign bits cancel in the 8-word fingerprint, so -0 is
        # admitted on its first sighting; the full key tells them apart.
        assert engine._cache.fingerprints(zero.view(np.uint64)) \
            == engine._cache.fingerprints((-zero).view(np.uint64))
        labels = [engine.predict_features(row)
                  for row in (zero, -zero) * 3]
        assert np.signbit(-zero).all()
        for got in labels[1:]:
            np.testing.assert_array_equal(got, labels[0])
        assert engine.cache_info() == {"entries": 2, "hits": 3,
                                       "misses": 3, "max_entries": 16}

    def test_concurrent_callers_keep_the_lru_consistent(
            self, synthetic_bundle):
        """More threads than cores, switching often, over a pool that
        mixes repeats and one-off rows: every label is right, every row
        is counted once, and each stored slot's fingerprint is counted
        exactly once."""
        bundle = synthetic_bundle()
        uncached = InferenceEngine(bundle, cache_size=0)
        engine = InferenceEngine(bundle, cache_size=16)
        pool = fresh_rng((16, "engine-threads")).standard_normal((48, 32))
        want = uncached.predict_features(pool)
        wrong, served = [], []

        def caller(seed):
            rng = fresh_rng((seed, "engine-thread-rows"))
            for _ in range(40):
                pick = rng.integers(0, len(pool), size=int(rng.integers(
                    1, 9)))
                if not np.array_equal(engine.predict_features(pool[pick]),
                                      want[pick]):
                    wrong.append(pick)
                served.append(len(pick))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(seed,))
                       for seed in range(2 * (os.cpu_count() or 1) + 2)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not wrong
        info = engine.cache_info()
        assert info["hits"] + info["misses"] == sum(served)
        assert info["hits"] > 0
        cache = engine._cache
        assert len(cache._door) <= 16 and info["entries"] <= 16
        kept = [cache._prints[slot] for slot in cache._slots.values()]
        assert sorted(cache._stored.elements()) == sorted(kept)

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


class TestInputShape:
    @pytest.mark.parametrize("use_packed", [None, False])
    @pytest.mark.parametrize("shape", [(2, 1, 32), (1, 2, 1, 32)],
                             ids=["3-d", "4-d"])
    def test_more_than_two_dimensions_is_refused(self, synthetic_bundle,
                                                 use_packed, shape):
        """A stack of feature rows is not an ``(n, F)`` matrix: both
        entry points name the shape instead of miscounting columns."""
        engine = InferenceEngine(synthetic_bundle(), use_packed=use_packed)
        features = np.zeros(shape)
        want = (r"features must be an \(n, F\) matrix, got shape "
                + re.escape(str(shape)))
        with pytest.raises(ValueError, match=want):
            engine.encode_features(features)
        with pytest.raises(ValueError, match=want):
            engine.predict_features(features)


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
