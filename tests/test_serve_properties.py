"""Hypothesis properties for the serving fast path.

The load-bearing claim of the packed path is *exactness*, not
approximation: for bipolar operands the XOR-popcount kernel computes the
same integer dot products as float arithmetic, so rankings (and
therefore predictions) agree bit-for-bit.  These properties pin that
claim across random dimensions, class counts and seeds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hd import classify, pack_bipolar, packed_cosine_similarity
from repro.serve import InferenceEngine, MicroBatcher
from repro.utils.rng import fresh_rng

from .conftest import _synthetic_bundle


def random_bipolar(rng, shape):
    return np.where(rng.random(shape) < 0.5, -1.0, 1.0)


class TestPackedKernelProperties:
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=1, max_value=200),
           st.integers(min_value=2, max_value=12),
           st.integers(min_value=1, max_value=24))
    @settings(max_examples=40, deadline=None)
    def test_property_packed_ranks_like_float_dot(self, seed, dim,
                                                  classes, queries):
        """argmax over XOR-popcount == argmax over float dot, always.

        ``dim`` deliberately sweeps through non-multiples of 64 so the
        tail-word masking is exercised, and ties (likely at tiny dims)
        must break to the same class index on both paths.
        """
        rng = fresh_rng((seed, "packed-rank"))
        class_matrix = random_bipolar(rng, (classes, dim))
        hvs = random_bipolar(rng, (queries, dim))
        sims = packed_cosine_similarity(pack_bipolar(class_matrix),
                                        pack_bipolar(hvs), dim)
        got = sims.argmax(axis=-1)
        want = classify(class_matrix, hvs, metric="dot")
        np.testing.assert_array_equal(got, want)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=1, max_value=300))
    @settings(max_examples=30, deadline=None)
    def test_property_hamming_recovers_exact_dot(self, seed, dim):
        """The packed cosine is dot / D, so D · cosine recovers the
        integer dot (D − 2·Hamming distance) exactly."""
        rng = fresh_rng((seed, "packed-dot"))
        a = random_bipolar(rng, (3, dim))
        b = random_bipolar(rng, (5, dim))
        sims = packed_cosine_similarity(pack_bipolar(a), pack_bipolar(b),
                                        dim)
        dots = dim * sims  # (queries, classes) orientation
        np.testing.assert_allclose(dots, b @ a.T, atol=1e-9)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_property_engine_paths_agree(self, seed):
        """Packed and float engines over one bundle never disagree."""
        bundle = _synthetic_bundle(dim=257, features=12, classes=5,
                                   seed=seed)
        packed = InferenceEngine(bundle, cache_size=0, selfcheck=False)
        floating = InferenceEngine(bundle, use_packed=False, cache_size=0)
        rng = fresh_rng((seed, "engine-prop"))
        features = rng.standard_normal((32, 12))
        np.testing.assert_array_equal(packed.predict_features(features),
                                      floating.predict_features(features))


class TestBatcherProperties:
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=16))
    @settings(max_examples=15, deadline=None)
    def test_property_batching_is_transparent(self, seed, n, batch):
        """Whatever the coalescing schedule, labels match the direct
        call — batching must be semantically invisible."""
        rng = fresh_rng((seed, "batcher-prop"))
        features = rng.standard_normal((n, 6))

        def predict(rows):
            return np.asarray(rows).argmax(axis=1)

        with MicroBatcher(predict, max_batch_size=batch,
                          max_latency_ms=1.0, workers=2) as batcher:
            labels = batcher.submit_all(features)
        np.testing.assert_array_equal(labels, predict(features))
