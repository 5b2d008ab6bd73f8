"""Hypothesis properties: the StageGraph is *equal*, not approximately
equal, to the legacy hand-composed execution paths.

The refactor's contract is bit-exactness — same dtypes, same BLAS calls,
same clamping expressions.  These properties pin it across random
shapes, seeds and encoder families, so a future "harmless" reordering
inside a stage (e.g. normalizing before the GEMM) fails loudly here
before it silently invalidates the golden fixtures.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hd.encoders import NonlinearEncoder, RandomProjectionEncoder
from repro.hd.similarity import cosine_similarity
from repro.learn.manifold import ManifoldLearner
from repro.pipeline import (ClassifyStage, EncodeStage, FeatureScaler,
                            FlattenStage, ManifoldReduceStage, ScaleStage,
                            StageGraph)
from repro.utils.rng import fresh_rng

seeds = st.integers(min_value=0, max_value=2 ** 31 - 1)


def _features(rng, n, f, scale=3.0):
    return rng.standard_normal((n, f)) * scale + rng.standard_normal(f)


class TestStageParityProperties:
    @given(seeds, st.integers(min_value=2, max_value=24),
           st.integers(min_value=2, max_value=40))
    @settings(max_examples=30, deadline=None)
    def test_property_scale_stage_equals_scaler(self, seed, f, n):
        rng = fresh_rng((seed, "scale-parity"))
        features = _features(rng, n, f)
        scaler = FeatureScaler().fit(features)
        queries = _features(rng, 5, f)
        np.testing.assert_array_equal(ScaleStage(scaler)(queries),
                                      scaler.transform(queries))

    @given(seeds, st.integers(min_value=2, max_value=16),
           st.integers(min_value=8, max_value=200),
           st.booleans(), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_property_encode_stage_equals_encoder(self, seed, f, dim,
                                                  nonlinear, quantize):
        rng = fresh_rng((seed, "encode-parity"))
        if nonlinear:
            encoder = NonlinearEncoder(f, dim, rng=fresh_rng((seed, "e")),
                                       quantize=quantize)
        else:
            encoder = RandomProjectionEncoder(
                f, dim, rng=fresh_rng((seed, "e")), quantize=quantize)
        queries = _features(rng, 6, f)
        np.testing.assert_array_equal(EncodeStage(encoder)(queries),
                                      encoder.encode(queries))

    @given(seeds, st.integers(min_value=1, max_value=4),
           st.integers(min_value=1, max_value=7),
           st.integers(min_value=1, max_value=7),
           st.integers(min_value=1, max_value=12))
    @settings(max_examples=30, deadline=None)
    def test_property_reduce_stage_equals_manifold_learner(
            self, seed, c, h, w, out_features):
        """Crop-to-even numpy max-pool + GEMM ≡ F.max_pool2d + F.linear
        for every (C, H, W), including odd and degenerate spatial dims."""
        rng = fresh_rng((seed, "reduce-parity"))
        learner = ManifoldLearner((c, h, w), out_features=out_features,
                                  rng=fresh_rng((seed, "m")))
        stage = ManifoldReduceStage.from_learner(learner)
        features = _features(rng, 5, c * h * w, scale=1.0)
        np.testing.assert_array_equal(stage(features),
                                      learner.transform(features))

    @given(seeds, st.integers(min_value=2, max_value=10),
           st.integers(min_value=4, max_value=128))
    @settings(max_examples=30, deadline=None)
    def test_property_classify_stage_equals_trainer_similarity(
            self, seed, classes, dim):
        rng = fresh_rng((seed, "classify-parity"))
        matrix = rng.standard_normal((classes, dim))
        queries = rng.standard_normal((7, dim))
        frozen = ClassifyStage.from_matrix(matrix)
        want = cosine_similarity(matrix, queries)
        # Frozen (cached norms) and live (recomputed norms) must both
        # match the trainer expression bit-for-bit.
        np.testing.assert_array_equal(frozen.similarities(queries), want)
        live = ClassifyStage(lambda: matrix, frozen=False)
        np.testing.assert_array_equal(live.similarities(queries), want)
        np.testing.assert_array_equal(frozen(queries),
                                      want.argmax(axis=1))


class TestGraphParityProperties:
    @staticmethod
    def _graph(seed, f, dim, classes, quantize=True):
        rng = fresh_rng((seed, "graph-parity"))
        data = _features(rng, 16, f)
        scaler = FeatureScaler().fit(data)
        encoder = RandomProjectionEncoder(
            f, dim, rng=fresh_rng((seed, "enc")), quantize=quantize)
        matrix = rng.standard_normal((classes, dim))
        graph = StageGraph([ScaleStage(scaler), EncodeStage(encoder),
                            ClassifyStage.from_matrix(matrix)])
        return graph, scaler, encoder, matrix, rng

    @given(seeds, st.integers(min_value=2, max_value=12),
           st.integers(min_value=8, max_value=96),
           st.integers(min_value=2, max_value=6))
    @settings(max_examples=30, deadline=None)
    def test_property_graph_run_equals_legacy_composition(
            self, seed, f, dim, classes):
        """graph.run ≡ scaler.transform → encoder.encode → argmax of
        cosine_similarity — the exact pre-refactor inference path."""
        graph, scaler, encoder, matrix, rng = self._graph(
            seed, f, dim, classes)
        queries = _features(rng, 6, f)
        legacy_encoded = encoder.encode(scaler.transform(
            np.asarray(queries, dtype=np.float64)))
        legacy_labels = cosine_similarity(
            matrix, legacy_encoded).argmax(axis=1)
        np.testing.assert_array_equal(
            graph.run(queries, stop="classify"), legacy_encoded)
        np.testing.assert_array_equal(graph.run(queries), legacy_labels)

    @given(seeds, st.integers(min_value=2, max_value=12),
           st.integers(min_value=8, max_value=96),
           st.integers(min_value=2, max_value=6))
    @settings(max_examples=25, deadline=None)
    def test_property_slicing_composes(self, seed, f, dim, classes):
        """run(·, stop=s) then run(·, start=s) ≡ run(·) for every cut."""
        graph, _, _, _, rng = self._graph(seed, f, dim, classes)
        queries = _features(rng, 4, f)
        full = graph.run(queries)
        for cut in graph.names:
            head = graph.run(queries, stop=cut)
            tail = graph.run(head, start=cut)
            np.testing.assert_array_equal(tail, full)

    @given(seeds, st.integers(min_value=2, max_value=8),
           st.integers(min_value=2, max_value=5))
    @settings(max_examples=20, deadline=None)
    def test_property_flatten_front_equals_reshape(self, seed, size,
                                                   classes):
        """A VanillaHD-shaped graph front (flatten → scale) equals the
        legacy reshape + transform on raw image tensors."""
        rng = fresh_rng((seed, "flatten-parity"))
        images = rng.standard_normal((6, 3, size, size))
        flat = images.reshape(6, -1)
        scaler = FeatureScaler().fit(flat)
        graph = StageGraph([FlattenStage(), ScaleStage(scaler)])
        np.testing.assert_array_equal(graph.run(images),
                                      scaler.transform(flat))
