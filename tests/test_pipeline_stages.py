"""Unit tests for the stage library and the StageGraph runner."""

import numpy as np
import pytest

from repro.hd.backend import pack_bipolar, unpack_bipolar
from repro.hd.encoders import NonlinearEncoder, RandomProjectionEncoder
from repro.hd.similarity import classify, clamped_norms, cosine_similarity
from repro.learn.manifold import ManifoldLearner
from repro.learn.mass import MassTrainer
from repro.pipeline import (ClassifyStage, EncodeStage, FeatureScaler,
                            FlattenStage, FusedEncodeStage,
                            ManifoldReduceStage, PackedClassifyStage,
                            ScalePoolStage, ScaleStage, StageError,
                            StageGraph, encoder_spec, packed_refusal)
from repro.nn.functional import strided_max_pool
from repro.utils.rng import fresh_rng


@pytest.fixture
def rng():
    return fresh_rng((0, "stage-tests"))


# ----------------------------------------------------------------------
# Shared math helpers
# ----------------------------------------------------------------------
class TestSharedMath:
    def test_clamped_norms_floor(self):
        matrix = np.vstack([np.zeros(8), np.full(8, 2.0)])
        norms = clamped_norms(matrix)
        assert norms[0] == 1.0  # degenerate row clamps to 1, not 0
        assert norms[1] == pytest.approx(np.linalg.norm(matrix[1]))

    def test_cosine_matches_trainer_similarity_bitwise(self, rng):
        matrix = rng.standard_normal((5, 64))
        queries = rng.standard_normal((7, 64))
        trainer = MassTrainer(5, 64)
        trainer.class_matrix = matrix
        ours = cosine_similarity(matrix, queries)
        theirs = trainer.similarities(queries)
        np.testing.assert_array_equal(ours, theirs)

    @pytest.mark.parametrize("classes", [
        [[0.0, 0.0, 0.0], [0.5, 1.0, 0.0]],
        # A class norm below the 1e-12 floor counts as 1, not as itself.
        [[1e-13, 0.0, 0.0], [0.5, 1.0, 0.0]],
    ], ids=["zero-row", "subfloor-row"])
    def test_every_cosine_path_gives_one_label(self, classes):
        """The reference classifier, the frozen classify stage and the
        MASS trainer all rank by the one clamped cosine δ."""
        matrix = np.asarray(classes)
        queries = np.asarray([[1.0, 0.2, 0.0]])
        trainer = MassTrainer(2, 3)
        trainer.class_matrix = matrix
        want = cosine_similarity(matrix, queries).argmax(axis=-1)
        np.testing.assert_array_equal(
            ClassifyStage.from_matrix(matrix)(queries), want)
        np.testing.assert_array_equal(trainer.predict(queries), want)

    def test_precomputed_norms_change_nothing(self, rng):
        matrix = rng.standard_normal((4, 32))
        queries = rng.standard_normal((3, 32))
        np.testing.assert_array_equal(
            cosine_similarity(matrix, queries),
            cosine_similarity(matrix, queries,
                              class_norms=clamped_norms(matrix)))

    @pytest.mark.parametrize("shape", [(3, 4, 4, 4), (2, 3, 5, 7),
                                       (4, 2, 2, 3), (1, 1, 3, 2)])
    def test_max_pool_matches_reshape_max(self, rng, shape):
        x = rng.standard_normal(shape)
        x.flat[::5] = np.nan  # NaN propagates through every window
        n, c, h, w = shape
        cropped = x[:, :, :h // 2 * 2, :w // 2 * 2]
        expected = cropped.reshape(n, c, h // 2, 2, w // 2, 2).max(
            axis=(3, 5))
        pooled = strided_max_pool(x)
        assert pooled.shape == expected.shape
        np.testing.assert_array_equal(pooled, expected)
        assert np.isnan(pooled).any()


# ----------------------------------------------------------------------
# Individual stages
# ----------------------------------------------------------------------
class TestFlattenStage:
    def test_flattens_images(self, rng):
        stage = FlattenStage()
        batch = rng.standard_normal((5, 3, 8, 8))
        assert stage(batch).shape == (5, 192)


class TestScaleStage:
    def test_matches_feature_scaler(self, rng):
        features = rng.standard_normal((20, 6)) * 3 + 1
        scaler = FeatureScaler().fit(features)
        stage = ScaleStage(scaler)
        np.testing.assert_array_equal(stage(features),
                                      scaler.transform(features))

    def test_unfitted_scaler_has_no_arrays(self):
        assert ScaleStage().state_arrays() == {}


class TestManifoldReduceStage:
    @pytest.mark.parametrize("shape", [
        (4, 6, 6),   # even spatial dims, pooling
        (2, 5, 7),   # odd spatial dims exercise the crop-to-even
        (3, 1, 1),   # degenerate spatial dims: pooling disabled
    ])
    def test_matches_manifold_learner(self, rng, shape):
        learner = ManifoldLearner(shape, out_features=5,
                                  rng=fresh_rng(11))
        stage = ManifoldReduceStage.from_learner(learner)
        features = rng.standard_normal((6, int(np.prod(shape))))
        np.testing.assert_array_equal(stage(features),
                                      learner.transform(features))

    def test_live_stage_sees_weight_updates(self, rng):
        learner = ManifoldLearner((2, 4, 4), out_features=3,
                                  rng=fresh_rng(1))
        stage = ManifoldReduceStage.from_learner(learner)
        features = rng.standard_normal((4, 32))
        before = stage(features)
        learner.fc.weight.data = learner.fc.weight.data * 2.0
        after = stage(features)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(after, learner.transform(features))

    def test_bad_feature_shape(self):
        with pytest.raises(ValueError, match="C, H, W"):
            ManifoldReduceStage((4, 4), 2, True, weight_fn=lambda: None)


class TestEncodeStage:
    def test_random_projection_parity(self, rng):
        encoder = RandomProjectionEncoder(8, 64, rng=fresh_rng(0))
        stage = EncodeStage(encoder)
        features = rng.standard_normal((5, 8))
        np.testing.assert_array_equal(stage(features),
                                      encoder.encode(features))
        assert stage.quantize is True

    def test_nonlinear_parity(self, rng):
        encoder = NonlinearEncoder(8, 64, rng=fresh_rng(0))
        stage = EncodeStage(encoder)
        features = rng.standard_normal((5, 8))
        np.testing.assert_array_equal(stage(features),
                                      encoder.encode(features))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("kind", ["random_projection", "nonlinear"])
    @pytest.mark.parametrize("dim", [1, 63, 64, 65, 130])
    def test_packed_copy_emits_the_quantized_signs(self, rng, kind, dim):
        """Bit i of the packed copy's words is set exactly where the
        float stage gives +1: zero, -0.0, NaN and ±Inf rows included."""
        if kind == "random_projection":
            encoder = RandomProjectionEncoder(6, dim, rng=fresh_rng(3))
        else:
            encoder = NonlinearEncoder(6, dim, rng=fresh_rng(3),
                                       quantize=True)
        stage = EncodeStage(encoder)
        features = rng.standard_normal((9, 6))
        features[1] = np.nan
        features[2] = 0.0
        features[3] = -0.0
        features[4, 0] = np.inf
        features[5, 2] = -np.inf
        words = stage.packed()(features)
        assert type(stage.packed()) is EncodeStage
        assert words.dtype == np.uint64
        assert words.shape == (9, -(-dim // 64))
        np.testing.assert_array_equal(words, pack_bipolar(stage(features)))
        np.testing.assert_array_equal(unpack_bipolar(words, dim),
                                      stage(features))
        assert not stage.emits_words  # the copy packs, not the stage

    def test_packed_copy_needs_a_quantizing_encoder(self):
        stage = EncodeStage(RandomProjectionEncoder(6, 32, rng=fresh_rng(3),
                                                    quantize=False))
        with pytest.raises(StageError, match="does not quantize"):
            stage.packed()

    def test_from_arrays_does_not_rerandomize(self):
        encoder = RandomProjectionEncoder(4, 16, rng=fresh_rng(9))
        rebuilt = RandomProjectionEncoder.from_arrays(encoder.projection)
        np.testing.assert_array_equal(rebuilt.projection,
                                      encoder.projection)

    def test_unsupported_encoder_instance_raises(self):
        class WeirdEncoder:
            quantize = False

        with pytest.raises(StageError, match="cannot serialize"):
            encoder_spec(WeirdEncoder())


class TestClassifyStage:
    def test_matches_cosine_similarity(self, rng):
        matrix = rng.standard_normal((6, 128))
        stage = ClassifyStage.from_matrix(matrix)
        queries = rng.standard_normal((9, 128))
        np.testing.assert_array_equal(
            stage.similarities(queries),
            cosine_similarity(matrix, queries))
        np.testing.assert_array_equal(
            stage(queries),
            cosine_similarity(matrix, queries).argmax(axis=1))

    def test_live_stage_tracks_trainer_matrix(self, rng):
        class FakeTrainer:
            class_matrix = rng.standard_normal((3, 32))

        trainer = FakeTrainer()
        stage = ClassifyStage.from_trainer(trainer)
        queries = rng.standard_normal((4, 32))
        before = stage.similarities(queries)
        trainer.class_matrix = rng.standard_normal((3, 32))
        after = stage.similarities(queries)
        assert not np.array_equal(before, after)
        np.testing.assert_array_equal(
            after, cosine_similarity(trainer.class_matrix, queries))

    def test_frozen_caches_norms(self, rng):
        matrix = rng.standard_normal((3, 16))
        stage = ClassifyStage.from_matrix(matrix)
        assert stage.frozen
        assert stage._norms is not None
        np.testing.assert_array_equal(stage._norms, clamped_norms(matrix))


class TestPackedClassifyStage:
    def test_matches_float_dot_on_bipolar(self, rng):
        matrix = np.where(rng.random((5, 256)) < 0.5, -1.0, 1.0)
        queries = np.where(rng.random((16, 256)) < 0.5, -1.0, 1.0)
        stage = PackedClassifyStage.from_classify(
            ClassifyStage.from_matrix(matrix))
        np.testing.assert_array_equal(stage(pack_bipolar(queries)),
                                      classify(matrix, queries))

    def test_refuses_float_queries(self, rng):
        # It reads sign words only: a ±1 float matrix is not repacked.
        matrix = np.where(rng.random((3, 64)) < 0.5, -1.0, 1.0)
        stage = PackedClassifyStage.from_classify(
            ClassifyStage.from_matrix(matrix))
        with pytest.raises(StageError, match="uint64"):
            stage(matrix)

    def test_from_classify(self, rng):
        matrix = np.where(rng.random((3, 64)) < 0.5, -1.0, 1.0)
        frozen = ClassifyStage.from_matrix(matrix)
        stage = PackedClassifyStage.from_classify(frozen)
        np.testing.assert_array_equal(stage.packed_classes,
                                      pack_bipolar(matrix))


# ----------------------------------------------------------------------
# StageGraph
# ----------------------------------------------------------------------
def _tiny_graph(rng, features=6, dim=64, classes=3):
    data = rng.standard_normal((20, features))
    scaler = FeatureScaler().fit(data)
    encoder = RandomProjectionEncoder(features, dim, rng=fresh_rng(0))
    matrix = np.where(rng.random((classes, dim)) < 0.5, -1.0, 1.0)
    graph = StageGraph([ScaleStage(scaler), EncodeStage(encoder),
                        ClassifyStage.from_matrix(matrix)], name="tiny")
    return graph, data


class TestStageGraph:
    def test_introspection(self, rng):
        graph, _ = _tiny_graph(rng)
        assert graph.names == ["scale", "encode", "classify"]
        assert len(graph) == 3
        assert "encode" in graph
        assert "extract" not in graph
        assert graph.describe() == "scale -> encode -> classify"
        assert [s.name for s in graph] == graph.names

    def test_duplicate_names_rejected(self):
        with pytest.raises(StageError, match="duplicate"):
            StageGraph([FlattenStage("x"), FlattenStage("x")])

    def test_empty_graph_rejected(self):
        with pytest.raises(StageError, match="at least one"):
            StageGraph([])

    def test_unknown_stage_raises_with_names(self, rng):
        graph, _ = _tiny_graph(rng)
        with pytest.raises(StageError, match="no stage 'reduce'"):
            graph.stage("reduce")
        with pytest.raises(StageError, match="no stage 'reduce'"):
            graph.run(np.zeros((1, 6)), start="reduce")

    def test_backwards_slice_rejected(self, rng):
        graph, data = _tiny_graph(rng)
        with pytest.raises(StageError, match="after"):
            graph.run(data, start="classify", stop="scale")

    def test_run_equals_manual_composition(self, rng):
        graph, data = _tiny_graph(rng)
        manual = data
        for stage in graph:
            manual = stage(manual)
        np.testing.assert_array_equal(graph.run(data), manual)

    def test_slice_semantics_stop_exclusive(self, rng):
        graph, data = _tiny_graph(rng)
        encoded = graph.run(data, stop="classify")
        assert encoded.shape[1] == 64  # stopped before classify
        labels = graph.run(encoded, start="classify")
        np.testing.assert_array_equal(labels, graph.run(data))

    @staticmethod
    def _traced(fn):
        from repro.telemetry import Tracer, get_tracer, set_tracer

        tracer = Tracer()
        previous = get_tracer()
        set_tracer(tracer)
        try:
            fn()
        finally:
            set_tracer(previous)
        return {child.name for child in tracer.root.children.values()}

    def test_call_emits_stage_span(self, rng):
        graph, data = _tiny_graph(rng)
        names = self._traced(
            lambda: graph.call("encode", graph.call("scale", data)))
        assert "stage.scale" in names
        assert "stage.encode" in names

    def test_run_uninstrumented_by_default(self, rng):
        graph, data = _tiny_graph(rng)
        names = self._traced(lambda: graph.run(data))
        # stages emit no spans; the encoder's own hd.encode.* span (part
        # of the encoder, not the graph runner) is the only survivor.
        assert not any(name.startswith("stage.") for name in names)

    _STAGE_SPANS = ("stage.scale", "stage.encode", "stage.similarity")

    def _request_traced_run(self, rng):
        """Stage span names of one traced ``graph.run``: (per-request
        record counts, aggregate top-level names)."""
        from collections import Counter

        from repro.telemetry.reqtrace import get_hub

        graph, data = _tiny_graph(rng)
        hub = get_hub()
        hub.reset()
        request_spans = []
        hub.configure(service="t", enabled=True)
        hub.add_span_sink(request_spans.append)

        def run():
            with hub.trace("req"):
                graph.run(data)

        try:
            aggregate = self._traced(run)
        finally:
            hub.reset()
        counts = Counter(s.name for s in request_spans)
        return {name: counts[name] for name in self._STAGE_SPANS}, aggregate

    def test_run_uninstrumented_records_request_stage_spans(self, rng):
        # Per-request stage spans are recorded whenever a request trace
        # is active, exactly once per stage, and stay out of the
        # aggregate tree.
        counts, aggregate = self._request_traced_run(rng)
        assert counts == dict.fromkeys(self._STAGE_SPANS, 1)
        assert not set(self._STAGE_SPANS) & aggregate


class TestStateArrays:
    def test_state_arrays_use_historical_keys(self, rng):
        learner = ManifoldLearner((2, 4, 4), out_features=5,
                                  rng=fresh_rng(7))
        scaler = FeatureScaler().fit(rng.standard_normal((10, 32)))
        graph = StageGraph([
            ScaleStage(scaler),
            ManifoldReduceStage.from_learner(learner),
            EncodeStage(RandomProjectionEncoder(5, 32, rng=fresh_rng(1))),
            ClassifyStage.from_matrix(rng.standard_normal((3, 32))),
        ])
        keys = set(graph.state_arrays())
        assert {"scaler.mean", "scaler.std", "manifold.weight",
                "encoder.projection", "classes"} <= keys

    def test_duplicate_array_keys_rejected(self, rng):
        scaler = FeatureScaler().fit(rng.standard_normal((10, 4)))
        graph = StageGraph([ScaleStage(scaler, name="a"),
                            ScaleStage(scaler, name="b")])
        with pytest.raises(StageError, match="re-defines"):
            graph.state_arrays()


def _scale_encode_graph(rng, kind="random_projection", quantize=True,
                        features=12, dim=128, classes=5, rows=40,
                        binary_classes=True):
    """Frozen ``scale → encode → classify`` graph + a matching batch."""
    batch = rng.standard_normal((rows, features)) * 2.0 + 1.0
    scaler = FeatureScaler().fit(batch)
    if kind == "random_projection":
        encoder = RandomProjectionEncoder(features, dim,
                                          rng=fresh_rng(3),
                                          quantize=quantize)
    else:
        encoder = NonlinearEncoder(features, dim, rng=fresh_rng(3),
                                   quantize=quantize)
    if binary_classes:
        matrix = np.where(fresh_rng(4).random((classes, dim)) < 0.5,
                          -1.0, 1.0)
    else:
        matrix = fresh_rng(4).standard_normal((classes, dim))
    graph = StageGraph([ScaleStage(scaler), EncodeStage(encoder),
                        ClassifyStage(lambda: matrix, frozen=True)])
    return graph, batch


def _scale_pool_graph(rng, shape=(4, 6, 6), out_features=5, rows=20):
    """A ``scale → reduce(pooling)`` graph + a matching batch."""
    flat = int(np.prod(shape))
    batch = rng.standard_normal((rows, flat)) * 1.5 - 0.25
    scaler = FeatureScaler().fit(batch)
    learner = ManifoldLearner(shape, out_features=out_features,
                              rng=fresh_rng(11))
    graph = StageGraph([ScaleStage(scaler),
                        ManifoldReduceStage.from_learner(learner)])
    return graph, batch


def _fuse_scale_encode(graph):
    """The graph with its leading ``scale → encode`` folded into one."""
    scale, encode, *rest = graph.stages
    fused = FusedEncodeStage.from_scale_encode(scale, encode)
    return StageGraph([fused, *rest], name=graph.name)


def _fuse_pool(graph):
    """The graph with its leading ``scale → reduce`` pool moved into
    the scale step and the reduce stage re-shaped to the pooled input."""
    scale, reduce, *rest = graph.stages
    c, h, w = reduce.feature_shape
    weight, bias = reduce.weight, reduce.bias
    plain = ManifoldReduceStage((c, h // 2, w // 2), reduce.out_features,
                                pooling=False, weight_fn=lambda: weight,
                                bias_fn=lambda: bias, name=reduce.name)
    return StageGraph([ScalePoolStage.from_scale_reduce(scale, reduce),
                       plain, *rest], name=graph.name)


# ----------------------------------------------------------------------
# Fused stages
# ----------------------------------------------------------------------
class TestFusedEncodeStage:
    @pytest.mark.parametrize("kind", ["random_projection", "nonlinear"])
    def test_labels_bit_exact(self, rng, kind):
        frozen, batch = _scale_encode_graph(rng, kind=kind)
        fused = _fuse_scale_encode(frozen)
        assert isinstance(fused.stages[0], FusedEncodeStage)
        assert fused.names == ["encode", "classify"]
        np.testing.assert_array_equal(fused.run(batch), frozen.run(batch))

    @pytest.mark.parametrize("kind", ["random_projection", "nonlinear"])
    def test_raw_encodings_within_tolerance(self, rng, kind):
        frozen, batch = _scale_encode_graph(rng, kind=kind,
                                            quantize=False)
        fused = _fuse_scale_encode(frozen)
        np.testing.assert_allclose(fused.run(batch, stop="classify"),
                                   frozen.run(batch, stop="classify"),
                                   rtol=1e-9, atol=1e-9)

    def test_unfitted_scale_rejected(self):
        encoder = RandomProjectionEncoder(6, 32, rng=fresh_rng(1))
        with pytest.raises(StageError, match="unfitted"):
            FusedEncodeStage.from_scale_encode(ScaleStage(),
                                               EncodeStage(encoder))


class TestScalePoolStage:
    def test_bit_exact(self, rng):
        frozen, batch = _scale_pool_graph(rng)
        fused = _fuse_pool(frozen)
        assert isinstance(fused.stages[0], ScalePoolStage)
        assert fused.names == frozen.names  # boundary moves only
        assert not fused.stage("reduce").pooling
        np.testing.assert_array_equal(fused.run(batch), frozen.run(batch))

    def test_odd_spatial_dims_bit_exact(self, rng):
        frozen, batch = _scale_pool_graph(rng, shape=(2, 5, 7))
        np.testing.assert_array_equal(_fuse_pool(frozen).run(batch),
                                      frozen.run(batch))


# ----------------------------------------------------------------------
# The packed-classify rule
# ----------------------------------------------------------------------
class TestPackedRefusal:
    def test_allows_quantizing_bipolar_graph(self, rng):
        frozen, _ = _scale_encode_graph(rng)
        assert packed_refusal(frozen.stages) is None

    def test_packed_graph_bit_exact(self, rng):
        frozen, batch = _scale_encode_graph(rng)
        packed = StageGraph(frozen.stages[:-2] + [
            frozen.stages[-2].packed(),
            PackedClassifyStage.from_classify(frozen.stages[-1],
                                              name="classify")])
        np.testing.assert_array_equal(packed.run(batch), frozen.run(batch))

    @pytest.mark.parametrize("kind", ["random_projection", "nonlinear"])
    def test_packed_fused_graph_bit_exact(self, rng, kind):
        frozen, batch = _scale_encode_graph(rng, kind=kind)
        fused = _fuse_scale_encode(frozen)
        assert packed_refusal(fused.stages) is None
        packed = StageGraph([fused.stages[0].packed(),
                             PackedClassifyStage.from_classify(
                                 fused.stages[1], name="classify")])
        np.testing.assert_array_equal(packed.run(batch), frozen.run(batch))

    def test_refuses_nonbipolar_classes(self, rng):
        frozen, _ = _scale_encode_graph(rng, binary_classes=False)
        assert "bipolar" in packed_refusal(frozen.stages)

    def test_refuses_unquantized_queries(self, rng):
        # Binarized classes but a continuous encoder: the queries cannot
        # be bit-packed.
        frozen, _ = _scale_encode_graph(rng, kind="nonlinear",
                                        quantize=False)
        assert "quantizing encoder" in packed_refusal(frozen.stages)

    def test_refuses_live_classify(self, rng):
        frozen, _ = _scale_encode_graph(rng)
        matrix = frozen.stages[-1].class_matrix
        live = ClassifyStage(lambda: matrix, frozen=False)
        assert "frozen" in packed_refusal(frozen.stages[:-1] + [live])
