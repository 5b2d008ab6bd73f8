"""Unit tests for the stage library and StageGraph serialization."""

import numpy as np
import pytest

from repro.hd.backend import pack_bipolar
from repro.hd.encoders import NonlinearEncoder, RandomProjectionEncoder
from repro.hd.similarity import classify, packed_classify
from repro.learn.manifold import ManifoldLearner
from repro.learn.mass import normalized_similarity
from repro.pipeline import (STAGE_TYPES, ClassifyStage, EncodeStage,
                            FeatureScaler, FlattenStage, ManifoldReduceStage,
                            PackedClassifyStage, ScaleStage, Stage,
                            StageError, StageGraph, clamped_norms,
                            cosine_similarities, encoder_spec,
                            register_stage, stage_from_spec)
from repro.pipeline.stages import max_pool_2x2
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
        ours = cosine_similarities(matrix, queries)
        theirs = normalized_similarity(matrix, queries)
        np.testing.assert_array_equal(ours, theirs)

    def test_precomputed_norms_change_nothing(self, rng):
        matrix = rng.standard_normal((4, 32))
        queries = rng.standard_normal((3, 32))
        np.testing.assert_array_equal(
            cosine_similarities(matrix, queries),
            cosine_similarities(matrix, queries,
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
        pooled = max_pool_2x2(x)
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

    def test_roundtrip(self):
        stage = FlattenStage()
        clone = stage_from_spec(stage.spec(), {})
        assert isinstance(clone, FlattenStage)
        assert clone.name == stage.name


class TestScaleStage:
    def test_matches_feature_scaler(self, rng):
        features = rng.standard_normal((20, 6)) * 3 + 1
        scaler = FeatureScaler().fit(features)
        stage = ScaleStage(scaler)
        np.testing.assert_array_equal(stage(features),
                                      scaler.transform(features))

    def test_roundtrip(self, rng):
        features = rng.standard_normal((10, 4))
        stage = ScaleStage(FeatureScaler().fit(features))
        clone = stage_from_spec(stage.spec(), stage.state_arrays())
        np.testing.assert_array_equal(clone(features), stage(features))

    def test_unfitted_scaler_has_no_arrays(self):
        assert ScaleStage().state_arrays() == {}

    def test_missing_arrays_raise(self):
        with pytest.raises(StageError, match="scaler.mean"):
            stage_from_spec({"type": "scale", "name": "scale"}, {})


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

    def test_roundtrip(self, rng):
        learner = ManifoldLearner((2, 4, 4), out_features=3,
                                  rng=fresh_rng(2))
        stage = ManifoldReduceStage.from_learner(learner)
        clone = stage_from_spec(stage.spec(), stage.state_arrays())
        features = rng.standard_normal((5, 32))
        np.testing.assert_array_equal(clone(features), stage(features))

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
        assert stage.encoder_type == "random_projection"
        assert stage.quantize is True

    def test_nonlinear_parity(self, rng):
        encoder = NonlinearEncoder(8, 64, rng=fresh_rng(0))
        stage = EncodeStage(encoder)
        features = rng.standard_normal((5, 8))
        np.testing.assert_array_equal(stage(features),
                                      encoder.encode(features))
        assert stage.encoder_type == "nonlinear"

    @pytest.mark.parametrize("make", [
        lambda: RandomProjectionEncoder(6, 32, rng=fresh_rng(3)),
        lambda: RandomProjectionEncoder(6, 32, rng=fresh_rng(3), quantize=False),
        lambda: NonlinearEncoder(6, 32, rng=fresh_rng(3)),
    ])
    def test_roundtrip(self, rng, make):
        stage = EncodeStage(make())
        clone = stage_from_spec(stage.spec(), stage.state_arrays())
        features = rng.standard_normal((4, 6))
        np.testing.assert_array_equal(clone(features), stage(features))
        assert clone.quantize == stage.quantize
        assert clone.encoder_type == stage.encoder_type

    def test_from_arrays_does_not_rerandomize(self):
        encoder = RandomProjectionEncoder(4, 16, rng=fresh_rng(9))
        rebuilt = RandomProjectionEncoder.from_arrays(encoder.projection)
        np.testing.assert_array_equal(rebuilt.projection,
                                      encoder.projection)

    def test_unknown_encoder_type_raises(self):
        with pytest.raises(StageError, match="unknown encoder type"):
            stage_from_spec({"type": "encode", "name": "encode",
                             "encoder": {"type": "fourier"}}, {})

    def test_unsupported_encoder_instance_raises(self):
        class WeirdEncoder:
            quantize = False

        with pytest.raises(StageError, match="cannot serialize"):
            encoder_spec(WeirdEncoder())


class TestClassifyStage:
    def test_matches_normalized_similarity(self, rng):
        matrix = rng.standard_normal((6, 128))
        stage = ClassifyStage.from_matrix(matrix)
        queries = rng.standard_normal((9, 128))
        np.testing.assert_array_equal(
            stage.similarities(queries),
            normalized_similarity(matrix, queries))
        np.testing.assert_array_equal(
            stage(queries),
            normalized_similarity(matrix, queries).argmax(axis=1))

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
            after, normalized_similarity(trainer.class_matrix, queries))

    def test_frozen_caches_norms(self, rng):
        matrix = rng.standard_normal((3, 16))
        stage = ClassifyStage.from_matrix(matrix)
        assert stage.frozen
        assert stage._norms is not None
        np.testing.assert_array_equal(stage._norms, clamped_norms(matrix))

    def test_roundtrip(self, rng):
        matrix = rng.standard_normal((4, 64))
        stage = ClassifyStage.from_matrix(matrix)
        clone = stage_from_spec(stage.spec(), stage.state_arrays())
        queries = rng.standard_normal((5, 64))
        np.testing.assert_array_equal(clone.similarities(queries),
                                      stage.similarities(queries))


class TestPackedClassifyStage:
    def test_matches_float_dot_on_bipolar(self, rng):
        matrix = np.where(rng.random((5, 256)) < 0.5, -1.0, 1.0)
        queries = np.where(rng.random((16, 256)) < 0.5, -1.0, 1.0)
        stage = PackedClassifyStage.from_class_matrix(matrix)
        np.testing.assert_array_equal(stage(queries),
                                      classify(matrix, queries,
                                               metric="dot"))

    def test_from_classify(self, rng):
        matrix = np.where(rng.random((3, 64)) < 0.5, -1.0, 1.0)
        frozen = ClassifyStage.from_matrix(matrix)
        stage = PackedClassifyStage.from_classify(frozen)
        np.testing.assert_array_equal(stage.packed_classes,
                                      pack_bipolar(matrix))

    def test_not_registered_for_topology(self):
        # An execution variant, not a persisted stage type.
        assert "classify_packed" not in STAGE_TYPES


# ----------------------------------------------------------------------
# Registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_builtin_types_registered(self):
        for stage_type in ("flatten", "extract", "scale", "reduce",
                           "encode", "classify"):
            assert stage_type in STAGE_TYPES

    def test_unknown_type_raises(self):
        with pytest.raises(StageError, match="unknown stage type"):
            stage_from_spec({"type": "quantum", "name": "q"}, {})

    def test_register_stage_decorator(self):
        @register_stage
        class NoopStage(Stage):
            stage_type = "test_noop"

            def __call__(self, batch, ctx=None):
                return batch

            @classmethod
            def from_spec(cls, spec, arrays):
                return cls(spec.get("name", "noop"))

        try:
            stage = stage_from_spec({"type": "test_noop", "name": "n"}, {})
            assert isinstance(stage, NoopStage)
        finally:
            del STAGE_TYPES["test_noop"]


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

    def test_run_instrumented_emits_all_spans(self, rng):
        graph, data = _tiny_graph(rng)
        names = self._traced(lambda: graph.run(data, instrument=True))
        # classify's span uses the historical "stage.similarity" name
        assert {"stage.scale", "stage.encode",
                "stage.similarity"} <= names

    def test_run_instrumented_records_request_stage_spans(self, rng):
        # Per-request stage spans are recorded whenever a request trace
        # is active, independently of `instrument` (which controls only
        # the aggregate ledger spans).
        from repro.telemetry.reqtrace import get_hub

        graph, data = _tiny_graph(rng)
        hub = get_hub()
        hub.reset()
        request_spans = []
        hub.configure(service="t", enabled=True, sample_rate=1.0)
        hub.add_span_sink(request_spans.append)

        def run():
            with hub.trace("req"):
                graph.run(data, instrument=True)

        try:
            aggregate = self._traced(run)
        finally:
            hub.reset()
        expected = {"stage.scale", "stage.encode", "stage.similarity"}
        assert expected <= {s.name for s in request_spans}
        assert expected <= aggregate


class TestTopologyRoundTrip:
    def test_full_round_trip_is_bit_exact(self, rng):
        graph, data = _tiny_graph(rng)
        rebuilt = StageGraph.from_topology(graph.topology(),
                                           graph.state_arrays())
        assert rebuilt.names == graph.names
        assert rebuilt.name == graph.name
        np.testing.assert_array_equal(rebuilt.run(data), graph.run(data))
        np.testing.assert_array_equal(
            rebuilt.run(data, stop="classify"),
            graph.run(data, stop="classify"))

    def test_json_round_trip(self, rng):
        graph, data = _tiny_graph(rng)
        rebuilt = StageGraph.from_topology(graph.topology_json(),
                                           graph.state_arrays())
        np.testing.assert_array_equal(rebuilt.run(data), graph.run(data))

    def test_manifold_graph_round_trip(self, rng):
        learner = ManifoldLearner((2, 4, 4), out_features=5,
                                  rng=fresh_rng(7))
        scaler = FeatureScaler().fit(rng.standard_normal((10, 32)))
        graph = StageGraph([
            ScaleStage(scaler),
            ManifoldReduceStage.from_learner(learner),
            EncodeStage(RandomProjectionEncoder(5, 32, rng=fresh_rng(1))),
            ClassifyStage.from_matrix(rng.standard_normal((3, 32))),
        ], name="manifold")
        data = rng.standard_normal((6, 32))
        rebuilt = StageGraph.from_topology(graph.topology(),
                                           graph.state_arrays())
        np.testing.assert_array_equal(rebuilt.run(data), graph.run(data))

    def test_newer_version_rejected(self, rng):
        graph, _ = _tiny_graph(rng)
        topology = graph.topology()
        topology["version"] = 999
        with pytest.raises(StageError, match="newer"):
            StageGraph.from_topology(topology, graph.state_arrays())

    def test_empty_topology_rejected(self):
        with pytest.raises(StageError, match="no stages"):
            StageGraph.from_topology({"version": 1, "stages": []}, {})

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

    def test_load_arrays_refreshes_weights(self, rng):
        graph, data = _tiny_graph(rng)
        arrays = graph.state_arrays()
        arrays = {k: np.asarray(v).copy() for k, v in arrays.items()}
        arrays["classes"] = np.roll(arrays["classes"], 1, axis=0)
        before = graph.run(data)
        graph.load_arrays(arrays)
        after = graph.run(data)
        assert not np.array_equal(before, after)
