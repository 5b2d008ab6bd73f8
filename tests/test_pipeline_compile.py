"""Tests for the stage-graph compiler: passes, executors, plans."""

import numpy as np
import pytest

from repro.hd.encoders import NonlinearEncoder, RandomProjectionEncoder
from repro.learn.manifold import ManifoldLearner
from repro.pipeline import (EXECUTORS, PASSES, ClassifyStage, CompileError,
                            CompilePlan, EncodeStage, FeatureScaler,
                            FusedEncodeStage, ManifoldReduceStage,
                            ScalePoolStage, ScaleStage, StageError,
                            StageGraph, canonical_json,
                            compile_graph, resolve_passes, stage_from_spec)
from repro.learn.pipeline import VanillaHD
from repro.serve import ModelBundle
from repro.serve.__main__ import load_config
from repro.serve.bundle import BundleError
from repro.serve.engine import InferenceEngine
from repro.serve.server import ModelServer
from repro.telemetry import get_registry
from repro.utils.rng import fresh_rng


@pytest.fixture
def rng():
    return fresh_rng((0, "compile-tests"))


def _freeze(graph):
    return StageGraph.from_topology(graph.topology(),
                                    graph.state_arrays())


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
    return _freeze(graph), batch


def _scale_pool_graph(rng, shape=(4, 6, 6), out_features=5, rows=20):
    """Frozen ``scale → reduce(pooling)`` graph + a matching batch."""
    flat = int(np.prod(shape))
    batch = rng.standard_normal((rows, flat)) * 1.5 - 0.25
    scaler = FeatureScaler().fit(batch)
    learner = ManifoldLearner(shape, out_features=out_features,
                              rng=fresh_rng(11))
    graph = StageGraph([ScaleStage(scaler),
                        ManifoldReduceStage.from_learner(learner)])
    return _freeze(graph), batch


# ----------------------------------------------------------------------
# Fusion passes
# ----------------------------------------------------------------------
class TestFuseScaleEncode:
    @pytest.mark.parametrize("kind", ["random_projection", "nonlinear"])
    def test_labels_bit_exact(self, rng, kind):
        frozen, batch = _scale_encode_graph(rng, kind=kind)
        result = compile_graph(frozen, passes=["fuse_scale_encode"])
        assert result.passes_applied == ["fuse_scale_encode"]
        assert isinstance(result.graph.stages[0], FusedEncodeStage)
        assert result.graph.names == ["encode", "classify"]
        np.testing.assert_array_equal(result.graph.run(batch),
                                      frozen.run(batch))

    @pytest.mark.parametrize("kind", ["random_projection", "nonlinear"])
    def test_raw_encodings_within_tolerance(self, rng, kind):
        frozen, batch = _scale_encode_graph(rng, kind=kind,
                                            quantize=False)
        result = compile_graph(frozen, passes=["fuse_scale_encode"])
        want = frozen.run(batch, stop="classify")
        got = result.graph.run(batch, stop="classify")
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9)

    def test_unfitted_scale_not_fused(self, rng):
        encoder = RandomProjectionEncoder(6, 32, rng=fresh_rng(1))
        graph = StageGraph([ScaleStage(), EncodeStage(encoder)])
        result = compile_graph(graph, passes=["fuse_scale_encode"])
        assert result.passes_applied == []
        assert result.graph is graph

    def test_input_graph_not_mutated(self, rng):
        frozen, _ = _scale_encode_graph(rng)
        names = list(frozen.names)
        compile_graph(frozen, passes="all")
        assert frozen.names == names
        assert isinstance(frozen.stages[0], ScaleStage)

    def test_fused_stage_roundtrips(self, rng):
        frozen, batch = _scale_encode_graph(rng, kind="nonlinear")
        compiled = compile_graph(frozen, passes="all").graph
        rebuilt = _freeze(compiled)
        np.testing.assert_array_equal(rebuilt.run(batch),
                                      compiled.run(batch))


class TestFusePool:
    def test_bit_exact(self, rng):
        frozen, batch = _scale_pool_graph(rng)
        result = compile_graph(frozen, passes=["fuse_pool"])
        assert result.passes_applied == ["fuse_pool"]
        assert isinstance(result.graph.stages[0], ScalePoolStage)
        assert result.graph.names == frozen.names  # boundary moves only
        assert not result.graph.stage("reduce").pooling
        np.testing.assert_array_equal(result.graph.run(batch),
                                      frozen.run(batch))

    def test_odd_spatial_dims_bit_exact(self, rng):
        frozen, batch = _scale_pool_graph(rng, shape=(2, 5, 7))
        compiled = compile_graph(frozen, passes=["fuse_pool"]).graph
        np.testing.assert_array_equal(compiled.run(batch),
                                      frozen.run(batch))

    def test_compiled_topology_roundtrips(self, rng):
        frozen, batch = _scale_pool_graph(rng)
        compiled = compile_graph(frozen, passes="all").graph
        rebuilt = _freeze(compiled)
        np.testing.assert_array_equal(rebuilt.run(batch),
                                      compiled.run(batch))


class TestFixedPoint:
    def test_recompiling_compiled_topology_is_identity(self, rng):
        frozen, _ = _scale_encode_graph(rng)
        compiled = compile_graph(frozen, passes="all").graph
        rebuilt = _freeze(compiled)
        again = compile_graph(rebuilt, passes="all")
        assert again.passes_applied == []
        assert again.graph.topology_json() == compiled.topology_json()

    def test_pool_fixed_point(self, rng):
        frozen, _ = _scale_pool_graph(rng)
        compiled = compile_graph(frozen, passes="all").graph
        again = compile_graph(_freeze(compiled), passes="all")
        assert again.passes_applied == []


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
class TestExecutors:
    def test_registry_contents(self):
        assert {"numpy", "threaded", "packed"} <= set(EXECUTORS)

    def test_threaded_encode_labels_exact(self, rng):
        frozen, batch = _scale_encode_graph(rng, rows=200)
        result = compile_graph(frozen, passes=None,
                               executors={"encode": "threaded"})
        assert result.executor_plan == {"encode": "threaded"}
        np.testing.assert_array_equal(result.graph.run(batch),
                                      frozen.run(batch))

    def test_threaded_raw_within_tolerance(self, rng):
        frozen, batch = _scale_encode_graph(rng, quantize=False,
                                            rows=200)
        compiled = compile_graph(frozen, passes=None,
                                 executors={"encode": "threaded"}).graph
        np.testing.assert_allclose(
            compiled.run(batch, stop="classify"),
            frozen.run(batch, stop="classify"), rtol=1e-9, atol=1e-9)

    def test_threaded_small_batch_falls_through(self, rng):
        frozen, batch = _scale_encode_graph(rng, rows=5)
        compiled = compile_graph(frozen, passes=None,
                                 executors={"encode": "threaded"}).graph
        np.testing.assert_array_equal(compiled.run(batch),
                                      frozen.run(batch))

    def test_threaded_composes_with_fusion(self, rng):
        frozen, batch = _scale_encode_graph(rng, rows=150)
        result = compile_graph(frozen, passes="all",
                               executors={"encode": "threaded"})
        assert result.passes_applied == ["fuse_scale_encode"]
        np.testing.assert_array_equal(result.graph.run(batch),
                                      frozen.run(batch))

    def test_packed_classify_bit_exact(self, rng):
        frozen, batch = _scale_encode_graph(rng)
        result = compile_graph(frozen, passes=None,
                               executors={"classify": "packed"})
        np.testing.assert_array_equal(result.graph.run(batch),
                                      frozen.run(batch))

    def test_packed_rejects_nonbipolar_classes(self, rng):
        frozen, _ = _scale_encode_graph(rng, binary_classes=False)
        with pytest.raises(CompileError, match="bipolar"):
            compile_graph(frozen, passes=None,
                          executors={"classify": "packed"})

    def test_executor_wrappers_are_serialization_transparent(self, rng):
        frozen, _ = _scale_encode_graph(rng)
        compiled = compile_graph(
            frozen, passes=None,
            executors={"encode": "threaded",
                       "classify": "packed"}).graph
        assert compiled.topology_json() == frozen.topology_json()
        assert compiled.topology_digest() == frozen.topology_digest()

    def test_unknown_stage_in_plan(self, rng):
        frozen, _ = _scale_encode_graph(rng)
        with pytest.raises(CompileError, match="unknown stage"):
            compile_graph(frozen, executors={"nope": "threaded"})

    def test_unknown_executor_in_plan(self, rng):
        frozen, _ = _scale_encode_graph(rng)
        with pytest.raises(CompileError, match="registered"):
            compile_graph(frozen, executors={"encode": "cuda"})

    def test_inapplicable_executor_explains_why(self, rng):
        frozen, _ = _scale_encode_graph(rng)
        with pytest.raises(CompileError, match="only applies to"):
            compile_graph(frozen, passes=None,
                          executors={"scale": "threaded"})

    def test_plan_checked_against_compiled_graph(self, rng):
        # Default passes="all" fuses scale away, so a plan keyed on the
        # pre-fusion stage name must fail against the compiled names.
        frozen, _ = _scale_encode_graph(rng)
        with pytest.raises(CompileError, match="unknown stage"):
            compile_graph(frozen, executors={"scale": "threaded"})

    def test_packed_rejects_unquantized_queries(self, rng):
        # Binarized classes but a continuous encoder: the queries cannot
        # be bit-packed, so an explicit packed request fails at compile
        # time instead of on every run.
        frozen, _ = _scale_encode_graph(rng, kind="nonlinear",
                                        quantize=False)
        with pytest.raises(CompileError, match="quantizing encoder"):
            compile_graph(frozen, passes=None,
                          executors={"classify": "packed"})

    def test_auto_selects_packed_for_quantizing_graph(self, rng):
        frozen, batch = _scale_encode_graph(rng)
        result = compile_graph(frozen, passes=None, executors="auto")
        assert result.executor_plan == {"classify": "packed"}
        np.testing.assert_array_equal(result.graph.run(batch),
                                      frozen.run(batch))

    def test_auto_refuses_unquantized_queries(self, rng):
        # Packed classify packs the *queries* too: a non-quantizing
        # encoder would misrank, so "auto" must not select it.
        frozen, _ = _scale_encode_graph(rng, quantize=False)
        result = compile_graph(frozen, passes=None, executors="auto")
        assert result.executor_plan == {}


# ----------------------------------------------------------------------
# Canonical topology emit
# ----------------------------------------------------------------------
class TestCanonicalJson:
    def test_sorted_compact_and_coerced(self):
        out = canonical_json({"b": np.int64(1), "a": np.float64(2.0)})
        assert out == '{"a":2.0,"b":1}'

    def test_negative_zero_normalized(self):
        assert canonical_json(-0.0) == canonical_json(0.0)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))

    def test_unencodable_type_rejected(self):
        with pytest.raises(TypeError):
            canonical_json(object())

    def test_topology_json_deterministic(self, rng):
        a, _ = _scale_encode_graph(rng)
        b = _freeze(a)
        assert a.topology_json() == b.topology_json()
        assert a.topology_digest() == b.topology_digest()
        assert len(a.topology_digest()) == 40

    def test_topology_digest_tracks_spec_changes(self, rng):
        a, _ = _scale_encode_graph(rng, dim=64)
        b, _ = _scale_encode_graph(rng, dim=128)
        assert a.topology_digest() != b.topology_digest()


# ----------------------------------------------------------------------
# Plans, resolution, verification
# ----------------------------------------------------------------------
class TestCompilePlan:
    def test_roundtrip(self):
        plan = CompilePlan(passes=["fuse_pool"],
                           executors={"encode": "threaded"})
        clone = CompilePlan.from_dict(plan.to_dict())
        assert clone.passes == ["fuse_pool"]
        assert clone.executors == {"encode": "threaded"}

    def test_auto_executors_roundtrip(self):
        plan = CompilePlan(passes="all", executors="auto")
        clone = CompilePlan.from_dict(plan.to_dict())
        assert clone.executors == "auto"
        assert clone.passes == list(PASSES)

    def test_empty(self):
        assert CompilePlan().is_empty()
        assert CompilePlan.from_dict(None).is_empty()
        assert not CompilePlan(passes="all").is_empty()

    def test_unknown_pass_rejected(self):
        with pytest.raises(CompileError, match="registered"):
            CompilePlan(passes=["warp_drive"])

    def test_unknown_executor_rejected(self):
        with pytest.raises(CompileError, match="registered"):
            CompilePlan(executors={"encode": "cuda"})

    def test_malformed_executors_rejected(self):
        with pytest.raises(CompileError, match="executors must be"):
            CompilePlan(executors=42)


class TestResolvePasses:
    def test_all_is_canonical_order(self):
        assert resolve_passes("all") == list(PASSES)
        assert resolve_passes("all")[0] == "fuse_scale_encode"

    def test_none_variants(self):
        assert resolve_passes(None) == []
        assert resolve_passes("none") == []
        assert resolve_passes([]) == []

    def test_single_name_string(self):
        assert resolve_passes("fuse_pool") == ["fuse_pool"]

    def test_unknown_listed(self):
        with pytest.raises(CompileError, match="fuse_scale_encode"):
            resolve_passes(["bogus"])


class TestVerification:
    def test_verify_batch_passes_on_sound_compile(self, rng):
        frozen, batch = _scale_encode_graph(rng)
        result = compile_graph(frozen, passes="all", executors="auto",
                               verify_batch=batch)
        assert result.passes_applied == ["fuse_scale_encode"]

    def test_verify_batch_catches_unsound_pass(self, rng):
        frozen, batch = _scale_encode_graph(rng)

        def rot_classify(graph):
            matrix = np.roll(np.asarray(
                graph.stage("classify").class_matrix), 1, axis=0)
            stages = [ClassifyStage(lambda: matrix, frozen=True)
                      if s.name == "classify" else s
                      for s in graph.stages]
            return StageGraph(stages, name=graph.name)

        PASSES["_test_rot"] = rot_classify
        try:
            with pytest.raises(CompileError, match="disagrees"):
                compile_graph(frozen, passes=["_test_rot"],
                              verify_batch=batch)
        finally:
            del PASSES["_test_rot"]

    def test_compile_metrics(self, rng):
        get_registry().reset()
        frozen, _ = _scale_encode_graph(rng)
        compile_graph(frozen, passes="all", executors="auto")
        snapshot = get_registry().snapshot()
        assert snapshot["compile.runs"]["value"] == 1
        assert snapshot["compile.passes_applied"]["value"] == 1
        assert snapshot["compile.executors_bound"]["value"] == 1


# ----------------------------------------------------------------------
# Serving / pipeline integration
# ----------------------------------------------------------------------
class TestServeIntegration:
    def _features(self, n=24, features=32):
        return fresh_rng((1, "serve-compile")).standard_normal(
            (n, features))

    def test_precompile_bundle_defaults_to_empty_plan(
            self, synthetic_bundle):
        bundle = synthetic_bundle()
        assert bundle.compile_plan().is_empty()
        engine = InferenceEngine(bundle, build_extractor=False)
        assert engine.compile_passes == []

    def test_invalid_plan_in_bundle_fails_loudly(self, synthetic_bundle):
        bundle = synthetic_bundle()
        bundle.info["compile"] = {"passes": ["warp_drive"]}
        with pytest.raises(BundleError, match="invalid compile plan"):
            bundle.compile_plan()

    def test_engine_compile_bit_exact(self, synthetic_bundle):
        bundle = synthetic_bundle()
        plain = InferenceEngine(bundle, build_extractor=False,
                                cache_size=0, use_packed=False)
        compiled = InferenceEngine(bundle, build_extractor=False,
                                   cache_size=0, use_packed=False,
                                   passes="all")
        assert compiled.compile_passes == ["fuse_scale_encode"]
        x = self._features()
        np.testing.assert_array_equal(compiled.predict_features(x),
                                      plain.predict_features(x))

    def test_engine_executors_and_describe(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(),
                                 build_extractor=False, cache_size=0,
                                 passes="all", executors="auto")
        assert engine.executor_plan.get("classify") == "packed"
        described = engine.describe()["compile"]
        assert described["passes"] == ["fuse_scale_encode"]
        assert described["executors"] == engine.executor_plan

    def test_engine_packed_backcompat_preserved(self, synthetic_bundle):
        # The tri-state use_packed contract survives compilation.
        engine = InferenceEngine(synthetic_bundle(),
                                 build_extractor=False, passes="all")
        assert engine.use_packed
        with pytest.raises(BundleError):
            InferenceEngine(synthetic_bundle(binary=False),
                            build_extractor=False, use_packed=True,
                            passes="all")

    def test_deep_health_reports_compile_vitals(self, synthetic_bundle):
        engine = InferenceEngine(synthetic_bundle(),
                                 build_extractor=False, cache_size=0,
                                 passes="all")
        with ModelServer(engine, port=0, workers=1) as server:
            vitals = server.health(deep=True)["engine_vitals"]
        assert vitals["compile_passes"] == ["fuse_scale_encode"]
        assert isinstance(vitals["executor_plan"], dict)


class TestPipelineIntegration:
    def _fitted_vanilla(self):
        rng = fresh_rng((0, "vanilla-compile"))
        images = rng.random((40, 3, 8, 8)).astype(np.float64)
        labels = np.asarray(rng.integers(0, 3, 40))
        pipe = VanillaHD(num_classes=3, image_size=8, dim=96, seed=0)
        pipe.fit(images, labels, epochs=1)
        return pipe, images

    def test_bundle_from_pipeline_persists_plan(self):
        pipe, images = self._fitted_vanilla()
        bundle = ModelBundle.from_pipeline(pipe, compile_passes="all",
                                           compile_executors="auto")
        plan = bundle.compile_plan()
        assert plan.passes == list(PASSES)
        assert plan.executors == "auto"
        engine = InferenceEngine(bundle, cache_size=0)
        assert engine.compile_passes == ["fuse_scale_encode"]
        np.testing.assert_array_equal(engine.predict(images),
                                      pipe.predict(images))

    def test_pipeline_compiled_matches_predict(self):
        pipe, images = self._fitted_vanilla()
        graph = pipe.compiled(passes="all")
        np.testing.assert_array_equal(graph.run(images),
                                      pipe.predict(images))


class TestCompileConfig:
    def test_compile_section_flattens(self, tmp_path):
        path = tmp_path / "serve.toml"
        path.write_text('[compile]\npasses = "all"\n'
                        '[compile.executors]\nencode = "threaded"\n')
        config = load_config(str(path))
        assert config["compile_passes"] == "all"
        assert config["compile_executors"] == {"encode": "threaded"}

    def test_unknown_compile_key_rejected(self, tmp_path):
        path = tmp_path / "serve.toml"
        for key in ("jit", "stage_cache"):
            path.write_text(f'[compile]\n{key} = 1\n')
            with pytest.raises(ValueError, match=rf"compile\.{key}"):
                load_config(str(path))

    def test_unknown_section_error_lists_compile(self, tmp_path):
        path = tmp_path / "serve.toml"
        path.write_text('[warp]\nspeed = 9\n')
        with pytest.raises(ValueError, match=r"\[compile\]"):
            load_config(str(path))


# ----------------------------------------------------------------------
# Error-message satellites
# ----------------------------------------------------------------------
class TestErrorMessages:
    def test_unknown_stage_type_lists_registered(self):
        with pytest.raises(StageError, match="encode_fused"):
            stage_from_spec({"type": "quantum", "name": "q"}, {})

    def test_unknown_encoder_type_lists_supported(self):
        spec = {"type": "encode", "name": "encode",
                "encoder": {"type": "holographic", "in_features": 4,
                            "dim": 8}}
        with pytest.raises(StageError,
                           match="random_projection.*nonlinear"
                                 "|nonlinear.*random_projection"):
            stage_from_spec(spec, {})
