"""Golden bit-exactness suite for the stage-graph refactor.

The fixtures in ``tests/fixtures/`` were recorded at the commit
immediately **before** the refactor (see ``make_golden.py``).  This file
enforces the refactor's central promise on every later revision:

* re-fitting the three pipelines from the frozen CNN weights reproduces
  the pre-refactor predictions and encoded hypervectors **bit-exactly**;
* legacy checkpoints still restore, and so do checkpoints that carry
  the ``"graph"`` topology section later builds wrote;
* pre-refactor serve bundles (no ``info["graph"]``) serve bit-exactly
  from their provenance fields — float *and* packed;
* newly written bundles carry no stored topology, round-trip through
  the graph executor, and a stored ``info["graph"]`` changes no label.
"""

import json
import os

import numpy as np
import pytest

from repro.data import make_dataset, normalize_images
from repro.hardware.quantize import QuantizedTensor
from repro.learn import NSHD, BaselineHD, VanillaHD
from repro.models import create_model
from repro.nn.serialize import (load_manifest, load_state,
                                load_state_with_manifest, manifest_section,
                                save_state)
from repro.pipeline import ClassifyStage, ManifoldReduceStage, StageGraph
from repro.serve import InferenceEngine, ModelBundle

FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")

with open(os.path.join(FIXTURES, "golden_spec.json")) as _handle:
    SPEC = json.load(_handle)

PIPELINES = ("nshd", "baselinehd", "vanillahd")
BUNDLES = ("nshd", "nshd_packed", "baselinehd", "baselinehd_packed",
           "vanillahd")


def _fixture(name):
    return os.path.join(FIXTURES, f"{name}")


def _bundle_fixture(name):
    """(path, recorded-labels key) of a golden bundle in ``BUNDLES``."""
    pipeline, _, packed = name.partition("_")
    path = _fixture(f"golden_{pipeline}_bundle"
                    f"{'_packed' if packed else ''}.npz")
    return path, f"{pipeline}.{'packed' if packed else 'engine'}_labels"


def _stored_topology(info, scale="scale", encode="encode"):
    """An ``info["graph"]`` block in the layout exports used to write."""
    front = ({"type": "extract", "name": "extract", **info["extractor"]}
             if info["extractor"] else {"type": "flatten", "name": "flatten"})
    reduce = ([{"type": "reduce", "name": "reduce", **info["manifold"]}]
              if info["manifold"] else [])
    return {"version": 1, "name": info["pipeline"].lower(),
            "stages": [front, {"type": scale, "name": "scale"}, *reduce,
                       {"type": encode, "name": "encode",
                        "encoder": info["encoder"]},
                       {"type": "classify", "name": "classify",
                        "metric": "cosine"}]}


STORED_TOPOLOGIES = {
    "current": _stored_topology,
    "stale": lambda info: {"version": 99, "name": "stale",
                           "stages": [{"type": "quantum", "name": "q"}]},
    "fused": lambda info: _stored_topology(info, scale="scale_pool",
                                           encode="encode_fused"),
}


@pytest.fixture(scope="module")
def golden():
    with np.load(_fixture("golden_inputs.npz")) as archive:
        return {key: archive[key] for key in archive.files}


@pytest.fixture(scope="module")
def dataset():
    x_tr, y_tr, x_te, y_te = make_dataset(
        num_classes=SPEC["num_classes"], num_train=SPEC["num_train"],
        num_test=SPEC["num_test"], seed=SPEC["data_seed"])
    x_tr, mean, std = normalize_images(x_tr)
    x_te, _, _ = normalize_images(x_te, mean, std)
    return x_tr, y_tr, x_te, y_te


@pytest.fixture(scope="module")
def cnn():
    """The frozen golden CNN (weights loaded, never retrained)."""
    model = create_model(SPEC["model"], num_classes=SPEC["num_classes"],
                         width_mult=SPEC["width_mult"],
                         seed=SPEC["model_seed"])
    model.load_state_dict(load_state(_fixture("golden_model.npz")))
    model.eval()
    return model


def _fresh_pipeline(name, cnn):
    if name == "nshd":
        return NSHD(cnn, layer_index=SPEC["layer_index"], dim=SPEC["dim"],
                    reduced_features=SPEC["reduced_features"],
                    seed=SPEC["seed"])
    if name == "baselinehd":
        return BaselineHD(cnn, layer_index=SPEC["layer_index"],
                          dim=SPEC["dim"], seed=SPEC["seed"])
    return VanillaHD(num_classes=SPEC["num_classes"],
                     image_size=SPEC["image_size"], dim=SPEC["dim"],
                     seed=SPEC["seed"])


@pytest.fixture(scope="module")
def refit(cnn, dataset):
    """All three pipelines re-fit post-refactor from the golden CNN."""
    x_tr, y_tr, _, _ = dataset
    out = {}
    for name in PIPELINES:
        pipeline = _fresh_pipeline(name, cnn)
        pipeline.fit(x_tr, y_tr, epochs=SPEC["epochs"])
        out[name] = pipeline
    return out


# ----------------------------------------------------------------------
# 1. Re-fit bit-exactness
# ----------------------------------------------------------------------
class TestRefitBitExact:
    @pytest.mark.parametrize("name", PIPELINES)
    def test_predictions_reproduce_verbatim(self, refit, golden, name):
        labels = refit[name].predict(golden["x_te"])
        np.testing.assert_array_equal(labels, golden[f"{name}.labels"])

    @pytest.mark.parametrize("name", PIPELINES)
    def test_encoded_hypervectors_reproduce_verbatim(self, refit, golden,
                                                     name):
        encoded = refit[name].encode(golden["x_te"])
        np.testing.assert_array_equal(encoded, golden[f"{name}.encoded"])

    @pytest.mark.parametrize("name", PIPELINES)
    def test_graph_topology_names(self, refit, name):
        expected = {
            "nshd": "extract -> scale -> reduce -> encode -> classify",
            "baselinehd": "extract -> scale -> encode -> classify",
            "vanillahd": "flatten -> scale -> encode -> classify",
        }[name]
        assert refit[name].graph.describe() == expected


# ----------------------------------------------------------------------
# 2. Legacy (pre-refactor) checkpoints restore
# ----------------------------------------------------------------------
class TestLegacyCheckpoints:
    @pytest.mark.parametrize("name", PIPELINES)
    def test_golden_checkpoint_restores_predictions(self, cnn, golden,
                                                    name):
        pipeline = _fresh_pipeline(name, cnn)
        epoch, _ = pipeline.load_checkpoint(
            _fixture(f"golden_{name}_ckpt.npz"))
        assert epoch == SPEC["epochs"]
        np.testing.assert_array_equal(pipeline.predict(golden["x_te"]),
                                      golden[f"{name}.labels"])

    @pytest.mark.parametrize("name", PIPELINES)
    def test_golden_checkpoint_has_no_graph_section(self, name):
        manifest = load_manifest(_fixture(f"golden_{name}_ckpt.npz"))
        assert manifest_section(manifest, "graph") is None

    @pytest.mark.parametrize("name", PIPELINES)
    def test_old_graph_section_restores(self, cnn, refit, golden,
                                        tmp_path, name):
        new = str(tmp_path / "new.npz")
        refit[name].save_checkpoint(new, epoch=SPEC["epochs"])
        state, manifest = load_state_with_manifest(new)
        assert manifest_section(manifest, "graph") is None
        # The section earlier builds wrote next to the training state.
        old = str(tmp_path / "old.npz")
        stages = [{"type": stage, "name": stage}
                  for stage in refit[name].graph.names]
        save_state(state, old, meta=manifest["meta"],
                   sections={"graph": {"topology": {
                       "version": 1, "name": name, "stages": stages}}})
        pipeline = _fresh_pipeline(name, cnn)
        epoch, _ = pipeline.load_checkpoint(old)
        assert epoch == SPEC["epochs"]
        np.testing.assert_array_equal(pipeline.trainer.class_matrix,
                                      refit[name].trainer.class_matrix)
        np.testing.assert_array_equal(pipeline.encode(golden["x_te"]),
                                      refit[name].encode(golden["x_te"]))
        np.testing.assert_array_equal(pipeline.predict(golden["x_te"]),
                                      golden[f"{name}.labels"])


# ----------------------------------------------------------------------
# 3. Legacy (pre-refactor) bundles serve from their provenance fields
# ----------------------------------------------------------------------
class TestLegacyBundles:
    @pytest.mark.parametrize("name", PIPELINES)
    def test_float_bundle_serves_bit_exact(self, golden, name):
        bundle = ModelBundle.load(_fixture(f"golden_{name}_bundle.npz"))
        assert "graph" not in bundle.info  # genuinely pre-refactor
        engine = InferenceEngine(bundle, cache_size=0)
        got = engine.predict_features(golden[f"{name}.raw_features"])
        np.testing.assert_array_equal(got, golden[f"{name}.engine_labels"])
        np.testing.assert_array_equal(got, golden[f"{name}.labels"])

    @pytest.mark.parametrize("name", ("nshd", "baselinehd"))
    def test_image_predict_through_shim(self, golden, name):
        bundle = ModelBundle.load(_fixture(f"golden_{name}_bundle.npz"))
        engine = InferenceEngine(bundle, cache_size=0)
        np.testing.assert_array_equal(engine.predict(golden["x_te"]),
                                      golden[f"{name}.labels"])

    @pytest.mark.parametrize("name", ("nshd", "baselinehd"))
    def test_packed_bundle_serves_bit_exact(self, golden, name):
        bundle = ModelBundle.load(
            _fixture(f"golden_{name}_bundle_packed.npz"))
        assert "graph" not in bundle.info
        engine = InferenceEngine(bundle, cache_size=0)
        assert engine.use_packed  # auto-selected on the bipolar export
        got = engine.predict_features(golden[f"{name}.raw_features"])
        np.testing.assert_array_equal(got, golden[f"{name}.packed_labels"])

    @pytest.mark.parametrize("name", PIPELINES)
    def test_shim_synthesizes_expected_topology(self, name):
        bundle = ModelBundle.load(_fixture(f"golden_{name}_bundle.npz"))
        graph = bundle.build_graph()
        expected = {
            "nshd": ["extract", "scale", "reduce", "encode", "classify"],
            "baselinehd": ["extract", "scale", "encode", "classify"],
            "vanillahd": ["flatten", "scale", "encode", "classify"],
        }[name]
        assert graph.names == expected


# ----------------------------------------------------------------------
# 4. New bundles round-trip; a stored topology changes nothing
# ----------------------------------------------------------------------
class TestNewBundles:
    @pytest.mark.parametrize("name", PIPELINES)
    def test_bundle_round_trip_matches_pipeline(self, refit, golden,
                                                tmp_path, name):
        pipeline = refit[name]
        path = str(tmp_path / f"{name}_bundle.npz")
        bundle = ModelBundle.from_pipeline(pipeline,
                                           config={"golden": name})
        assert "graph" not in bundle.info  # provenance fields only
        bundle.save(path)
        engine = InferenceEngine.from_path(path, cache_size=0)
        raw = golden[f"{name}.raw_features"]
        np.testing.assert_array_equal(engine.predict_features(raw),
                                      golden[f"{name}.labels"])
        assert engine.graph.names == pipeline.graph.names

    @pytest.mark.parametrize("name", ("nshd", "baselinehd"))
    def test_binarized_bundle_round_trip_packed(self, refit, golden,
                                                tmp_path, name):
        path = str(tmp_path / f"{name}_packed.npz")
        ModelBundle.from_pipeline(refit[name], config={"golden": name},
                                  binarize=True).save(path)
        engine = InferenceEngine.from_path(path, cache_size=0)
        assert engine.use_packed
        raw = golden[f"{name}.raw_features"]
        np.testing.assert_array_equal(engine.predict_features(raw),
                                      golden[f"{name}.packed_labels"])

    @pytest.mark.parametrize("name", PIPELINES)
    def test_int8_bundle_round_trip(self, refit, golden, tmp_path, name):
        pipeline = refit[name]
        path = str(tmp_path / f"{name}_int8.npz")
        ModelBundle.from_pipeline(pipeline, quantize_bits=8).save(path)
        bundle = ModelBundle.load(path)
        assert "classes.q" in bundle.arrays
        engine = InferenceEngine(bundle, cache_size=0)
        # Reference: the live graph with the int8 weights dequantized.
        swap = {"classify": ClassifyStage.from_matrix(
            QuantizedTensor.from_arrays(bundle.arrays,
                                        "classes").dequantize())}
        if "reduce" in pipeline.graph:
            live = pipeline.graph.stage("reduce")
            weight = QuantizedTensor.from_arrays(
                bundle.arrays, "manifold.weight").dequantize()
            swap["reduce"] = ManifoldReduceStage(
                live.feature_shape, live.out_features, live.pooling,
                weight_fn=lambda: weight, bias_fn=lambda: live.bias)
        reference = StageGraph([swap.get(stage.name, stage)
                                for stage in pipeline.graph])
        np.testing.assert_array_equal(engine.predict(golden["x_te"]),
                                      reference.run(golden["x_te"]))

    @pytest.mark.parametrize("stored", sorted(STORED_TOPOLOGIES))
    @pytest.mark.parametrize("name", BUNDLES)
    def test_stored_topology_is_ignored(self, golden, tmp_path, name,
                                        stored):
        """A bundle carrying ``info["graph"]`` — as exports wrote it, a
        stale one, or one naming the fused stages — serves exactly what
        the same bundle without the key serves."""
        source, want = _bundle_fixture(name)
        bundle = ModelBundle.load(source)
        bundle.info["graph"] = STORED_TOPOLOGIES[stored](bundle.info)
        path = str(tmp_path / "stored.npz")
        bundle.save(path)
        with_key = InferenceEngine.from_path(path, cache_size=0)
        assert "graph" in with_key.bundle.info
        without = InferenceEngine(ModelBundle.load(source), cache_size=0)
        assert with_key.graph.names == without.graph.names
        assert with_key.use_packed == without.use_packed
        pipeline = name.partition("_")[0]
        raw = golden[f"{pipeline}.raw_features"]
        np.testing.assert_array_equal(with_key.predict_features(raw),
                                      without.predict_features(raw))
        np.testing.assert_array_equal(with_key.predict_features(raw),
                                      golden[want])


# ----------------------------------------------------------------------
# 5. Every golden bundle serves its recorded labels in every engine mode
# ----------------------------------------------------------------------
class TestServedLabels:
    @pytest.mark.parametrize("config", [{}, {"cache_size": 0},
                                        {"use_packed": False}],
                             ids=["default", "no_cache", "float"])
    @pytest.mark.parametrize("name", ["nshd", "nshd_packed", "baselinehd",
                                      "baselinehd_packed", "vanillahd"])
    def test_bundle_serves_recorded_labels(self, golden, name, config):
        pipeline, _, packed = name.partition("_")
        path = _fixture(f"golden_{pipeline}_bundle"
                        f"{'_packed' if packed else ''}.npz")
        engine = InferenceEngine(ModelBundle.load(path), **config)
        assert engine.use_packed == bool(packed and "use_packed" not in config)
        want = golden[f"{pipeline}.{'packed' if packed else 'engine'}_labels"]
        raw = golden[f"{pipeline}.raw_features"]
        for _ in range(2):  # cold, then (where cached) every row a hit
            np.testing.assert_array_equal(engine.predict_features(raw), want)
        cached = config.get("cache_size") != 0
        assert engine.cache_info()["hits"] == (len(raw) if cached else 0)
        np.testing.assert_array_equal(engine.predict(golden["x_te"]), want)
