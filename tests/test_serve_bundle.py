"""Model bundles: export from pipelines, round-trip, verification."""

import os

import numpy as np
import pytest

from repro.data import make_dataset
from repro.learn import VanillaHD
from repro.nn.serialize import save_state
from repro.serve import (BUNDLE_VERSION, BundleError, InferenceEngine,
                         ModelBundle, ModelServer, ReloadError)


@pytest.fixture(scope="module")
def fitted_vanilla():
    """Tiny fitted VanillaHD shared by the export tests."""
    x_tr, y_tr, x_te, y_te = make_dataset(num_classes=3, num_train=60,
                                          num_test=30, seed=5)
    pipeline = VanillaHD(num_classes=3, image_size=x_tr.shape[-1],
                         dim=256, seed=5)
    pipeline.fit(x_tr, y_tr, epochs=2)
    return pipeline, x_tr, y_tr, x_te, y_te


class TestExport:
    def test_unfitted_pipeline_raises(self):
        pipeline = VanillaHD(num_classes=3, dim=128, seed=0)
        with pytest.raises(BundleError, match="fitted"):
            ModelBundle.from_pipeline(pipeline)

    def test_export_captures_inference_closure(self, fitted_vanilla):
        pipeline = fitted_vanilla[0]
        bundle = ModelBundle.from_pipeline(pipeline, config={"dim": 256})
        info = bundle.info
        assert info["bundle_version"] == BUNDLE_VERSION
        assert info["pipeline"] == "VanillaHD"
        assert info["dim"] == 256 and info["num_classes"] == 3
        assert info["encoder"]["type"] == "nonlinear"
        assert info["extractor"] is None and info["manifold"] is None
        assert isinstance(info["config_fingerprint"], str)
        assert sorted(bundle.arrays) == info["arrays"]
        for name in ("scaler.mean", "scaler.std", "encoder.basis",
                     "encoder.phase", "classes"):
            assert name in bundle.arrays
        np.testing.assert_array_equal(bundle.class_matrix(),
                                      pipeline.trainer.class_matrix)
        bundle.validate()  # must not raise
        assert bundle.nbytes() > 0
        assert any("VanillaHD" in line for line in bundle.summary())

    def test_binarize_makes_bipolar_classes(self, fitted_vanilla):
        pipeline = fitted_vanilla[0]
        bundle = ModelBundle.from_pipeline(pipeline, binarize=True)
        assert bundle.info["binarized"]
        assert bundle.binary_classes
        assert set(np.unique(bundle.arrays["classes"])) <= {-1.0, 1.0}
        bundle.validate()

    def test_quantize_bits_stores_int_payload(self, fitted_vanilla):
        pipeline = fitted_vanilla[0]
        bundle = ModelBundle.from_pipeline(pipeline, quantize_bits=8)
        assert "classes" not in bundle.arrays
        assert "classes.q" in bundle.arrays and "classes.scale" in \
            bundle.arrays
        reference = np.asarray(pipeline.trainer.class_matrix)
        scale = np.abs(reference).max() / 127.0
        np.testing.assert_allclose(bundle.class_matrix(), reference,
                                   atol=scale)
        bundle.validate()


class TestRoundTrip:
    def test_save_load_bitexact(self, fitted_vanilla, tmp_path):
        pipeline = fitted_vanilla[0]
        bundle = ModelBundle.from_pipeline(pipeline, config={"seed": 5})
        path = str(tmp_path / "bundle.npz")
        bundle.save(path)
        loaded = ModelBundle.load(path)
        assert set(loaded.arrays) == set(bundle.arrays)
        for name, value in bundle.arrays.items():
            np.testing.assert_array_equal(loaded.arrays[name], value)
        assert loaded.info["config_fingerprint"] == \
            bundle.info["config_fingerprint"]
        assert loaded.info["created_at"] == bundle.info["created_at"]

    def test_verify_returns_info(self, fitted_vanilla, tmp_path):
        bundle = ModelBundle.from_pipeline(fitted_vanilla[0])
        path = str(tmp_path / "bundle.npz")
        bundle.save(path)
        info = ModelBundle.verify(path)
        assert info["pipeline"] == "VanillaHD"

    def test_corrupted_archive_rejected(self, fitted_vanilla, tmp_path):
        bundle = ModelBundle.from_pipeline(fitted_vanilla[0])
        path = str(tmp_path / "bundle.npz")
        bundle.save(path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["classes"] = arrays["classes"].copy()
        arrays["classes"].flat[0] += 1.0
        np.savez_compressed(path, **arrays)
        with pytest.raises(BundleError, match="CRC32"):
            ModelBundle.verify(path)

    def test_plain_checkpoint_is_not_a_bundle(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_state({"w": np.ones(4)}, path, meta={"epoch": 1})
        with pytest.raises(BundleError, match="not a model bundle"):
            ModelBundle.load(path)

    def test_future_version_rejected(self, fitted_vanilla, tmp_path):
        bundle = ModelBundle.from_pipeline(fitted_vanilla[0])
        bundle.info["bundle_version"] = BUNDLE_VERSION + 1
        path = str(tmp_path / "bundle.npz")
        bundle.save(path)
        with pytest.raises(BundleError, match="newer schema"):
            ModelBundle.load(path)

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(BundleError):
            ModelBundle.load(str(tmp_path / "missing.npz"))


class TestValidate:
    def test_missing_array_detected(self, synthetic_bundle):
        bundle = synthetic_bundle()
        del bundle.arrays["classes"]
        with pytest.raises(BundleError, match="class-hypervector"):
            bundle.validate()

    def test_shape_mismatch_detected(self, synthetic_bundle):
        bundle = synthetic_bundle(dim=256, features=16)
        bundle.arrays["encoder.projection"] = \
            bundle.arrays["encoder.projection"][:, :100]
        with pytest.raises(BundleError, match="encoder.projection"):
            bundle.validate()

    def test_false_bipolar_claim_detected(self, synthetic_bundle):
        bundle = synthetic_bundle()
        bundle.arrays["classes"] = bundle.arrays["classes"] * 0.5
        with pytest.raises(BundleError, match="not bipolar"):
            bundle.validate()

    def test_non_bipolar_projection_detected(self, synthetic_bundle):
        bundle = synthetic_bundle()
        bundle.arrays["encoder.projection"] = \
            bundle.arrays["encoder.projection"] * 0.5
        with pytest.raises(BundleError, match="projection is not bipolar"):
            bundle.validate()

    def test_unknown_encoder_type_detected(self, synthetic_bundle):
        bundle = synthetic_bundle()
        bundle.info["encoder"] = {"type": "mystery"}
        with pytest.raises(BundleError, match="unknown encoder"):
            bundle.validate()


FIXTURES = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        "fixtures")
NSHD_BUNDLE = os.path.join(FIXTURES, "golden_nshd_bundle_packed.npz")
NSHD_FLOAT_BUNDLE = os.path.join(FIXTURES, "golden_nshd_bundle.npz")
VANILLA_BUNDLE = os.path.join(FIXTURES, "golden_vanillahd_bundle.npz")


def _verify_edited(tmp_path, edit, source=NSHD_BUNDLE):
    """Save an edited copy of a bundle and ``verify`` it from disk."""
    bundle = ModelBundle.load(source)
    edit(bundle.arrays, bundle.info)
    path = str(tmp_path / "edited.npz")
    bundle.save(path)
    return ModelBundle.verify(path)


class TestValidateWidthChain:
    """Extractor → scaler → manifold → encoder widths must agree: the
    reduce stage reshapes whatever the scaler emits, so a wrong width
    would be served as the wrong number of rows."""

    def test_scaler_wider_than_manifold(self, tmp_path):
        def edit(arrays, info):
            for key in ("scaler.mean", "scaler.std"):
                arrays[key] = np.tile(arrays[key], 2)
        with pytest.raises(BundleError, match="manifold after it takes"):
            _verify_edited(tmp_path, edit)

    def test_scaler_mean_and_std_lengths_differ(self, tmp_path):
        def edit(arrays, info):
            arrays["scaler.std"] = arrays["scaler.std"][:-1]
        with pytest.raises(BundleError, match="one length"):
            _verify_edited(tmp_path, edit)

    def test_scaler_not_one_dimensional(self, tmp_path):
        def edit(arrays, info):
            for key in ("scaler.mean", "scaler.std"):
                arrays[key] = arrays[key].reshape(1, -1)
        with pytest.raises(BundleError, match="1-D"):
            _verify_edited(tmp_path, edit)

    def test_scaler_width_differs_from_encoder(self, synthetic_bundle,
                                               tmp_path):
        source = str(tmp_path / "synthetic.npz")
        synthetic_bundle(features=32).save(source)

        def edit(arrays, info):
            for key in ("scaler.mean", "scaler.std"):
                arrays[key] = np.concatenate([arrays[key], [0.0]])
        with pytest.raises(BundleError, match="encoder after it takes 32"):
            _verify_edited(tmp_path, edit, source=source)

    def test_extractor_width_differs_from_scaler(self, tmp_path):
        def edit(arrays, info):
            info["extractor"]["feature_shape"] = [32, 4, 4]
        with pytest.raises(BundleError, match="extractor emits 512"):
            _verify_edited(tmp_path, edit)

    def test_manifold_output_differs_from_encoder(self, tmp_path):
        def edit(arrays, info):
            arrays["manifold.weight"] = arrays["manifold.weight"][:8]
            arrays["manifold.bias"] = arrays["manifold.bias"][:8]
            info["manifold"]["out_features"] = 8
        with pytest.raises(BundleError, match="manifold emits 8"):
            _verify_edited(tmp_path, edit)


class TestValidateShapes:
    """Arrays that would broadcast instead of failing are refused, and
    a graph that cannot be built is a :class:`BundleError`."""

    def test_one_element_manifold_bias(self, tmp_path):
        def edit(arrays, info):
            arrays["manifold.bias"] = arrays["manifold.bias"][:1]
        with pytest.raises(BundleError, match="manifold.bias has shape"):
            _verify_edited(tmp_path, edit, source=NSHD_FLOAT_BUNDLE)

    def test_short_encoder_phase(self, tmp_path):
        def edit(arrays, info):
            arrays["encoder.phase"] = arrays["encoder.phase"][:-1]
        with pytest.raises(BundleError, match="encoder.phase has shape"):
            _verify_edited(tmp_path, edit, source=VANILLA_BUNDLE)

    def test_short_encoder_phase_reload_keeps_engine(self, tmp_path):
        bundle = ModelBundle.load(VANILLA_BUNDLE)
        bundle.arrays["encoder.phase"] = bundle.arrays["encoder.phase"][:-1]
        bad = str(tmp_path / "short_phase.npz")
        bundle.save(bad)
        engine = InferenceEngine.from_path(VANILLA_BUNDLE, cache_size=0)
        features = np.random.default_rng(0).standard_normal(
            (3, engine.in_features))
        want = [int(label) for label in engine.predict_features(features)]
        with ModelServer(engine, port=0, workers=1,
                         bundle_path=VANILLA_BUNDLE) as server:
            with pytest.raises(ReloadError, match="encoder.phase"):
                server.reload(bad)
            assert server.engine is engine
            assert server.reloads == 0
            assert server.predict(features)[0] == want

    def test_unbuildable_extractor_is_a_bundle_error(self, tmp_path):
        bundle = ModelBundle.load(NSHD_FLOAT_BUNDLE)
        bundle.info["extractor"]["model"] = "no-such-model"
        bundle.validate()  # the widths still agree
        with pytest.raises(BundleError, match="could not be built"):
            InferenceEngine(bundle)

