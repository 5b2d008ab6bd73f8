"""Model bundles: export from pipelines, round-trip, verification."""

import gc
import os
import struct
import weakref
import zipfile

import numpy as np
import pytest

from repro.data import make_dataset, normalize_images
from repro.hardware import nshd_size_bytes
from repro.hd import is_bipolar
from repro.learn import NSHD, VanillaHD
from repro.models import create_model
from repro.nn import init as nn_init
from repro.nn import layers as nn_layers
from repro.nn.serialize import (MANIFEST_KEY, load_manifest, manifest_section,
                                save_state)
from repro.serve import (BUNDLE_SECTION, BUNDLE_VERSION, BundleError,
                         InferenceEngine, ModelBundle, ModelServer,
                         ReloadError)
from repro.serve import bundle as bundle_module
from repro.serve.__main__ import main

from .conftest import _synthetic_bundle, http_status


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
        assert is_bipolar(bundle.arrays["classes"])
        bundle.validate()

    def test_int8_class_payload_is_refused(self, fitted_vanilla,
                                           tmp_path):
        # One stored form: a class matrix held only as an int8 payload
        # (the removed quantized export) is not a servable bundle.
        bundle = ModelBundle.from_pipeline(fitted_vanilla[0])
        classes = bundle.arrays.pop("classes")
        scale = np.abs(classes).max() / 127.0
        bundle.arrays["classes.q"] = np.round(classes / scale).astype(
            np.int8)
        bundle.arrays["classes.scale"] = np.float64(scale)
        with pytest.raises(BundleError, match="class-hypervector"):
            bundle.validate()
        path = str(tmp_path / "int8.npz")
        bundle.save(path)
        with pytest.raises(BundleError, match="class-hypervector"):
            ModelBundle.verify(path)


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



def _one_nan(values):
    values.flat[3] = np.nan
    return values


class TestValidateValues:
    """A NaN or Inf in the scaler, the manifold or a float class matrix,
    or a ``scaler.std`` that is not > 0, is refused: each served every
    row of the bench fixture one label.  The refusal is a
    ``BundleError`` from ``verify``, exit status 2 at start and 409 on
    ``/reload``."""

    CASES = {
        "std_all_zero": ("scaler.std", np.zeros_like, "> 0"),
        "std_one_nan": ("scaler.std", _one_nan, "scaler.std holds"),
        "std_negative": ("scaler.std", np.negative, "> 0"),
        "mean_all_inf": ("scaler.mean", lambda v: np.full_like(v, np.inf),
                         "scaler.mean holds"),
        "weight_all_nan": ("manifold.weight",
                           lambda v: np.full_like(v, np.nan),
                           "manifold weight holds"),
        "bias_all_inf": ("manifold.bias", lambda v: np.full_like(v, np.inf),
                         "manifold.bias holds"),
        "float_classes_one_nan": ("classes", _one_nan, "class matrix holds"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_refused_by_verify_start_and_reload(self, case, tmp_path,
                                                reload_server, capsys):
        name, make, message = self.CASES[case]

        def edit(arrays, info):
            arrays[name] = make(np.array(arrays[name], dtype=np.float64))
        source = NSHD_FLOAT_BUNDLE if name == "classes" else NSHD_BUNDLE
        with pytest.raises(BundleError, match=message):
            _verify_edited(tmp_path, edit, source=source)
        path = str(tmp_path / "edited.npz")
        assert main([path, "--port", "0", "--dry-run"]) == 2
        assert message in capsys.readouterr().err
        _assert_reload_refused(reload_server, path)


# ----------------------------------------------------------------------
# The stored layout (version 2)
# ----------------------------------------------------------------------
CUT = 21


@pytest.fixture(scope="module")
def fresh_nshd():
    """``(model, nshd, bundle, images)``: a small NSHD at the bench
    fixture's HD shapes (D = 3000, F̂ = 100, 10 classes), exported with
    binarized classes."""
    x_tr, y_tr, x_te, _ = make_dataset(num_classes=10, num_train=60,
                                       num_test=20, seed=4)
    x_tr, mean, std = normalize_images(x_tr)
    x_te, _, _ = normalize_images(x_te, mean, std)
    model = create_model("vgg16", num_classes=10, width_mult=0.125, seed=4)
    nshd = NSHD(model, layer_index=CUT, dim=3000, reduced_features=100,
                seed=4)
    nshd.fit(x_tr, y_tr, epochs=1)
    bundle = ModelBundle.from_pipeline(nshd, binarize=True)
    return model, nshd, bundle, x_te


@pytest.fixture
def fresh_path(fresh_nshd, tmp_path):
    path = str(tmp_path / "fresh.npz")
    fresh_nshd[2].save(path)
    return path


def _members(path):
    """The archive's stored arrays by member name, manifest excluded."""
    with np.load(path) as archive:
        return {name: archive[name] for name in archive.files
                if name != MANIFEST_KEY}


class TestStoredLayout:
    def test_only_the_trunk_to_the_cut_is_stored(self, fresh_nshd,
                                                 fresh_path):
        model = fresh_nshd[0]
        assert fresh_nshd[2].info["extractor"]["layer_index"] == CUT
        stored = {name for name in _members(fresh_path)
                  if name.startswith("model.")}
        trunk = {f"model.features.{key}"
                 for key in model.features[:CUT + 1].state_dict()}
        assert stored == trunk
        assert any(name.startswith("model.classifier.")
                   for name in (f"model.{key}" for key in model.state_dict()))

    def test_bipolar_arrays_are_stored_as_bits(self, fresh_nshd,
                                               fresh_path):
        bundle = fresh_nshd[2]
        members = _members(fresh_path)
        for name, rows in (("encoder.projection", 100), ("classes", 10)):
            assert name not in members
            bits = members[name + ".bits"]
            assert bits.dtype == np.uint8 and bits.shape == (rows, 375)
            np.testing.assert_array_equal(
                bits, np.packbits(bundle.arrays[name] > 0, axis=1))

    def test_load_of_save_is_bit_for_bit(self, fresh_nshd, fresh_path):
        bundle = fresh_nshd[2]
        loaded = ModelBundle.load(fresh_path)
        assert loaded.info["bundle_version"] == BUNDLE_VERSION == 2
        assert sorted(loaded.arrays) == sorted(bundle.arrays) \
            == loaded.info["arrays"]
        for name, value in bundle.arrays.items():
            got = loaded.arrays[name]
            assert got.dtype == value.dtype and got.shape == value.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == np.ascontiguousarray(value).tobytes()

    def test_stored_bytes_within_twice_table_ii(self, fresh_nshd,
                                                fresh_path):
        # Table II counts 4-byte floats.  The bundle keeps float64, so
        # its trunk and FC alone are twice their Table II bytes; the
        # ±1 arrays stored as bits make room for the scaler.
        model = fresh_nshd[0]
        stored = sum(a.nbytes for a in _members(fresh_path).values())
        table_ii = nshd_size_bytes(model, CUT, dim=3000,
                                   reduced_features=100,
                                   num_classes=10).total
        assert stored <= 2 * table_ii

    def test_engine_serves_what_the_in_memory_bundle_serves(
            self, fresh_nshd, fresh_path):
        _, nshd, bundle, images = fresh_nshd
        features = nshd.extractor.extract(images)
        disk = InferenceEngine.from_path(fresh_path, cache_size=0)
        memory = InferenceEngine(bundle, cache_size=0)
        assert disk.use_packed and memory.use_packed
        np.testing.assert_array_equal(disk.encode_features(features),
                                      memory.encode_features(features))
        np.testing.assert_array_equal(disk.predict_features(features),
                                      memory.predict_features(features))
        np.testing.assert_array_equal(disk.predict(images),
                                      memory.predict(images))

    def test_older_reader_refuses_by_name(self, fresh_path, monkeypatch):
        monkeypatch.setattr(bundle_module, "BUNDLE_VERSION", 1)
        with pytest.raises(BundleError, match="newer schema"):
            ModelBundle.load(fresh_path)


def _deflated_copy(path, out):
    """``path`` with every member deflated, as the builds before stored
    members wrote the same bundle."""
    with zipfile.ZipFile(path) as source, \
            zipfile.ZipFile(out, "w", zipfile.ZIP_DEFLATED) as target:
        for member in source.infolist():
            target.writestr(member.filename, source.read(member))


class TestEngineBuild:
    """``from_path`` builds only what serving runs, from the archive."""

    def test_extract_stage_is_the_stored_trunk_with_no_draws(
            self, fresh_nshd, fresh_path, monkeypatch):
        def draw(*args, **kwargs):
            raise AssertionError("a random initializer ran")

        for module in (nn_init, nn_layers):
            monkeypatch.setattr(module, "kaiming_normal", draw)
            monkeypatch.setattr(module, "uniform_fan_in", draw)
        _, nshd, _, images = fresh_nshd
        engine = InferenceEngine.from_path(fresh_path, cache_size=0)
        model = engine.extractor.model
        assert model.num_feature_layers() == CUT + 1
        assert len(model.classifier) == 0
        np.testing.assert_array_equal(engine.extractor.extract(images),
                                      nshd.extractor.extract(images))

    def test_a_dropped_engine_frees_its_cnn(self, fresh_path):
        engine = InferenceEngine.from_path(fresh_path, cache_size=0)
        model = weakref.ref(engine.extractor.model)
        del engine
        gc.collect()
        assert model() is None

    def test_deflated_copy_serves_the_same(self, fresh_nshd, fresh_path,
                                           tmp_path):
        deflated = str(tmp_path / "deflated.npz")
        _deflated_copy(fresh_path, deflated)
        assert os.path.getsize(deflated) < os.path.getsize(fresh_path)
        stored = ModelBundle.load(fresh_path)
        older = ModelBundle.load(deflated)
        assert older.info == stored.info
        for name, value in stored.arrays.items():
            assert older.arrays[name].tobytes() == value.tobytes()
        images = fresh_nshd[3]
        want = InferenceEngine.from_path(fresh_path, cache_size=0)
        got = InferenceEngine.from_path(deflated, cache_size=0)
        np.testing.assert_array_equal(got.predict(images),
                                      want.predict(images))

    def test_unknown_non_finite_tag_is_a_bundle_error(self, tmp_path):
        bundle = _synthetic_bundle(seed=3)
        path = str(tmp_path / "tagged.npz")
        bundle.save(path)
        section = manifest_section(load_manifest(path), BUNDLE_SECTION)
        section["note"] = {"__nonfinite__": "weird"}
        save_state(_members(path), path, sections={BUNDLE_SECTION: section})
        with pytest.raises(BundleError, match="non-finite tag"):
            ModelBundle.load(path)


class TestLegacyBundles:
    """Version-1 golden bundles store the whole CNN and float ±1
    arrays; loaded and saved again they are version 2 and serve the
    labels recorded for them."""

    @pytest.mark.parametrize("name", ["nshd", "nshd_packed", "baselinehd",
                                      "baselinehd_packed", "vanillahd"])
    def test_resaved_legacy_bundle_serves_recorded_labels(self, name,
                                                          tmp_path):
        pipeline, _, packed = name.partition("_")
        legacy = ModelBundle.load(os.path.join(
            FIXTURES, f"golden_{pipeline}_bundle"
                      f"{'_packed' if packed else ''}.npz"))
        assert legacy.info["bundle_version"] == 1
        path = str(tmp_path / "resaved.npz")
        legacy.save(path)
        resaved = ModelBundle.load(path)
        assert resaved.info["bundle_version"] == 2
        assert sorted(resaved.arrays) == sorted(legacy.arrays)
        for key, value in legacy.arrays.items():
            assert resaved.arrays[key].dtype == value.dtype
            np.testing.assert_array_equal(resaved.arrays[key], value)
        with np.load(os.path.join(FIXTURES, "golden_inputs.npz")) as golden:
            want = golden[f"{pipeline}.{'packed' if packed else 'engine'}"
                          "_labels"]
            raw = golden[f"{pipeline}.raw_features"]
            images = golden["x_te"]
        engine = InferenceEngine(resaved, cache_size=0)
        assert engine.use_packed == bool(packed)
        np.testing.assert_array_equal(engine.predict_features(raw), want)
        np.testing.assert_array_equal(engine.predict(images), want)

    @pytest.mark.parametrize("name", [
        "nshd_bundle", "nshd_bundle_packed", "baselinehd_bundle",
        "baselinehd_bundle_packed", "vanillahd_bundle"])
    def test_deflated_golden_archive_verifies(self, name):
        # Written by a build that deflated its members; this build
        # writes them stored and must still read these.
        path = os.path.join(FIXTURES, f"golden_{name}.npz")
        with zipfile.ZipFile(path) as archive:
            assert {m.compress_type for m in archive.infolist()} \
                == {zipfile.ZIP_DEFLATED}
        assert ModelBundle.verify(path)["bundle_version"] == 1


# ----------------------------------------------------------------------
# Damaged bundles are refused, never served
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def reload_server(tmp_path_factory):
    """A running server on a synthetic bundle, for ``/reload`` checks."""
    path = str(tmp_path_factory.mktemp("serving") / "good.npz")
    _synthetic_bundle(seed=7).save(path)
    with ModelServer(InferenceEngine.from_path(path), port=0, workers=1,
                     bundle_path=path) as server:
        yield server


def _assert_reload_refused(server, path):
    engine = server.engine
    assert http_status(server.address, "POST", "/reload",
                       {"bundle": path}) == 409
    assert server.engine is engine


def _member_span(path, member):
    """``(start, end)`` file offsets of a member's bytes as written
    (stored, or deflated in an older archive)."""
    with zipfile.ZipFile(path) as archive:
        info = archive.getinfo(member + ".npy")
    with open(path, "rb") as handle:
        handle.seek(info.header_offset + 26)
        name_len, extra_len = struct.unpack("<HH", handle.read(4))
    start = info.header_offset + 30 + name_len + extra_len
    return start, start + info.compress_size


def _truncated(keep):
    def damage(path, bundle, out):
        with open(path, "rb") as handle:
            blob = handle.read()
        with open(out, "wb") as handle:
            handle.write(blob[:int(len(blob) * keep)])
    return damage


def _flipped(member, at):
    """Flip one byte ``at`` a fraction of the member's bytes.

    A stored member's bytes are the ``.npy`` file itself, so every flip
    changes what is read.  The fractions stop short of the tail, as a
    deflated member's last bytes hold the end-of-block code, where a
    flip can leave every decoded byte, and so both CRC-32s, unchanged.
    """
    def damage(path, bundle, out):
        start, end = _member_span(path, member)
        _flip_byte(path, out, start + int((end - start) * at))
    return damage


def _flip_byte(path, out, position):
    with open(path, "rb") as handle:
        blob = bytearray(handle.read())
    blob[position] ^= 0xFF
    with open(out, "wb") as handle:
        handle.write(bytes(blob))


def _rewritten_bits(change):
    """Store ``encoder.projection.bits`` changed, under a manifest whose
    CRCs match, so only the shape and dtype checks can refuse it."""
    def damage(path, bundle, out):
        members = _members(path)
        members["encoder.projection.bits"] = change(
            members["encoder.projection.bits"])
        save_state(members, out, sections={BUNDLE_SECTION: manifest_section(
            load_manifest(path), BUNDLE_SECTION)})
    return damage


def _missing_trunk_array(path, bundle, out):
    arrays = dict(bundle.arrays)
    del arrays[min(name for name in arrays if name.startswith(
        "model.features.0."))]
    ModelBundle(arrays, bundle.info).save(out)


DAMAGES = {
    "truncated_to_1_percent": _truncated(0.01),
    "truncated_to_half": _truncated(0.5),
    "truncated_by_one_byte": _truncated(1 - 1e-7),
    **{f"flipped_{member}_{at}": _flipped(member, at)
       for member in ("encoder.projection.bits", "classes.bits",
                      MANIFEST_KEY)
       for at in (0.0, 0.5, 0.9)},
    "bits_too_narrow": _rewritten_bits(lambda bits: bits[:, :-1]),
    "bits_too_few_rows": _rewritten_bits(lambda bits: bits[1:]),
    "bits_as_int8": _rewritten_bits(lambda bits: bits.view(np.int8)),
    "bits_as_uint16": _rewritten_bits(lambda bits: bits.astype(np.uint16)),
    "missing_trunk_array": _missing_trunk_array,
}


class TestDamagedBundle:
    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    def test_refused_by_verify_and_reload(self, damage, fresh_nshd,
                                          fresh_path, tmp_path,
                                          reload_server):
        bad = str(tmp_path / "damaged.npz")
        DAMAGES[damage](fresh_path, fresh_nshd[2], bad)
        with pytest.raises(BundleError):
            ModelBundle.verify(bad)
        _assert_reload_refused(reload_server, bad)

    def test_every_manifest_byte_flip_is_refused(self, tmp_path):
        # The manifest carries the CRCs of the arrays but none of its
        # own, so the zip member's CRC-32 must be checked to refuse
        # it.  A fixed time stamp and git block make the archive, and so
        # each flip, the same on every run.
        bundle = _synthetic_bundle(seed=3, dim=500, features=20)
        bundle.info.update(created_at=0.0, git={})
        path, bad = str(tmp_path / "good.npz"), str(tmp_path / "bad.npz")
        bundle.save(path)
        start, end = _member_span(path, MANIFEST_KEY)
        served = []
        for position in range(start, end):
            _flip_byte(path, bad, position)
            try:
                ModelBundle.verify(bad)
                served.append(position - start)
            except BundleError:
                pass
        assert served == []

    def test_rewritten_bits_names_the_member(self, fresh_nshd, fresh_path,
                                             tmp_path):
        bad = str(tmp_path / "narrow.npz")
        _rewritten_bits(lambda bits: bits[:, :-1])(fresh_path, None, bad)
        with pytest.raises(BundleError, match="encoder.projection.bits"):
            ModelBundle.load(bad)

    @pytest.mark.parametrize("name", ["encoder.projection", "classes"])
    def test_save_refuses_a_non_bipolar_array(self, name, tmp_path):
        bundle = _synthetic_bundle(seed=3, binary=True)
        values = bundle.arrays[name].copy()
        values[0, 0] = 0.5
        bundle.arrays[name] = values
        path = str(tmp_path / "half.npz")
        with pytest.raises(BundleError, match=name):
            bundle.save(path)
        assert not os.path.exists(path)
