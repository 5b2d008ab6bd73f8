"""Atomic checkpointing, integrity verification, and bit-exact resume.

The headline test here is the kill-and-resume equivalence: a training run
checkpointed at epoch 2 and resumed by a *fresh* process must finish with
class hypervectors and manifold weights **bit-identical** to an
uninterrupted run — which only holds if the checkpoint really captures
every mutable piece of state (M, FC weights, Adam moments, scaler
statistics, the shuffle RNG, and the epoch counter).
"""

import os
import zipfile

import numpy as np
import pytest

from repro import nn
from repro.data import make_dataset, normalize_images
from repro.learn import (NSHD, BaselineHD, ManifoldLearner, MassTrainer,
                         VanillaHD)
from repro.models import create_model
from repro.nn.serialize import (MANIFEST_KEY, CheckpointError, load_manifest,
                                load_module, load_state, save_module,
                                save_state)
from repro.utils.rng import fresh_rng, get_rng_state, set_rng_state

from .conftest import FixedUpdate


# ----------------------------------------------------------------------
# serialize.py: atomicity + integrity
# ----------------------------------------------------------------------

class TestAtomicSave:
    def test_no_temp_leftovers(self, tmp_path):
        path = tmp_path / "ckpt.npz"
        for _ in range(3):  # overwrites are atomic too
            save_state({"a": np.arange(10.0)}, str(path))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.npz"]

    def test_roundtrip_with_meta(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        state = {"w": np.linspace(0, 1, 7), "b": np.zeros((2, 3))}
        save_state(state, path, meta={"epoch": 3, "note": "hi"})
        loaded = load_state(path)
        for key in state:
            np.testing.assert_array_equal(loaded[key], state[key])
        manifest = load_manifest(path)
        assert manifest["meta"] == {"epoch": 3, "note": "hi"}
        assert manifest["format_version"] == 1

    def test_members_are_stored(self, tmp_path):
        # Float weights and packed bits barely deflate, and inflating
        # them was most of a load.
        path = str(tmp_path / "ckpt.npz")
        save_state({"w": np.linspace(0, 1, 4096), "b": np.zeros(3)}, path)
        with zipfile.ZipFile(path) as archive:
            members = archive.infolist()
        assert sorted(m.filename for m in members) \
            == sorted(["w.npy", "b.npy", MANIFEST_KEY + ".npy"])
        assert {m.compress_type for m in members} == {zipfile.ZIP_STORED}

    def test_reserved_key_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="reserved"):
            save_state({MANIFEST_KEY: np.ones(2)},
                       str(tmp_path / "x.npz"))

    def test_missing_file_raises_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError, match="not found"):
            load_state(str(tmp_path / "nope.npz"))


class TestIntegrity:
    def test_bitrot_detected_by_crc(self, tmp_path):
        """Tampered array + intact manifest → CRC failure naming the array."""
        path = str(tmp_path / "ckpt.npz")
        save_state({"w": np.arange(64.0), "ok": np.ones(4)}, path)
        with np.load(path) as archive:
            arrays = {name: archive[name] for name in archive.files}
        arrays["w"] = arrays["w"].copy()
        arrays["w"][5] += 1.0  # a single flipped value
        np.savez_compressed(path, **arrays)
        with pytest.raises(CheckpointError, match="CRC32.*'w'"):
            load_state(path)

    def test_truncation_detected(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_state({"w": np.arange(4096.0)}, path)
        os.truncate(path, int(os.path.getsize(path) * 0.6))
        with pytest.raises(CheckpointError):
            load_state(path)

    def test_verify_false_skips_crc(self, tmp_path):
        path = str(tmp_path / "ckpt.npz")
        save_state({"w": np.arange(8.0)}, path)
        assert "w" in load_state(path, verify=False)

    def test_legacy_archive_without_manifest_loads(self, tmp_path):
        path = str(tmp_path / "legacy.npz")
        np.savez_compressed(path, w=np.ones(3))
        np.testing.assert_array_equal(load_state(path)["w"], np.ones(3))
        assert load_manifest(path) is None


class TestLoadModuleErrors:
    def test_mismatch_names_path_and_keys(self, tmp_path):
        path = str(tmp_path / "linear.npz")
        linear = nn.Linear(4, 3, rng=fresh_rng(0))
        full = linear.state_dict()
        partial = {k: v for k, v in full.items() if "bias" not in k}
        partial["stray"] = np.ones(2)
        save_state(partial, path)
        with pytest.raises(CheckpointError) as excinfo:
            load_module(nn.Linear(4, 3, rng=fresh_rng(1)), path)
        message = str(excinfo.value)
        assert "linear.npz" in message
        assert "bias" in message and "stray" in message

    def test_shape_mismatch_wrapped(self, tmp_path):
        path = str(tmp_path / "linear.npz")
        save_module(nn.Linear(4, 3, rng=fresh_rng(0)), path)
        with pytest.raises(CheckpointError, match="linear.npz"):
            load_module(nn.Linear(5, 3, rng=fresh_rng(1)), path)

    def test_roundtrip_ok(self, tmp_path):
        path = str(tmp_path / "linear.npz")
        source = nn.Linear(4, 3, rng=fresh_rng(0))
        save_module(source, path)
        target = load_module(nn.Linear(4, 3, rng=fresh_rng(1)), path)
        np.testing.assert_array_equal(target.weight.data, source.weight.data)


# ----------------------------------------------------------------------
# RNG + trainer state round-trips
# ----------------------------------------------------------------------

class TestStateRoundTrips:
    def test_rng_state_restores_stream(self):
        rng = fresh_rng(42)
        rng.random(17)  # advance
        state = get_rng_state(rng)
        expected = rng.random(50)
        other = fresh_rng(999)
        set_rng_state(other, state)
        np.testing.assert_array_equal(other.random(50), expected)

    def test_mass_trainer_roundtrip(self):
        rng = fresh_rng(5)
        trainer = MassTrainer(3, 64)
        hvs = np.sign(rng.normal(size=(30, 64))) + 0.0
        labels = rng.integers(0, 3, size=30)
        trainer.fit(hvs, labels, epochs=2, rng=fresh_rng(1))
        clone = MassTrainer(3, 64)
        clone.load_state_dict(trainer.state_dict())
        np.testing.assert_array_equal(clone.class_matrix,
                                      trainer.class_matrix)

    def test_mass_trainer_shape_check(self):
        trainer = MassTrainer(3, 64)
        with pytest.raises(ValueError, match="shape"):
            trainer.load_state_dict({"class_matrix": np.zeros((2, 64))})
        with pytest.raises(ValueError, match="class_matrix"):
            trainer.load_state_dict({"wrong": np.zeros((3, 64))})

    def test_manifold_roundtrip_includes_adam_moments(self):
        """Restoring FC weights alone is not enough for bit-exact resume;
        the Adam slots (m, v, step) must survive the round trip too."""
        rng = fresh_rng(7)
        learner = ManifoldLearner((4, 4, 4), out_features=6, lr=1e-2,
                                  rng=fresh_rng(2))
        feats = rng.normal(size=(20, 64))
        update = rng.normal(size=(20, 3))
        encoder_rng = fresh_rng(3)
        from repro.hd.encoders import RandomProjectionEncoder
        encoder = RandomProjectionEncoder(6, 32, encoder_rng)
        class_matrix = rng.normal(size=(3, 32))
        trainer = FixedUpdate(update, class_matrix)
        labels = np.zeros(20, int)
        learner.train_step(feats, labels, trainer, encoder)

        state = learner.state_dict()
        assert any(key.startswith("optimizer.") for key in state)
        clone = ManifoldLearner((4, 4, 4), out_features=6, lr=1e-2,
                                rng=fresh_rng(99))
        clone.load_state_dict(state)

        # one more identical step on both must produce identical weights
        learner.train_step(feats, labels, trainer, encoder)
        clone.train_step(feats, labels, trainer, encoder)
        np.testing.assert_array_equal(clone.fc.weight.data,
                                      learner.fc.weight.data)
        np.testing.assert_array_equal(clone.fc.bias.data,
                                      learner.fc.bias.data)

    def test_manifold_unknown_keys_rejected(self):
        learner = ManifoldLearner((4, 4, 4), out_features=6)
        state = learner.state_dict()
        state["bogus.key"] = np.ones(2)
        with pytest.raises(ValueError, match="bogus.key"):
            learner.load_state_dict(state)


# ----------------------------------------------------------------------
# Pipeline kill-and-resume
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def tiny_task():
    """Tiny dataset + untrained CNN (feature quality is irrelevant here —
    these tests are about state capture, not accuracy)."""
    x_tr, y_tr, _, _ = make_dataset(num_classes=4, num_train=80, num_test=8,
                                    seed=3)
    x_tr, _, _ = normalize_images(x_tr)
    model = create_model("vgg16", num_classes=4, width_mult=0.125, seed=1)
    model.eval()
    return model, x_tr, y_tr


def make_nshd(model):
    return NSHD(model, layer_index=21, dim=256, reduced_features=12, seed=7)


class TestKillAndResume:
    def test_nshd_resume_is_bit_exact(self, tiny_task, tmp_path):
        model, x_tr, y_tr = tiny_task
        ckpt = str(tmp_path / "nshd.npz")

        probe = make_nshd(model)
        raw = probe.extractor.extract(x_tr)
        logits = probe.teacher.logits(x_tr)

        # Run A: uninterrupted reference.
        ref = make_nshd(model)
        ref_history = ref.fit_features(raw, y_tr, logits, epochs=4,
                                       batch_size=32)

        # Run B: same configuration, killed after 2 checkpointed epochs.
        killed = make_nshd(model)
        killed.fit_features(raw, y_tr, logits, epochs=2, batch_size=32,
                            checkpoint_path=ckpt)
        del killed  # the "process" is gone; only the checkpoint survives

        # Run C: a fresh process resumes from the checkpoint.
        resumed = make_nshd(model)
        history = resumed.fit_features(raw, y_tr, logits, epochs=4,
                                       batch_size=32, checkpoint_path=ckpt,
                                       resume=True)

        np.testing.assert_array_equal(resumed.trainer.class_matrix,
                                      ref.trainer.class_matrix)
        np.testing.assert_array_equal(resumed.manifold.fc.weight.data,
                                      ref.manifold.fc.weight.data)
        np.testing.assert_array_equal(resumed.manifold.fc.bias.data,
                                      ref.manifold.fc.bias.data)
        assert history["train_acc"] == ref_history["train_acc"]

    def test_baselinehd_resume_is_bit_exact(self, tiny_task, tmp_path):
        model, x_tr, y_tr = tiny_task
        ckpt = str(tmp_path / "baseline.npz")

        def make():
            return BaselineHD(model, layer_index=21, dim=256, seed=7)

        raw = make().extractor.extract(x_tr)
        ref = make()
        ref.fit_features(raw, y_tr, epochs=4, batch_size=32)
        killed = make()
        killed.fit_features(raw, y_tr, epochs=2, batch_size=32,
                            checkpoint_path=ckpt)
        resumed = make()
        resumed.fit_features(raw, y_tr, epochs=4, batch_size=32,
                             checkpoint_path=ckpt, resume=True)
        np.testing.assert_array_equal(resumed.trainer.class_matrix,
                                      ref.trainer.class_matrix)

    def test_vanillahd_resume_is_bit_exact(self, tiny_task, tmp_path):
        _, x_tr, y_tr = tiny_task
        ckpt = str(tmp_path / "vanilla.npz")

        def make():
            return VanillaHD(num_classes=4, dim=256, seed=7)

        ref = make()
        ref_history = ref.fit(x_tr, y_tr, epochs=3, batch_size=32)
        make().fit(x_tr, y_tr, epochs=1, batch_size=32,
                   checkpoint_path=ckpt)
        resumed = make()
        history = resumed.fit(x_tr, y_tr, epochs=3, batch_size=32,
                              checkpoint_path=ckpt, resume=True)
        np.testing.assert_array_equal(resumed.trainer.class_matrix,
                                      ref.trainer.class_matrix)
        assert history["train_acc"] == ref_history["train_acc"]

    @pytest.mark.parametrize("name", ["NSHD", "BaselineHD", "VanillaHD"])
    def test_resumed_history_order(self, name, tiny_task, tmp_path):
        """Each checkpoint of a resumed fit, and the history it returns,
        hold the restored epoch followed by the new ones, in order."""
        model, x_tr, y_tr = tiny_task
        ckpt = str(tmp_path / "resume.npz")

        def fit(epochs, saved, **kwargs):
            pipeline = (make_nshd(model) if name == "NSHD"
                        else BaselineHD(model, layer_index=21, dim=256,
                                        seed=7) if name == "BaselineHD"
                        else VanillaHD(num_classes=4, dim=256, seed=7))
            save = pipeline.save_checkpoint

            def spy(path, epoch, history):
                saved.append((epoch, list(history["train_acc"]),
                              len(history["epoch_time"])))
                save(path, epoch, history)
            pipeline.save_checkpoint = spy
            if name == "NSHD":  # NSHD checkpoints from fit_features
                return pipeline, pipeline.fit_features(
                    pipeline.extractor.extract(x_tr), y_tr,
                    pipeline.teacher.logits(x_tr), epochs=epochs,
                    batch_size=32, checkpoint_path=ckpt, **kwargs)
            return pipeline, pipeline.fit(x_tr, y_tr, epochs=epochs,
                                          batch_size=32,
                                          checkpoint_path=ckpt, **kwargs)

        first, resumed = [], []
        _, history = fit(1, first)
        pipeline, history = fit(3, resumed, resume=True)
        assert [entry[0] for entry in first + resumed] == [1, 2, 3]
        restored = first[0][1]
        assert history["train_acc"][:1] == restored
        assert [(epoch, acc[:epoch], count)
                for epoch, acc, count in resumed] \
            == [(2, history["train_acc"][:2], 2),
                (3, history["train_acc"], 3)]
        assert pipeline.load_checkpoint(ckpt)[1] == history

    def test_resume_with_missing_checkpoint_starts_fresh(self, tiny_task,
                                                         tmp_path):
        model, x_tr, y_tr = tiny_task
        pipeline = BaselineHD(model, layer_index=21, dim=128, seed=7)
        history = pipeline.fit(x_tr, y_tr, epochs=1, batch_size=32,
                               checkpoint_path=str(tmp_path / "new.npz"),
                               resume=True)
        assert len(history["train_acc"]) == 1
        assert os.path.exists(tmp_path / "new.npz")

    def test_resume_requires_checkpoint_path(self, tiny_task):
        model, x_tr, y_tr = tiny_task
        pipeline = BaselineHD(model, layer_index=21, dim=128, seed=7)
        with pytest.raises(ValueError, match="checkpoint_path"):
            pipeline.fit(x_tr, y_tr, epochs=1, resume=True)

    def test_truncated_checkpoint_raises_on_resume(self, tiny_task,
                                                   tmp_path):
        model, x_tr, y_tr = tiny_task
        ckpt = str(tmp_path / "trunc.npz")
        pipeline = BaselineHD(model, layer_index=21, dim=128, seed=7)
        pipeline.fit(x_tr, y_tr, epochs=1, batch_size=32,
                     checkpoint_path=ckpt)
        os.truncate(ckpt, int(os.path.getsize(ckpt) * 0.4))
        fresh = BaselineHD(model, layer_index=21, dim=128, seed=7)
        with pytest.raises(CheckpointError):
            fresh.fit(x_tr, y_tr, epochs=2, checkpoint_path=ckpt,
                      resume=True)

    def test_checkpoint_shape_and_class_guards(self, tiny_task, tmp_path):
        model, x_tr, y_tr = tiny_task
        ckpt = str(tmp_path / "guarded.npz")
        pipeline = BaselineHD(model, layer_index=21, dim=128, seed=7)
        pipeline.fit(x_tr, y_tr, epochs=1, batch_size=32,
                     checkpoint_path=ckpt)
        wrong_dim = BaselineHD(model, layer_index=21, dim=64, seed=7)
        with pytest.raises(CheckpointError, match="dim"):
            wrong_dim.load_checkpoint(ckpt)
        wrong_class = make_nshd(model)
        with pytest.raises(CheckpointError, match="BaselineHD"):
            wrong_class.load_checkpoint(ckpt)
