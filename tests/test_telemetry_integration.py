"""Integration: the instrumented trainers/pipelines emit the expected
telemetry, the epoch loop drives checkpointing, guards count events."""

import numpy as np
import pytest

from repro.data import make_dataset, normalize_images
from repro.learn import NSHD, BaselineHD, MassTrainer, VanillaHD
from repro.models import create_model
from repro.reliability import NumericsGuard
from repro.telemetry import Tracer, get_tracer, set_tracer, use_registry


@pytest.fixture()
def fresh_tracer():
    previous = set_tracer(Tracer())
    yield get_tracer()
    set_tracer(previous)


def make_hv_problem(n=120, dim=128, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    prototypes = np.sign(rng.standard_normal((classes, dim)))
    labels = rng.integers(0, classes, n)
    noise = np.where(rng.random((n, dim)) < 0.2, -1.0, 1.0)
    return prototypes[labels] * noise, labels


class TestTrainerTelemetry:
    def test_expected_metric_names_published(self, fresh_tracer):
        hvs, labels = make_hv_problem()
        with use_registry() as registry:
            trainer = MassTrainer(4, 128)
            history = trainer.fit(hvs, labels, epochs=2, batch_size=32,
                                  rng=np.random.default_rng(1))
            snapshot = registry.snapshot()
        for name in ("train.batches", "train.samples", "train.epochs",
                     "train.epoch", "train.train_acc",
                     "train.similarity_margin", "train.update_norm",
                     "train.epoch_time_s"):
            assert name in snapshot, name
        assert snapshot["train.epochs"]["value"] == 2.0
        assert snapshot["train.batches"]["value"] == 2 * 4  # 120/32 → 4
        assert snapshot["train.similarity_margin"]["count"] > 0
        # Satellite: per-epoch timing lands in the history dict.
        assert len(history["epoch_time"]) == 2
        assert all(t >= 0.0 for t in history["epoch_time"])

    def test_stage_spans_recorded(self, fresh_tracer):
        hvs, labels = make_hv_problem()
        with use_registry():
            MassTrainer(4, 128).fit(hvs, labels, epochs=1, batch_size=32,
                                    rng=np.random.default_rng(1))
        agg = fresh_tracer.aggregate()
        assert "stage.update" in agg
        assert "stage.similarity" in agg
        assert agg["stage.update"]["calls"] == 4

    def test_epochs_publish_in_order(self, fresh_tracer):
        """Each epoch publishes its number and accuracy after the one
        before, and the history holds them in that order."""
        published = []
        hvs, labels = make_hv_problem()
        with use_registry() as registry:
            set_gauge = registry.set_gauge

            def spy(name, value):
                if name in ("train.epoch", "train.train_acc"):
                    published.append((name, value))
                set_gauge(name, value)
            registry.set_gauge = spy
            history = MassTrainer(4, 128).fit(
                hvs, labels, epochs=2, batch_size=64,
                rng=np.random.default_rng(0))
        assert published == [("train.train_acc", history["train_acc"][0]),
                             ("train.epoch", 0.0),
                             ("train.train_acc", history["train_acc"][1]),
                             ("train.epoch", 1.0)]
        assert len(history["epoch_time"]) == 2
        assert all(t >= 0.0 for t in history["epoch_time"])


class TestGuardTelemetry:
    def test_guard_events_increment_counters(self, fresh_tracer):
        hvs, labels = make_hv_problem(n=64)
        poisoned = hvs.copy()
        poisoned[:8] = np.nan
        with use_registry() as registry:
            guard = NumericsGuard(policy="skip_batch")
            trainer = MassTrainer(4, 128, guard=guard)
            trainer.initialize(hvs, labels)
            assert trainer.step(poisoned, labels) is False
            assert trainer.step(hvs, labels) is True
            snapshot = registry.snapshot()
        assert snapshot["guard.nan_batches"]["value"] >= 1.0
        assert snapshot["guard.skipped_batches"]["value"] == 1.0
        assert snapshot["guard.violations"]["value"] == 1.0
        assert snapshot["train.skipped_batches"]["value"] == 1.0
        assert guard.batches_skipped == 1

    def test_overflow_counter(self, fresh_tracer):
        with use_registry() as registry:
            guard = NumericsGuard(policy="skip_batch", max_abs=10.0)
            assert guard.ok("tag", np.array([1e6])) is False
            assert registry.snapshot()["guard.overflow_batches"]["value"] == 1


class TestPipelineTelemetry:
    def test_vanilla_hd_emits_encode_metrics_and_history(self, fresh_tracer,
                                                         tmp_path):
        rng = np.random.default_rng(0)
        images = rng.normal(size=(60, 3, 8, 8))
        labels = rng.integers(0, 3, 60)
        with use_registry() as registry:
            pipeline = VanillaHD(num_classes=3, image_size=8, dim=256,
                                 seed=0)
            ckpt = str(tmp_path / "vanilla.ckpt")
            history = pipeline.fit(images, labels, epochs=3, batch_size=32,
                                   checkpoint_path=ckpt)
            snapshot = registry.snapshot()
        assert snapshot["hd.encode.samples"]["value"] >= 60
        assert snapshot["hd.encode.macs"]["value"] > 0
        assert "train.similarity_margin" in snapshot
        # Satellite: the pipeline history carries per-epoch timings and
        # the checkpoint persists them.
        assert len(history["epoch_time"]) == 3
        completed, saved = pipeline.load_checkpoint(ckpt)
        assert completed == 3
        assert saved["train_acc"] == pytest.approx(history["train_acc"])
        assert len(saved["epoch_time"]) == 3

    @staticmethod
    def _checkpointed_fit(tmp_path, epochs, saved, **kwargs):
        """A small VanillaHD fit checkpointing every 2 epochs; appends
        ``(epoch, history)`` of each checkpoint it writes to ``saved``."""
        rng = np.random.default_rng(0)
        pipeline = VanillaHD(num_classes=3, image_size=8, dim=128, seed=0)
        save = pipeline.save_checkpoint

        def spy(path, epoch, history):
            saved.append((epoch, {key: list(values)
                                  for key, values in history.items()}))
            save(path, epoch, history)
        pipeline.save_checkpoint = spy
        return pipeline.fit(rng.normal(size=(40, 3, 8, 8)),
                            rng.integers(0, 3, 40), epochs=epochs,
                            batch_size=16, checkpoint_every=2,
                            checkpoint_path=str(tmp_path / "v.ckpt"),
                            **kwargs)

    def test_checkpoints_write_the_loop_history(self, tmp_path):
        # A fresh run checkpoints on the ``every`` grid and at its last
        # epoch even off the grid.
        saved = []
        history = self._checkpointed_fit(tmp_path, 3, saved)
        assert [epoch for epoch, _ in saved] == [2, 3]
        assert saved[0][1]["train_acc"] == history["train_acc"][:2]
        assert saved[-1][1] == history
        # On resume the loop's history already starts with the restored
        # epochs; each checkpoint writes it as it stands.
        resumed = []
        history = self._checkpointed_fit(tmp_path, 5, resumed, resume=True)
        assert [epoch for epoch, _ in resumed] == [4, 5]
        assert resumed[0][1]["train_acc"][:3] == saved[-1][1]["train_acc"]
        assert len(resumed[0][1]["epoch_time"]) == 4
        assert resumed[-1][1] == history

    def test_checkpoint_interval_is_validated(self, tmp_path):
        with pytest.raises(ValueError, match="interval"):
            VanillaHD(num_classes=3, image_size=8, dim=128).fit(
                np.random.default_rng(0).normal(size=(4, 3, 8, 8)),
                np.arange(4) % 3, epochs=1,
                checkpoint_path=str(tmp_path / "x.ckpt"),
                checkpoint_every=0)


@pytest.fixture(scope="module")
def tiny_task():
    x_tr, y_tr, _, _ = make_dataset(num_classes=3, num_train=24, num_test=3,
                                    seed=3)
    x_tr, _, _ = normalize_images(x_tr)
    model = create_model("vgg16", num_classes=3, width_mult=0.125, seed=1)
    model.eval()
    return model, x_tr, y_tr


#: ``fit(model, images, labels)`` for 3 epochs of each HD fit.
FITS = {
    "MassTrainer": lambda model, x, y: MassTrainer(4, 128).fit(
        *make_hv_problem(n=40), epochs=3, batch_size=16,
        rng=np.random.default_rng(0)),
    "NSHD": lambda model, x, y: NSHD(
        model, layer_index=21, dim=128, reduced_features=6, seed=0).fit(
        x, y, epochs=3, batch_size=16),
    "BaselineHD": lambda model, x, y: BaselineHD(
        model, layer_index=21, dim=128, seed=0).fit(
        x, y, epochs=3, batch_size=16),
    "VanillaHD": lambda model, x, y: VanillaHD(
        num_classes=3, dim=128, seed=0).fit(
        x, y, epochs=3, batch_size=16),
}


@pytest.mark.parametrize("with_callback", [False, True],
                         ids=["no_callbacks", "user_callback"])
@pytest.mark.parametrize("name", sorted(FITS))
def test_epoch_metrics_counted_once(name, with_callback, tiny_task,
                                    fresh_tracer):
    """Every fit publishes each epoch's ``train.*`` metrics exactly once,
    whether or not the caller hooks each epoch.  Fits take no callbacks;
    a caller hooks an epoch where it is published, on the registry's
    ``train.epoch`` gauge."""
    seen = []
    with use_registry() as registry:
        if with_callback:
            set_gauge = registry.set_gauge

            def on_epoch_end(name, value):
                if name == "train.epoch":
                    seen.append(int(value))
                set_gauge(name, value)
            registry.set_gauge = on_epoch_end
        history = FITS[name](*tiny_task)
        snapshot = registry.snapshot()
    assert len(history["train_acc"]) == 3
    assert snapshot["train.epochs"]["value"] == 3.0
    assert snapshot["train.epoch"]["value"] == 2.0
    assert snapshot["train.epoch_time_s"]["count"] == 3
    assert snapshot["train.train_acc"]["value"] == history["train_acc"][-1]
    assert seen == ([0, 1, 2] if with_callback else [])


#: The fits whose similarity-margin histogram is checked per row.
MARGIN_FITS = {
    "NSHD-distilled": lambda model: NSHD(
        model, layer_index=21, dim=128, reduced_features=6, seed=0),
    "NSHD-MASS": lambda model: NSHD(
        model, layer_index=21, dim=128, reduced_features=6, seed=0,
        use_distillation=False),
    "BaselineHD": lambda model: BaselineHD(
        model, layer_index=21, dim=128, seed=0),
}


@pytest.mark.parametrize("name", sorted(MARGIN_FITS))
def test_one_similarity_margin_per_training_row(name, tiny_task,
                                                fresh_tracer):
    """``train.similarity_margin`` gets one value per row a training
    step sees, though NSHD computes U twice per batch."""
    model, x, y = tiny_task
    with use_registry() as registry:
        MARGIN_FITS[name](model).fit(x, y, epochs=3, batch_size=16)
        snapshot = registry.snapshot()
    assert snapshot["train.samples"]["value"] == 3 * len(x)
    assert (snapshot["train.similarity_margin"]["count"]
            == snapshot["train.samples"]["value"])
