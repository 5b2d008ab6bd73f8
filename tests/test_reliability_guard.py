"""NumericsGuard: policies, detection, and trainer wiring.

Acceptance scenario from the reliability issue: a NaN injected into a
distillation batch must be caught under *all three* policies, and under
none of them may the class-hypervector matrix be corrupted.
"""

import numpy as np
import pytest

from repro.learn import (NSHD, DistillationTrainer, ManifoldLearner,
                         MassTrainer)
from repro.models import create_model, train_cnn
from repro.reliability import NumericsError, NumericsGuard, NumericsWarning
from repro.telemetry import use_registry
from repro.utils.rng import fresh_rng

from .conftest import FixedUpdate


def make_batch(num_classes=3, n=24, dim=64, seed=0):
    rng = fresh_rng((seed, "guard-batch"))
    hvs = np.sign(rng.normal(size=(n, dim))) + 0.0
    labels = rng.integers(0, num_classes, size=n)
    logits = rng.normal(size=(n, num_classes))
    return hvs, labels, logits


# ----------------------------------------------------------------------
# Guard unit behavior
# ----------------------------------------------------------------------

class TestGuardCore:
    def test_clean_arrays_pass(self):
        guard = NumericsGuard()
        assert guard.ok("tag", np.ones(4), np.zeros((2, 2)))
        assert guard.checks == 1
        assert guard.batches_skipped == 0

    def test_detects_nan_inf_overflow(self):
        guard = NumericsGuard(policy="skip_batch", max_abs=1e6)
        with use_registry() as registry:
            assert not guard.ok("nan", np.array([1.0, np.nan]))
            assert not guard.ok("inf", np.array([np.inf, 1.0]))
            assert not guard.ok("overflow", np.array([1e9]))
        assert guard.counts["nan"] == 1
        assert guard.counts["inf"] == 1
        assert guard.counts["overflow"] == 1
        assert guard.batches_skipped == 3
        # One batch of each kind moves its own counter by exactly one.
        assert registry.counter("guard.nan_batches").value == 1
        assert registry.counter("guard.inf_batches").value == 1
        assert registry.counter("guard.overflow_batches").value == 1

    def test_integer_arrays_are_exempt(self):
        guard = NumericsGuard(max_abs=10.0)
        assert guard.ok("ints", np.array([10**9]))  # ints can't be NaN

    def test_raise_policy(self):
        guard = NumericsGuard(policy="raise", name="unit")
        with pytest.raises(NumericsError, match="unit.*'spot'"):
            guard.ok("spot", np.array([np.nan]))

    def test_warn_policy(self):
        guard = NumericsGuard(policy="warn")
        with pytest.warns(NumericsWarning):
            assert not guard.ok("spot", np.array([np.inf]))

    def test_summary_and_reset(self):
        guard = NumericsGuard(policy="skip_batch")
        guard.ok("x", np.array([np.nan]))
        summary = guard.summary()
        assert summary["batches_skipped"] == 1
        assert "violation" in summary["last_violation"]
        guard.reset()
        assert guard.summary()["batches_skipped"] == 0
        assert guard.summary()["last_violation"] is None

    def test_invalid_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            NumericsGuard(policy="ignore")


# ----------------------------------------------------------------------
# Acceptance: NaN distillation batch under all three policies
# ----------------------------------------------------------------------

class TestDistillationGuard:
    def _trained(self, guard):
        trainer = DistillationTrainer(3, 64, alpha=0.5, guard=guard)
        hvs, labels, logits = make_batch()
        trainer.initialize(hvs, labels)
        trainer.step(hvs, labels, teacher_logits=logits)
        return trainer

    def _poisoned(self):
        hvs, labels, logits = make_batch(seed=1)
        poisoned = np.array(hvs, dtype=np.float64)
        poisoned[fresh_rng((2, "batchcorrupt")).random(len(hvs)) < 0.3] = \
            np.nan
        return poisoned, labels, logits

    def test_raise_policy_aborts_and_preserves_model(self):
        guard = NumericsGuard(policy="raise")
        trainer = self._trained(guard)
        before = trainer.class_matrix.copy()
        bad_hvs, labels, logits = self._poisoned()
        with pytest.raises(NumericsError):
            trainer.step(bad_hvs, labels, teacher_logits=logits)
        np.testing.assert_array_equal(trainer.class_matrix, before)

    def test_warn_policy_skips_and_preserves_model(self):
        guard = NumericsGuard(policy="warn")
        trainer = self._trained(guard)
        before = trainer.class_matrix.copy()
        bad_hvs, labels, logits = self._poisoned()
        with pytest.warns(NumericsWarning):
            applied = trainer.step(bad_hvs, labels, teacher_logits=logits)
        assert not applied
        np.testing.assert_array_equal(trainer.class_matrix, before)

    def test_skip_policy_is_silent_and_preserves_model(self, recwarn):
        guard = NumericsGuard(policy="skip_batch")
        trainer = self._trained(guard)
        before = trainer.class_matrix.copy()
        bad_hvs, labels, logits = self._poisoned()
        applied = trainer.step(bad_hvs, labels, teacher_logits=logits)
        assert not applied
        assert len(recwarn) == 0
        assert guard.batches_skipped == 1
        np.testing.assert_array_equal(trainer.class_matrix, before)

    def test_nan_teacher_logits_caught_too(self):
        guard = NumericsGuard(policy="skip_batch")
        trainer = self._trained(guard)
        before = trainer.class_matrix.copy()
        hvs, labels, logits = make_batch(seed=3)
        logits[0, 0] = np.nan
        assert not trainer.step(hvs, labels, teacher_logits=logits)
        np.testing.assert_array_equal(trainer.class_matrix, before)

    def test_clean_batches_still_train(self):
        guard = NumericsGuard(policy="skip_batch")
        trainer = self._trained(guard)
        before = trainer.class_matrix.copy()
        hvs, labels, logits = make_batch(seed=4)
        assert trainer.step(hvs, labels, teacher_logits=logits)
        assert not np.array_equal(trainer.class_matrix, before)
        assert guard.batches_skipped == 0


class TestMassTrainerGuard:
    def test_fit_skips_poisoned_batches_but_converges(self):
        """A fraction of NaN samples in fit() must not poison M."""
        guard = NumericsGuard(policy="skip_batch")
        trainer = MassTrainer(3, 128, guard=guard)
        rng = fresh_rng(8)
        prototypes = rng.choice([-1.0, 1.0], size=(3, 128))
        labels = np.repeat(np.arange(3), 30)
        hvs = np.sign(prototypes[labels] +
                      rng.normal(0, 0.6, size=(90, 128)))
        hvs[hvs == 0] = 1.0
        hvs[::17] = np.nan  # ~6% poisoned rows
        trainer.fit(hvs, labels, epochs=3, batch_size=16, rng=fresh_rng(9))
        assert np.all(np.isfinite(trainer.class_matrix))
        assert guard.batches_skipped > 0


class TestManifoldGuard:
    def test_nan_update_vetoes_fc_step(self):
        from repro.hd.encoders import RandomProjectionEncoder
        guard = NumericsGuard(policy="skip_batch")
        learner = ManifoldLearner((4, 4, 4), out_features=6, lr=1e-2,
                                  rng=fresh_rng(2), guard=guard)
        rng = fresh_rng(7)
        feats = rng.normal(size=(20, 64))
        encoder = RandomProjectionEncoder(6, 32, fresh_rng(3))
        class_matrix = rng.normal(size=(3, 32))
        before_w = learner.fc.weight.data.copy()
        update = np.full((20, 3), np.nan)
        loss = learner.train_step(feats, np.zeros(20, int),
                                  FixedUpdate(update, class_matrix), encoder)
        assert loss is None
        np.testing.assert_array_equal(learner.fc.weight.data, before_w)
        assert guard.batches_skipped == 1

    def test_vetoed_step_is_left_out_of_manifold_loss(self):
        """A vetoed FC step reports no loss, like a vetoed MASS step: the
        epoch's ``manifold_loss`` is the mean of the steps that ran."""

        class VetoSecondStep:
            def __init__(self):
                self.steps = []  # (loss, ran) per manifold.step

            def ok(self, name, *arrays):
                if name != "manifold.step":
                    return True
                ran = len(self.steps) != 1
                self.steps.append((float(arrays[0]), ran))
                return ran

        guard = VetoSecondStep()
        model = create_model("vgg16", num_classes=3, width_mult=0.125,
                             seed=0)
        images = fresh_rng(5).normal(size=(40, 3, 32, 32))
        labels = np.arange(40) % 3
        with use_registry() as registry:
            nshd = NSHD(model, layer_index=21, dim=128, reduced_features=8,
                        seed=0, guard=guard)
            history = nshd.fit(images, labels, epochs=1, batch_size=16)
            vetoed = registry.snapshot()["manifold.vetoed_steps"]["value"]
        assert [ran for _, ran in guard.steps] == [True, False, True]
        ran = [loss for loss, ok in guard.steps if ok]
        assert history["manifold_loss"] == [float(np.mean(ran))]
        assert vetoed == 1


class TestCNNTrainerGuard:
    def test_nan_images_never_reach_model_state(self):
        from repro.data import make_dataset
        x_tr, y_tr, _, _ = make_dataset(num_classes=3, num_train=48,
                                        num_test=6, seed=5)
        x_tr = x_tr.copy()
        x_tr[::7] = np.nan  # poisoned shards
        guard = NumericsGuard(policy="skip_batch")
        model = create_model("mobilenetv2", num_classes=3, width_mult=0.25,
                             seed=0)
        train_cnn(model, x_tr, y_tr, epochs=1, batch_size=8, augment=False,
                  guard=guard, seed=0)
        assert guard.batches_skipped > 0
        for param in model.parameters():
            assert np.all(np.isfinite(param.data))
        for _, buffer in model.named_buffers():
            assert np.all(np.isfinite(buffer))
