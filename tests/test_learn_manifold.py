"""Tests for the manifold learner and its HD error-decoding training."""

import numpy as np
import pytest

from repro.hd import RandomProjectionEncoder
from repro.learn import ManifoldLearner, MassTrainer
from repro.hd.similarity import cosine_similarity

from .conftest import FixedUpdate


def rng(seed=0):
    return np.random.default_rng(seed)


class TestConstruction:
    def test_pooled_feature_count(self):
        learner = ManifoldLearner((8, 4, 4), out_features=10, rng=rng())
        assert learner.pooled_features == 8 * 2 * 2
        assert learner.in_features == 8 * 4 * 4

    def test_skips_pooling_on_tiny_maps(self):
        learner = ManifoldLearner((16, 1, 1), out_features=8, rng=rng())
        assert not learner.pooling
        assert learner.pooled_features == 16

    def test_validation(self):
        with pytest.raises(ValueError):
            ManifoldLearner((8, 4), out_features=10)
        with pytest.raises(ValueError):
            ManifoldLearner((8, 4, 4), out_features=0)

    def test_parameter_count(self):
        learner = ManifoldLearner((4, 4, 4), out_features=5, rng=rng())
        assert sum(p.size for p in learner.fc.parameters()) == 16 * 5 + 5

    def test_macs_per_sample(self):
        learner = ManifoldLearner((4, 4, 4), out_features=5, rng=rng())
        assert learner.macs_per_sample() == 16 * 5


class TestForward:
    def test_output_shape(self):
        learner = ManifoldLearner((4, 4, 4), out_features=7, rng=rng())
        out = learner.transform(rng(1).normal(size=(3, 64)))
        assert out.shape == (3, 7)

    def test_input_validation(self):
        learner = ManifoldLearner((4, 4, 4), out_features=7, rng=rng())
        with pytest.raises(ValueError):
            learner.transform(np.zeros((2, 65)))

    def test_maxpool_applied(self):
        learner = ManifoldLearner((1, 2, 2), out_features=1, rng=rng())
        learner.fc.weight.data = np.ones((1, 1))
        learner.fc.bias.data = np.zeros(1)
        out = learner.transform(np.array([[1.0, 5.0, 2.0, 3.0]]))
        assert out[0, 0] == pytest.approx(5.0)  # max of the 2x2 window

    def test_tensor_and_numpy_paths_agree(self):
        learner = ManifoldLearner((4, 4, 4), out_features=6, rng=rng(2))
        feats = rng(3).normal(size=(2, 64))
        np.testing.assert_allclose(learner.transform(feats),
                                   learner.forward_tensor(feats).data)


class TestPCAInit:
    def test_outputs_become_decorrelated(self):
        learner = ManifoldLearner((4, 4, 4), out_features=4, rng=rng(4))
        feats = rng(5).normal(size=(200, 64))
        learner.init_pca(feats)
        out = learner.transform(feats)
        cov = np.cov(out.T)
        off_diag = cov - np.diag(np.diag(cov))
        assert np.abs(off_diag).max() < 0.15
        np.testing.assert_allclose(np.diag(cov), np.ones(4), rtol=0.2)

    def test_information_preserving_when_full_rank(self):
        """With F̂ == pooled dim, the PCA init is invertible: the pooled
        features are recoverable from the manifold output (R² ≈ 1)."""
        learner = ManifoldLearner((8, 1, 1), out_features=8, rng=rng(6))
        feats = rng(7).normal(size=(50, 8))
        learner.init_pca(feats)
        out = learner.transform(feats)
        centered = feats - feats.mean(axis=0)
        # Least-squares reconstruction of the input from the output.
        coeffs, *_ = np.linalg.lstsq(out, centered, rcond=None)
        residual = centered - out @ coeffs
        r2 = 1.0 - (residual ** 2).sum() / (centered ** 2).sum()
        assert r2 > 0.99

    def test_more_components_than_rank_is_safe(self):
        learner = ManifoldLearner((2, 2, 2), out_features=8, rng=rng(8))
        feats = rng(9).normal(size=(3, 8))  # rank <= 3
        learner.init_pca(feats)
        assert np.all(np.isfinite(learner.fc.weight.data))


class TestErrorDecodingTraining:
    def make_setup(self, seed=0, f_hat=16, dim=1024):
        learner = ManifoldLearner((4, 4, 4), out_features=f_hat,
                                  rng=rng(seed), lr=5e-3)
        encoder = RandomProjectionEncoder(f_hat, dim, rng(seed + 1))
        return learner, encoder

    def test_train_step_returns_finite_loss(self):
        learner, encoder = self.make_setup()
        feats = rng(10).normal(size=(8, 64))
        update = rng(11).normal(size=(8, 3))
        m = rng(12).choice([-1.0, 1.0], size=(3, encoder.dim))
        loss = learner.train_step(feats, np.zeros(8, int),
                                  FixedUpdate(update, m), encoder)
        assert np.isfinite(loss)

    def test_train_step_changes_fc(self):
        learner, encoder = self.make_setup()
        before = learner.fc.weight.data.copy()
        feats = rng(13).normal(size=(8, 64))
        update = rng(14).normal(size=(8, 3))
        m = rng(15).choice([-1.0, 1.0], size=(3, encoder.dim))
        learner.train_step(feats, np.zeros(8, int), FixedUpdate(update, m),
                           encoder)
        assert not np.allclose(before, learner.fc.weight.data)

    def test_encoder_size_mismatch_rejected(self):
        learner, _ = self.make_setup(f_hat=16)
        wrong_encoder = RandomProjectionEncoder(8, 512, rng(16))
        with pytest.raises(ValueError):
            learner.train_step(np.zeros((1, 64)), np.zeros(1, int),
                               FixedUpdate(np.zeros((1, 2)),
                                           np.zeros((2, 512))),
                               wrong_encoder)

    def test_training_improves_class_separation(self):
        """The full loop of Sec. V-C: iterating (MASS update, manifold
        step) must improve train accuracy over the PCA-only start."""
        g = rng(20)
        num_classes, f_hat, dim = 3, 8, 1024
        # Features: class structure hidden in a linear subspace + noise.
        protos = g.normal(size=(num_classes, 64)) * 2.0
        labels = np.repeat(np.arange(num_classes), 40)
        feats = protos[labels] + g.normal(size=(len(labels), 64)) * 1.5

        learner = ManifoldLearner((4, 4, 4), out_features=f_hat,
                                  rng=rng(21), lr=1e-2)
        learner.init_pca(feats)
        encoder = RandomProjectionEncoder(f_hat, dim, rng(22))
        trainer = MassTrainer(num_classes, dim, lr=0.05)
        trainer.initialize(encoder.encode(learner.transform(feats)), labels)

        def acc():
            enc = encoder.encode(learner.transform(feats))
            return (cosine_similarity(trainer.class_matrix, enc)
                    .argmax(axis=1) == labels).mean()

        start = acc()
        order = np.arange(len(labels))
        for _ in range(8):
            g.shuffle(order)
            for s in range(0, len(order), 32):
                batch = order[s:s + 32]
                learner.train_step(feats[batch], labels[batch], trainer,
                                   encoder)
        assert acc() >= start
        assert acc() > 0.8
