"""Tests for centroid, MASS and distillation trainers on controlled data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hd import RandomProjectionEncoder
from repro.learn import DistillationTrainer, MassTrainer, train_centroids
from repro.learn.mass import clip_update_norms
from repro.hd.similarity import cosine_similarity


def make_separable_hvs(num_classes=4, per_class=30, dim=512, noise=0.4,
                       seed=0):
    """Class-clustered hypervectors: prototypes + per-sample noise."""
    rng = np.random.default_rng(seed)
    prototypes = rng.choice([-1.0, 1.0], size=(num_classes, dim))
    labels = np.repeat(np.arange(num_classes), per_class)
    hvs = prototypes[labels] + rng.normal(0, noise * 2, size=(len(labels),
                                                              dim))
    return np.sign(hvs) + (np.sign(hvs) == 0), labels, prototypes


class TestCentroid:
    def test_sums_per_class(self):
        hvs = np.array([[1.0, 1], [1, -1], [-1, -1]])
        labels = np.array([0, 0, 1])
        m = train_centroids(hvs, labels, 2)
        np.testing.assert_allclose(m, [[2, 0], [-1, -1]])

    def test_empty_class_is_zero(self):
        m = train_centroids(np.ones((2, 4)), np.array([0, 0]), 3)
        np.testing.assert_allclose(m[1], np.zeros(4))
        np.testing.assert_allclose(m[2], np.zeros(4))

    def test_alignment_validation(self):
        with pytest.raises(ValueError):
            train_centroids(np.ones((2, 4)), np.array([0]), 2)

    def test_label_range_validation(self):
        with pytest.raises(ValueError):
            train_centroids(np.ones((2, 4)), np.array([0, 5]), 2)

    def test_centroids_classify_clustered_data(self):
        hvs, labels, _ = make_separable_hvs()
        m = train_centroids(hvs, labels, 4)
        preds = cosine_similarity(m, hvs).argmax(axis=1)
        assert (preds == labels).mean() > 0.9


class TestNormalizedSimilarity:
    def test_self_similarity_is_one(self):
        hvs = np.random.default_rng(0).choice([-1.0, 1.0], size=(3, 64))
        sims = cosine_similarity(hvs, hvs)
        np.testing.assert_allclose(np.diag(sims), np.ones(3))

    def test_bounded(self):
        rng = np.random.default_rng(1)
        sims = cosine_similarity(rng.normal(size=(4, 32)),
                                 rng.normal(size=(6, 32)))
        assert np.all(np.abs(sims) <= 1.0 + 1e-12)

    def test_zero_rows_safe(self):
        sims = cosine_similarity(np.zeros((2, 8)), np.ones((1, 8)))
        assert np.all(np.isfinite(sims))


class TestMassTrainer:
    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            MassTrainer(1, 64)
        with pytest.raises(ValueError):
            MassTrainer(3, 0)

    def test_initialize_sets_centroids(self):
        hvs, labels, _ = make_separable_hvs()
        trainer = MassTrainer(4, hvs.shape[1])
        trainer.initialize(hvs, labels)
        np.testing.assert_allclose(trainer.class_matrix,
                                   train_centroids(hvs, labels, 4))

    def test_update_direction(self):
        """U must be positive for the true class when similarity < 1."""
        hvs, labels, _ = make_separable_hvs(per_class=5)
        trainer = MassTrainer(4, hvs.shape[1])
        trainer.initialize(hvs, labels)
        update = trainer.compute_update(hvs, labels)
        own = update[np.arange(len(labels)), labels]
        assert np.all(own > 0)

    def test_fit_improves_over_centroids(self):
        hvs, labels, _ = make_separable_hvs(noise=0.8, seed=3)
        trainer = MassTrainer(4, hvs.shape[1], lr=0.1)
        trainer.initialize(hvs, labels)
        before = trainer.accuracy(hvs, labels)
        trainer.fit(hvs, labels, epochs=10,
                    rng=np.random.default_rng(0))
        assert trainer.accuracy(hvs, labels) >= before

    def test_fit_reaches_high_train_accuracy(self):
        hvs, labels, _ = make_separable_hvs(noise=0.6, seed=4)
        trainer = MassTrainer(4, hvs.shape[1], lr=0.1)
        trainer.fit(hvs, labels, epochs=25, rng=np.random.default_rng(0))
        assert trainer.accuracy(hvs, labels) > 0.95

    def test_well_classified_samples_barely_move_model(self):
        """MASS's key property: update magnitude scales with error."""
        dim = 256
        rng = np.random.default_rng(5)
        proto = rng.choice([-1.0, 1.0], size=(2, dim))
        trainer = MassTrainer(2, dim)
        trainer.class_matrix = proto.copy()
        exact = proto[0:1]          # perfectly classified
        update_exact = trainer.compute_update(exact, np.array([0]))
        opposite = -proto[0:1]      # maximally wrong
        update_wrong = trainer.compute_update(opposite, np.array([0]))
        assert np.abs(update_wrong).sum() > np.abs(update_exact).sum()

    def test_generalizes_to_noisy_queries(self):
        hvs, labels, prototypes = make_separable_hvs(seed=6)
        trainer = MassTrainer(4, hvs.shape[1], lr=0.1)
        trainer.fit(hvs, labels, epochs=10, rng=np.random.default_rng(0))
        test_hvs, test_labels, _ = make_separable_hvs(seed=99)
        # Same prototypes requires same seed; rebuild queries from protos:
        rng = np.random.default_rng(100)
        queries = np.sign(prototypes[labels] +
                          rng.normal(0, 0.8, size=hvs.shape))
        assert trainer.accuracy(queries, labels) > 0.9

    def test_fit_history_keys(self):
        hvs, labels, _ = make_separable_hvs(per_class=5)
        trainer = MassTrainer(4, hvs.shape[1])
        history = trainer.fit(hvs, labels, epochs=3,
                              rng=np.random.default_rng(0))
        assert len(history["train_acc"]) == 3

    @given(st.integers(min_value=2, max_value=6),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_property_zero_update_at_perfect_similarity(self, k, seed):
        """If δ(M,H) is exactly one-hot, U = 0 and M is a fixed point."""
        dim = 128
        rng = np.random.default_rng(seed)
        protos = rng.choice([-1.0, 1.0], size=(k, dim))
        trainer = MassTrainer(k, dim)
        # Orthogonalize via Gram-Schmidt on random protos is overkill;
        # instead use disjoint supports so cosine(C_i, C_j) = 0 exactly.
        m = np.zeros((k, dim))
        block = dim // k
        for i in range(k):
            m[i, i * block:(i + 1) * block] = \
                protos[i, i * block:(i + 1) * block]
        trainer.class_matrix = m.copy()
        queries = m.copy()
        update = trainer.compute_update(queries, np.arange(k))
        np.testing.assert_allclose(update, np.zeros((k, k)), atol=1e-12)

    @given(seed=st.integers(0, 2 ** 16),
           max_norm=st.floats(0.01, 10.0, allow_nan=False),
           rows=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_clip_update_norms_bounds_and_identity(self, seed, max_norm,
                                                   rows):
        """Clipped rows land on the max-norm ball; rows already under
        the cap pass through bit-exact."""
        rng = np.random.default_rng(seed)
        delta = rng.standard_normal((rows, 32)) * \
            rng.choice([0.01, 1.0, 100.0], size=(rows, 1))
        clipped = clip_update_norms(delta, max_norm)
        norms = np.linalg.norm(clipped, axis=1)
        assert np.all(norms <= max_norm * (1 + 1e-12))
        under = np.linalg.norm(delta, axis=1) <= max_norm
        assert np.array_equal(clipped[under], delta[under])

    @pytest.mark.parametrize("max_norm", [0.0, -1.0, float("nan"),
                                          float("inf")])
    def test_a_cap_that_clips_nothing_is_refused(self, max_norm):
        # NaN and inf compare false against every norm: no row would
        # ever be clipped.  None is the one spelling of "no cap".
        with pytest.raises(ValueError, match="max_norm"):
            clip_update_norms(np.ones((2, 4)), max_norm)
        with pytest.raises(ValueError, match="max_update_norm"):
            MassTrainer(3, 8, max_update_norm=max_norm)


class TestDistillationTrainer:
    def setup_problem(self, seed=0):
        hvs, labels, _ = make_separable_hvs(noise=0.8, seed=seed)
        rng = np.random.default_rng(seed + 1)
        # Teacher logits: mostly correct with confident margins.
        logits = rng.normal(0, 0.5, size=(len(labels), 4))
        logits[np.arange(len(labels)), labels] += 3.0
        return hvs, labels, logits

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            DistillationTrainer(4, 64, temperature=0.0)
        with pytest.raises(ValueError):
            DistillationTrainer(4, 64, alpha=1.5)

    def test_alpha_zero_equals_mass(self):
        hvs, labels, logits = self.setup_problem()
        mass = MassTrainer(4, hvs.shape[1], lr=0.1)
        kd = DistillationTrainer(4, hvs.shape[1], lr=0.1, alpha=0.0)
        mass.fit(hvs, labels, epochs=5, rng=np.random.default_rng(0))
        kd.fit(hvs, labels, epochs=5, rng=np.random.default_rng(0),
               extra_per_sample={"teacher_logits": logits})
        np.testing.assert_allclose(kd.class_matrix, mass.class_matrix)

    def test_alpha_positive_requires_teacher(self):
        hvs, labels, _ = self.setup_problem()
        kd = DistillationTrainer(4, hvs.shape[1], alpha=0.5)
        kd.initialize(hvs, labels)
        with pytest.raises(ValueError):
            kd.compute_update(hvs, labels)

    def test_teacher_alignment_validation(self):
        hvs, labels, logits = self.setup_problem()
        kd = DistillationTrainer(4, hvs.shape[1], alpha=0.5)
        with pytest.raises(ValueError):
            kd.fit(hvs, labels, epochs=1,
                   extra_per_sample={"teacher_logits": logits[:-1]})

    @pytest.mark.parametrize("teacher_rows", [60, 101])
    def test_misaligned_teacher_refused_before_any_update(self,
                                                          teacher_rows):
        """Too few teacher rows used to update M and then fail mid-epoch
        with IndexError; too many were silently cut to a prefix."""
        hvs, labels, _ = make_separable_hvs(per_class=25)  # 100 rows
        logits = np.zeros((teacher_rows, 4))
        kd = DistillationTrainer(4, hvs.shape[1], alpha=0.5)
        before = kd.class_matrix.copy()
        with pytest.raises(ValueError, match="teacher_logits"):
            kd.fit(hvs, labels, epochs=1, batch_size=2,
                   extra_per_sample={"teacher_logits": logits})
        np.testing.assert_array_equal(kd.class_matrix, before)

    def test_distilled_update_follows_teacher(self):
        """With α=1 the update direction tracks teacher probabilities."""
        dim = 256
        kd = DistillationTrainer(2, dim, alpha=1.0, temperature=2.0)
        kd.class_matrix = np.zeros((2, dim))
        hv = np.random.default_rng(7).choice([-1.0, 1.0], size=(1, dim))
        teacher = np.array([[5.0, -5.0]])  # teacher says class 0
        update = kd.compute_update(hv, np.array([1]), teacher_logits=teacher)
        assert update[0, 0] > update[0, 1]

    def test_distillation_learns_problem(self):
        hvs, labels, logits = self.setup_problem(seed=2)
        kd = DistillationTrainer(4, hvs.shape[1], lr=0.1, alpha=0.5,
                                 temperature=14.0)
        kd.fit(hvs, labels, epochs=20, rng=np.random.default_rng(0),
               extra_per_sample={"teacher_logits": logits})
        assert kd.accuracy(hvs, labels) > 0.9

    def test_temperature_softens_teacher_distribution(self):
        """Higher t flattens the teacher targets (less confident), while
        Hinton's T^2 correction keeps the update magnitude commensurate
        (same order) instead of vanishing as 1/t^2."""
        hvs, labels, logits = self.setup_problem()

        def update(t):
            kd = DistillationTrainer(4, hvs.shape[1], alpha=1.0,
                                     temperature=t)
            kd.initialize(hvs, labels)
            return kd.compute_update(hvs[:5], labels[:5],
                                     teacher_logits=logits[:5])

        from repro.models import soften_logits
        sharp = soften_logits(logits[:5], 2.0)
        soft = soften_logits(logits[:5], 16.0)
        assert soft.max() < sharp.max()
        ratio = np.abs(update(16.0)).mean() / np.abs(update(2.0)).mean()
        assert 0.1 < ratio < 64.0  # commensurate, not 1/64th

    def test_kd_helps_with_noisy_labels(self):
        """Teacher knowledge should rescue corrupted ground truth — the
        mechanism behind Fig. 8's accuracy gains."""
        hvs, labels, logits = self.setup_problem(seed=5)
        rng = np.random.default_rng(11)
        noisy = labels.copy()
        flip = rng.random(len(labels)) < 0.35
        noisy[flip] = rng.integers(0, 4, size=flip.sum())

        mass = MassTrainer(4, hvs.shape[1], lr=0.05)
        mass.fit(hvs, noisy, epochs=15, rng=np.random.default_rng(0))
        kd = DistillationTrainer(4, hvs.shape[1], lr=0.05, alpha=0.7,
                                 temperature=4.0)
        kd.fit(hvs, noisy, epochs=15, rng=np.random.default_rng(0),
               extra_per_sample={"teacher_logits": logits})
        assert kd.accuracy(hvs, labels) >= mass.accuracy(hvs, labels)
