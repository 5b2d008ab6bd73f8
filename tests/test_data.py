"""Tests for the synthetic dataset, loaders and augmentation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (SyntheticCIFAR, add_gaussian_noise, augment_batch,
                        iterate_batches, make_dataset, normalize_images,
                        one_hot, random_crop, random_horizontal_flip)


class TestSyntheticCIFAR:
    def test_image_shape_and_range(self):
        ds = SyntheticCIFAR(num_classes=10, seed=0)
        img = ds.render(3, 0)
        assert img.shape == (3, 32, 32)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_determinism(self):
        a = SyntheticCIFAR(num_classes=10, seed=5).render(2, 7)
        b = SyntheticCIFAR(num_classes=10, seed=5).render(2, 7)
        np.testing.assert_allclose(a, b)

    def test_different_seeds_differ(self):
        a = SyntheticCIFAR(num_classes=10, seed=1).render(0, 0)
        b = SyntheticCIFAR(num_classes=10, seed=2).render(0, 0)
        assert not np.allclose(a, b)

    def test_different_indices_differ(self):
        ds = SyntheticCIFAR(num_classes=10, seed=0)
        assert not np.allclose(ds.render(0, 0), ds.render(0, 1))

    def test_label_validation(self):
        ds = SyntheticCIFAR(num_classes=10, seed=0)
        with pytest.raises(ValueError):
            ds.render(10, 0)

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            SyntheticCIFAR(num_classes=1)
        with pytest.raises(ValueError):
            SyntheticCIFAR(image_size=4)

    def test_generate_balanced_and_shuffled(self):
        ds = SyntheticCIFAR(num_classes=5, seed=0)
        x, y = ds.generate(100, "train")
        assert x.shape == (100, 3, 32, 32)
        counts = np.bincount(y, minlength=5)
        np.testing.assert_array_equal(counts, np.full(5, 20))
        # Shuffled: labels should not be in blocks.
        assert not np.array_equal(y, np.sort(y))

    def test_train_test_disjoint(self):
        ds = SyntheticCIFAR(num_classes=4, seed=0)
        x_tr, y_tr = ds.generate(40, "train")
        x_te, y_te = ds.generate(40, "test")
        # No rendered image should appear in both splits.
        tr_flat = x_tr.reshape(40, -1)
        te_flat = x_te.reshape(40, -1)
        cross = tr_flat @ te_flat.T
        self_norm = (tr_flat ** 2).sum(axis=1)
        assert not np.any(np.isclose(cross, self_norm[:, None]) &
                          np.isclose(cross, (te_flat ** 2).sum(axis=1)))

    def test_split_validation(self):
        with pytest.raises(ValueError):
            SyntheticCIFAR(num_classes=3, seed=0).generate(10, "dev")

    def test_same_class_more_similar_than_cross_class(self):
        """The class signal must exist: intra-class correlation above
        inter-class on average (weakly, over many pairs)."""
        ds = SyntheticCIFAR(num_classes=6, seed=0)
        per_class = 12
        images = np.stack([ds.render(c, i) for c in range(6)
                           for i in range(per_class)])
        flat = images.reshape(len(images), -1)
        flat = flat - flat.mean(axis=0)
        labels = np.repeat(np.arange(6), per_class)
        sims = flat @ flat.T
        same = labels[:, None] == labels[None, :]
        np.fill_diagonal(same, False)
        intra = sims[same].mean()
        inter = sims[~(labels[:, None] == labels[None, :])].mean()
        assert intra > inter

    def test_pose_jitter_zero_reduces_variation(self):
        loose = SyntheticCIFAR(num_classes=3, seed=0, pose_jitter=1.0,
                               noise=0.0)
        tight = SyntheticCIFAR(num_classes=3, seed=0, pose_jitter=0.0,
                               noise=0.0)

        def spread(ds):
            imgs = np.stack([ds.render(0, i) for i in range(8)])
            return imgs.std(axis=0).mean()
        assert spread(tight) < spread(loose)

    def test_make_dataset_shapes(self):
        x_tr, y_tr, x_te, y_te = make_dataset(num_classes=3, num_train=30,
                                              num_test=9, seed=0)
        assert x_tr.shape == (30, 3, 32, 32)
        assert x_te.shape == (9, 3, 32, 32)
        assert y_tr.dtype == np.int64

    def test_custom_image_size(self):
        ds = SyntheticCIFAR(num_classes=3, image_size=16, seed=0)
        assert ds.render(0, 0).shape == (3, 16, 16)


class TestLoader:
    def test_normalize_statistics(self):
        rng = np.random.default_rng(0)
        x = rng.uniform(size=(50, 3, 8, 8)) * 4 + 1
        normed, mean, std = normalize_images(x)
        np.testing.assert_allclose(normed.mean(axis=(0, 2, 3)),
                                   np.zeros(3), atol=1e-10)
        np.testing.assert_allclose(normed.std(axis=(0, 2, 3)),
                                   np.ones(3), rtol=1e-10)

    def test_normalize_with_provided_stats(self):
        x = np.ones((2, 3, 2, 2))
        normed, _, _ = normalize_images(x, mean=np.full(3, 1.0),
                                        std=np.full(3, 2.0))
        np.testing.assert_allclose(normed, np.zeros_like(x))

    def test_normalize_zero_std_safe(self):
        x = np.full((4, 1, 2, 2), 3.0)
        normed, _, _ = normalize_images(x)
        assert np.all(np.isfinite(normed))

    def test_iterate_batches_covers_everything(self):
        x = np.arange(10)[:, None].astype(float)
        y = np.arange(10)
        seen = []
        for xb, yb in iterate_batches(x, y, 3,
                                      rng=np.random.default_rng(0)):
            seen.extend(yb.tolist())
        assert sorted(seen) == list(range(10))

    def test_iterate_batches_alignment(self):
        x = np.arange(20)[:, None].astype(float)
        y = np.arange(20)
        for xb, yb in iterate_batches(x, y, 7,
                                      rng=np.random.default_rng(1)):
            np.testing.assert_array_equal(xb[:, 0].astype(int), yb)

    def test_iterate_batches_no_shuffle_ordered(self):
        x = np.arange(6)[:, None].astype(float)
        y = np.arange(6)
        batches = list(iterate_batches(x, y, 4, shuffle=False))
        np.testing.assert_array_equal(batches[0][1], [0, 1, 2, 3])
        np.testing.assert_array_equal(batches[1][1], [4, 5])

    def test_iterate_batches_validation(self):
        with pytest.raises(ValueError):
            list(iterate_batches(np.zeros((3, 1)), np.zeros(2), 2))
        with pytest.raises(ValueError):
            list(iterate_batches(np.zeros((3, 1)), np.zeros(3), 0))

    def test_iterate_batches_rejects_single_chw_image(self):
        # a 3-D array is almost always a CHW image missing its batch axis
        with pytest.raises(ValueError, match="batch axis"):
            list(iterate_batches(np.zeros((3, 8, 8)), np.zeros(3), 2))

    def test_iterate_batches_rejects_bad_labels(self):
        with pytest.raises(ValueError, match="labels"):
            list(iterate_batches(np.zeros((4, 1)), np.zeros((4, 1)), 2))
        with pytest.raises(ValueError, match="dtype"):
            list(iterate_batches(np.zeros((2, 1)),
                                 np.array(["a", "b"]), 1))

    def test_normalize_rejects_non_4d(self):
        with pytest.raises(ValueError, match="4-D NCHW"):
            normalize_images(np.zeros((3, 8, 8)))
        with pytest.raises(ValueError, match="4-D NCHW"):
            normalize_images(np.zeros((10, 5)))

    def test_normalize_rejects_bad_stat_shapes(self):
        x = np.ones((2, 3, 4, 4))
        with pytest.raises(ValueError, match="mean/std"):
            normalize_images(x, mean=np.zeros(2), std=np.ones(3))

    def test_one_hot(self):
        out = one_hot(np.array([0, 2, 1]), 3)
        np.testing.assert_allclose(out, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])

    def test_one_hot_range_check(self):
        with pytest.raises(ValueError):
            one_hot(np.array([3]), 3)

    @given(st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=10))
    @settings(max_examples=25, deadline=None)
    def test_property_batches_partition(self, n, batch_size):
        x = np.arange(n)[:, None].astype(float)
        y = np.arange(n)
        total = sum(len(yb) for _, yb in
                    iterate_batches(x, y, batch_size,
                                    rng=np.random.default_rng(0)))
        assert total == n


class TestAugment:
    def test_flip_changes_some_images(self):
        rng = np.random.default_rng(0)
        x = np.random.default_rng(1).uniform(size=(20, 3, 8, 8))
        flipped = random_horizontal_flip(x, rng, prob=1.0)
        np.testing.assert_allclose(flipped, x[:, :, :, ::-1])

    def test_flip_prob_zero_identity(self):
        rng = np.random.default_rng(0)
        x = np.random.default_rng(1).uniform(size=(5, 3, 4, 4))
        np.testing.assert_allclose(random_horizontal_flip(x, rng, 0.0), x)

    def test_crop_preserves_shape(self):
        rng = np.random.default_rng(0)
        x = np.random.default_rng(1).uniform(size=(6, 3, 16, 16))
        assert random_crop(x, rng).shape == x.shape

    def test_noise_changes_values(self):
        rng = np.random.default_rng(0)
        x = np.zeros((2, 3, 4, 4))
        noisy = add_gaussian_noise(x, rng, std=0.1)
        assert noisy.std() > 0

    def test_augment_batch_pipeline(self):
        rng = np.random.default_rng(0)
        x = np.random.default_rng(1).uniform(size=(4, 3, 8, 8))
        out = augment_batch(x, rng, noise_std=0.01)
        assert out.shape == x.shape
        assert not np.allclose(out, x)
