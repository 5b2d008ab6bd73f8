"""Tests for the CNN training loop and weight caching."""

import os

import numpy as np
import pytest

from repro.data import make_dataset, normalize_images
from repro.models import cached_model, create_model, train_cnn


@pytest.fixture(scope="module")
def tiny_data():
    x_tr, y_tr, x_te, y_te = make_dataset(num_classes=3, num_train=60,
                                          num_test=30, seed=21)
    x_tr, mean, std = normalize_images(x_tr)
    x_te, _, _ = normalize_images(x_te, mean, std)
    return x_tr, y_tr, x_te, y_te


class TestTrainCNN:
    def test_loss_decreases(self, tiny_data):
        x_tr, y_tr, _, _ = tiny_data
        model = create_model("vgg16", num_classes=3, width_mult=0.125,
                             seed=7)
        history = train_cnn(model, x_tr, y_tr, epochs=3, batch_size=16,
                            lr=2e-3, seed=7, augment=False)
        assert history["loss"][-1] < history["loss"][0]

    def test_history_structure(self, tiny_data):
        """Loss and wall time per epoch; train accuracy once, after the
        final epoch."""
        x_tr, y_tr, _, _ = tiny_data
        model = create_model("vgg16", num_classes=3, width_mult=0.125,
                             seed=9)
        history = train_cnn(model, x_tr, y_tr, epochs=3, batch_size=16,
                            seed=9)
        assert len(history["loss"]) == 3
        assert len(history["epoch_time"]) == 3
        assert len(history["train_acc"]) == 1
        assert 0.0 <= history["train_acc"][0] <= 1.0


class TestCachedModel:
    def test_cache_roundtrip(self, tiny_data, tmp_path):
        x_tr, y_tr, x_te, _ = tiny_data
        kwargs = dict(num_classes=3, width_mult=0.125, epochs=1,
                      batch_size=16, seed=3, dataset_tag="tinytest",
                      cache_dir=str(tmp_path))
        first = cached_model("vgg16", x_tr, y_tr, **kwargs)
        assert len(os.listdir(tmp_path)) == 1
        second = cached_model("vgg16", x_tr, y_tr, **kwargs)
        np.testing.assert_allclose(first.logits(x_te[:4]),
                                   second.logits(x_te[:4]))

    def test_different_tag_retrains(self, tiny_data, tmp_path):
        x_tr, y_tr, _, _ = tiny_data
        base = dict(num_classes=3, width_mult=0.125, epochs=1,
                    batch_size=16, seed=3, cache_dir=str(tmp_path))
        cached_model("vgg16", x_tr, y_tr, dataset_tag="a", **base)
        cached_model("vgg16", x_tr, y_tr, dataset_tag="b", **base)
        assert len(os.listdir(tmp_path)) == 2

    def test_cached_model_in_eval_mode(self, tiny_data, tmp_path):
        x_tr, y_tr, _, _ = tiny_data
        model = cached_model("vgg16", x_tr, y_tr, num_classes=3,
                             width_mult=0.125, epochs=1, batch_size=16,
                             seed=3, dataset_tag="evalmode",
                             cache_dir=str(tmp_path))
        assert not model.training
