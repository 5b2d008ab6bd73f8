"""The frozen CNN's trunk runs once per training image.

The distillation teacher continues from the cut-layer features the
extractor already produced (``logits(features, after=k)``).  These tests
hold that path bit-identical to the full pass from the image, at every
cut of three models, and count the trunk calls of a distilled
``NSHD.fit``.
"""

import math

import numpy as np
import pytest

from repro.learn import NSHD
from repro.models import FeatureExtractor, create_model

#: Feature layers per model (every one is a valid cut).
NUM_LAYERS = {"vgg16": 31, "mobilenetv2": 19, "efficientnet_b0": 9}
CUTS = [(name, cut) for name, count in NUM_LAYERS.items()
        for cut in range(count)]
NUM_IMAGES = 130  # two full 64-row chunks and a 2-row tail
CHUNKS = math.ceil(NUM_IMAGES / 64)


def tiny(name):
    return create_model(name, num_classes=4, width_mult=0.125, seed=0)


@pytest.fixture(scope="module")
def images():
    return np.random.default_rng(0).normal(size=(NUM_IMAGES, 3, 32, 32))


@pytest.fixture(scope="module")
def few_images(images):
    """One full chunk and a 2-row tail: crosses the chunk boundary at
    half the cost of ``images`` for the 59-cut sweep."""
    return images[:66]


@pytest.fixture(scope="module")
def labels():
    return np.arange(NUM_IMAGES) % 4


@pytest.fixture(scope="module")
def full_pass(few_images):
    """``{name: (model, logits of the full pass from the images)}``."""
    out = {}
    for name, count in NUM_LAYERS.items():
        model = tiny(name)
        assert model.num_feature_layers() == count
        out[name] = (model, model.logits(few_images))
    return out


@pytest.mark.parametrize("name,cut", CUTS)
def test_suffix_logits_equal_full_pass(full_pass, few_images, name, cut):
    model, expected = full_pass[name]
    features = FeatureExtractor(model, cut).extract(few_images)
    assert np.array_equal(model.logits(features, after=cut), expected)


def test_logits_after_rejects_bad_cut(full_pass):
    model, _ = full_pass["vgg16"]
    with pytest.raises(ValueError):
        model.logits(np.zeros((2, 8)), after=31)


def test_distilled_fit_runs_each_trunk_layer_once_per_image(images,
                                                            labels):
    model = tiny("vgg16")
    nshd = NSHD(model, layer_index=21, dim=256, reduced_features=16,
                seed=0)
    calls = [0] * model.num_feature_layers()
    for index, layer in enumerate(model.features):
        def counted(x, index=index, forward=layer.forward):
            calls[index] += 1
            return forward(x)
        layer.forward = counted
    nshd.fit(images, labels, epochs=1)
    # Layers 0..21 serve the extractor and the teacher; 22..30 only the
    # teacher.  Each runs once per 64-row chunk.
    assert calls == [CHUNKS] * len(calls)


def test_fit_equals_two_pass_reference(images, labels):
    model = tiny("vgg16")
    kwargs = dict(layer_index=21, dim=256, reduced_features=16, seed=0)
    single = NSHD(model, **kwargs)
    history = single.fit(images, labels, epochs=2)
    reference = NSHD(model, **kwargs)
    expected = reference.fit_features(
        reference.extractor.extract(images), labels, model.logits(images),
        epochs=2)
    assert np.array_equal(single.trainer.class_matrix,
                          reference.trainer.class_matrix)
    state, ref_state = (single.manifold.state_dict(),
                        reference.manifold.state_dict())
    assert state.keys() == ref_state.keys()
    for key in state:
        assert np.array_equal(state[key], ref_state[key]), key
    for key in ("train_acc", "manifold_loss"):  # epoch_time is wall clock
        assert history[key] == expected[key]
