"""The frozen CNN's trunk runs once per training image, and the manifold
once per training batch.

The distillation teacher continues from the cut-layer features the
extractor already produced (``logits(features, after=k)``).  These tests
hold that path bit-identical to the full pass from the image, at every
cut of three models, and count the trunk calls of a distilled
``NSHD.fit``.  They also count the manifold forwards of a distilled fit:
MASS and the FC step share one forward per batch.
"""

import math

import numpy as np
import pytest

from repro.learn import NSHD
from repro.models import FeatureExtractor, create_model
from repro.pipeline import ManifoldReduceStage
from repro.telemetry import use_registry

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


def test_distilled_fit_runs_one_manifold_forward_per_batch(images, labels,
                                                           monkeypatch):
    """A training batch runs the FC once, on the tape it backpropagates
    through; the graph's reduce stage runs only for the init and eval
    rows.  Every encoded row is still counted."""
    model = tiny("vgg16")
    nshd = NSHD(model, layer_index=21, dim=256, reduced_features=16,
                seed=0)
    features = nshd.extractor.extract(images[:100])
    teacher = model.logits(features, after=21)
    fc_rows, reduce_rows, per_batch = [], [], []

    reduce = ManifoldReduceStage.__call__

    def counted_reduce(stage, batch, ctx=None):
        reduce_rows.append(len(batch))
        return reduce(stage, batch, ctx)
    monkeypatch.setattr(ManifoldReduceStage, "__call__", counted_reduce)

    fc_forward = nshd.manifold.fc.forward

    def counted_fc(x):
        fc_rows.append(len(x.data))
        return fc_forward(x)
    nshd.manifold.fc.forward = counted_fc

    train_batch = nshd._train_batch

    def counted_batch(**batch):
        before = len(fc_rows), len(reduce_rows)
        loss = train_batch(**batch)
        per_batch.append((len(fc_rows) - before[0],
                          len(reduce_rows) - before[1]))
        return loss
    nshd._train_batch = counted_batch

    with use_registry() as registry:
        nshd.fit_features(features, labels[:100], teacher, epochs=3,
                          batch_size=32)
        encoded = registry.snapshot()["hd.encode.samples"]["value"]
    batches = 3 * math.ceil(100 / 32)
    assert per_batch == [(1, 0)] * batches
    assert sum(fc_rows) == 3 * 100
    assert sum(reduce_rows) == 100 + 3 * 100  # init + one eval per epoch
    assert encoded == 100 + 3 * 100 + 3 * 100  # init, eval, batches
