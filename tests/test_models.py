"""Tests for the CNN zoo: indexing, shapes, extractor/teacher wrappers."""

import numpy as np
import pytest

from repro.models import (MODEL_REGISTRY, FeatureExtractor, TeacherModel,
                          create_model, load_trunk, paper_cut_layers,
                          scale_channels, soften_logits)
from repro.models.blocks import ConvBNAct, InvertedResidual, SqueezeExcite
from repro.nn import Tensor, no_grad

TINY = dict(num_classes=4, width_mult=0.125, seed=0)


@pytest.fixture(scope="module")
def tiny_models():
    return {name: create_model(name, **TINY) for name in MODEL_REGISTRY}


class TestRegistry:
    def test_all_models_constructible(self, tiny_models):
        assert set(tiny_models) == {"vgg16", "mobilenetv2",
                                    "efficientnet_b0", "efficientnet_b7"}

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            create_model("resnet50")

    def test_paper_cut_layers(self):
        assert paper_cut_layers("vgg16") == (27, 29)
        assert paper_cut_layers("mobilenetv2") == (14, 17)
        assert paper_cut_layers("efficientnet_b0") == (5, 6, 7, 8)
        assert paper_cut_layers("efficientnet_b7") == (6, 7, 8)
        with pytest.raises(ValueError):
            paper_cut_layers("alexnet")

    def test_layer_index_counts_match_torchvision(self, tiny_models):
        """The paper's indexing: VGG16 has 31 feature layers, MobileNetV2
        19 operators, EfficientNet 9 blocks."""
        assert tiny_models["vgg16"].num_feature_layers() == 31
        assert tiny_models["mobilenetv2"].num_feature_layers() == 19
        assert tiny_models["efficientnet_b0"].num_feature_layers() == 9
        assert tiny_models["efficientnet_b7"].num_feature_layers() == 9

    def test_deterministic_construction(self):
        a = create_model("vgg16", **TINY)
        b = create_model("vgg16", **TINY)
        x = np.random.default_rng(0).normal(size=(2, 3, 32, 32))
        np.testing.assert_allclose(a.logits(x), b.logits(x))

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_load_trunk_runs_the_stored_layers_to_the_cut(self, name,
                                                         tiny_models):
        model = tiny_models[name]
        cut = model.paper_layers[0] if name != "vgg16" else 21
        trunk = load_trunk(name, cut, model.features[:cut + 1].state_dict(),
                           num_classes=TINY["num_classes"],
                           width_mult=TINY["width_mult"])
        assert trunk.num_feature_layers() == cut + 1
        assert len(trunk.classifier) == 0 and not trunk.training
        x = np.random.default_rng(1).normal(size=(2, 3, 32, 32))
        want = FeatureExtractor(model, cut).extract(x)
        np.testing.assert_array_equal(
            FeatureExtractor(trunk, cut).extract(x), want)
        with pytest.raises(ValueError, match="out of range"):
            load_trunk(name, model.num_feature_layers(), {})

    def test_scale_channels(self):
        assert scale_channels(64, 1.0) == 64
        assert scale_channels(64, 0.25) == 16
        assert scale_channels(64, 0.01) == 4  # floor at minimum
        assert scale_channels(30, 1.0, divisor=4) % 4 == 0


class TestForwardShapes:
    @pytest.mark.parametrize("name", list(MODEL_REGISTRY))
    def test_logits_shape(self, tiny_models, name):
        model = tiny_models[name]
        out = model.logits(np.zeros((3, 3, 32, 32)))
        assert out.shape == (3, 4)

    @pytest.mark.parametrize("name", list(MODEL_REGISTRY))
    def test_paper_layers_valid_and_monotone_depth(self, tiny_models, name):
        model = tiny_models[name]
        for layer in paper_cut_layers(name):
            assert 0 <= layer < model.num_feature_layers()
            c, h, w = model.feature_shape(layer)
            assert c >= 1 and h >= 1 and w >= 1

    def test_features_at_progression(self, tiny_models):
        model = tiny_models["vgg16"]
        x = Tensor(np.zeros((1, 3, 32, 32)))
        with no_grad():
            early = model.features_at(x, 1)
            late = model.features_at(x, 30)
        assert early.shape[2] > late.shape[2]  # pooling shrinks space

    def test_features_at_range_check(self, tiny_models):
        model = tiny_models["vgg16"]
        with pytest.raises(ValueError):
            model.features_at(Tensor(np.zeros((1, 3, 32, 32))), 31)

    def test_feature_count_matches_shape(self, tiny_models):
        model = tiny_models["efficientnet_b0"]
        for layer in (5, 8):
            c, h, w = model.feature_shape(layer)
            assert model.feature_count(layer) == c * h * w

    def test_b7_larger_than_b0(self, tiny_models):
        assert tiny_models["efficientnet_b7"].num_parameters() > \
            tiny_models["efficientnet_b0"].num_parameters()

    def test_predict_and_accuracy(self, tiny_models):
        model = tiny_models["mobilenetv2"]
        x = np.random.default_rng(0).normal(size=(6, 3, 32, 32))
        preds = model.predict(x)
        assert preds.shape == (6,)
        acc = model.accuracy(x, preds)
        assert acc == 1.0


class TestBlocks:
    def test_conv_bn_act_shapes(self):
        block = ConvBNAct(3, 8, kernel=3, stride=2,
                          rng=np.random.default_rng(0))
        out = block(Tensor(np.zeros((2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)

    def test_conv_bn_act_bad_activation(self):
        with pytest.raises(ValueError):
            ConvBNAct(3, 8, activation="gelu")

    def test_squeeze_excite_preserves_shape(self):
        se = SqueezeExcite(8, rng=np.random.default_rng(0))
        x = Tensor(np.random.default_rng(1).normal(size=(2, 8, 4, 4)))
        assert se(x).shape == x.shape

    def test_squeeze_excite_gates_in_unit_interval(self):
        se = SqueezeExcite(8, rng=np.random.default_rng(0))
        x = Tensor(np.abs(np.random.default_rng(1).normal(size=(1, 8, 4, 4))))
        out = se(x)
        ratio = out.data / np.where(x.data == 0, 1.0, x.data)
        assert np.all(ratio <= 1.0 + 1e-9) and np.all(ratio >= 0.0)

    def test_inverted_residual_skip_connection(self):
        block = InvertedResidual(8, 8, stride=1, expand_ratio=2,
                                 rng=np.random.default_rng(0))
        assert block.use_residual

    def test_inverted_residual_no_skip_on_stride(self):
        block = InvertedResidual(8, 8, stride=2, expand_ratio=2,
                                 rng=np.random.default_rng(0))
        assert not block.use_residual

    def test_inverted_residual_stride_validation(self):
        with pytest.raises(ValueError):
            InvertedResidual(8, 8, stride=3)

    def test_inverted_residual_shapes(self):
        block = InvertedResidual(4, 12, stride=2, expand_ratio=6,
                                 use_se=True, activation="silu",
                                 rng=np.random.default_rng(0))
        out = block(Tensor(np.zeros((1, 4, 8, 8))))
        assert out.shape == (1, 12, 4, 4)


class TestExtractorAndTeacher:
    def test_extractor_output_shape(self, tiny_models):
        model = tiny_models["vgg16"]
        extractor = FeatureExtractor(model, 27)
        feats = extractor.extract(np.zeros((5, 3, 32, 32)))
        assert feats.shape == (5, extractor.num_features)

    def test_extractor_layer_validation(self, tiny_models):
        with pytest.raises(ValueError):
            FeatureExtractor(tiny_models["vgg16"], 99)

    def test_extractor_eval_mode_restored(self, tiny_models):
        model = tiny_models["vgg16"]
        model.train()
        FeatureExtractor(model, 5).extract(np.zeros((2, 3, 32, 32)))
        assert model.training

    def test_extractor_deterministic(self, tiny_models):
        model = tiny_models["efficientnet_b0"]
        ext = FeatureExtractor(model, 6)
        x = np.random.default_rng(2).normal(size=(3, 3, 32, 32))
        np.testing.assert_allclose(ext.extract(x), ext.extract(x))

    def test_earlier_layer_cheaper_or_equal_features_than_trunk_end(
            self, tiny_models):
        model = tiny_models["vgg16"]
        assert model.feature_count(10) >= model.feature_count(30)

    def test_teacher_logits_match_model(self, tiny_models):
        model = tiny_models["mobilenetv2"]
        teacher = TeacherModel(model)
        x = np.random.default_rng(3).normal(size=(4, 3, 32, 32))
        np.testing.assert_allclose(teacher.logits(x), model.logits(x))

    def test_teacher_soft_labels_are_distributions(self, tiny_models):
        teacher = TeacherModel(tiny_models["vgg16"])
        x = np.random.default_rng(4).normal(size=(3, 3, 32, 32))
        soft = teacher.soft_labels(x, temperature=4.0)
        np.testing.assert_allclose(soft.sum(axis=1), np.ones(3), rtol=1e-10)
        assert np.all(soft >= 0)

    def test_soften_logits_temperature_flattens(self):
        logits = np.array([[4.0, 0.0, 0.0]])
        sharp = soften_logits(logits, 1.0)
        soft = soften_logits(logits, 10.0)
        assert soft[0, 0] < sharp[0, 0]

    def test_soften_logits_validation(self):
        with pytest.raises(ValueError):
            soften_logits(np.zeros((1, 3)), 0.0)
