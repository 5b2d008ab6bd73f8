"""Tests for MAC/parameter counting against hand-computed references."""

import numpy as np
import pytest

from repro import nn
from repro.hardware import (baselinehd_macs, count_parameters,
                            hd_encode_macs, hd_similarity_macs, model_macs,
                            nshd_macs, trace_costs, trunk_macs)
from repro.models import create_model


@pytest.fixture(scope="module")
def vgg():
    return create_model("vgg16", num_classes=5, width_mult=0.125, seed=0)


class TestTraceCosts:
    def test_single_conv_macs(self):
        conv = nn.Conv2d(3, 8, 3, padding=1, rng=np.random.default_rng(0))
        costs = trace_costs(lambda x: conv(x), image_size=16)
        # 8 channels x 16x16 outputs x (3 in-ch x 9) per output
        assert sum(c.macs for c in costs) == 8 * 16 * 16 * 27

    def test_strided_conv_macs(self):
        conv = nn.Conv2d(3, 4, 3, stride=2, padding=1,
                         rng=np.random.default_rng(0))
        costs = trace_costs(lambda x: conv(x), image_size=16)
        assert sum(c.macs for c in costs) == 4 * 8 * 8 * 27

    def test_depthwise_conv_macs(self):
        conv = nn.Conv2d(3, 3, 3, padding=1, groups=3, bias=False,
                         rng=np.random.default_rng(0))
        costs = trace_costs(lambda x: conv(x), image_size=8)
        # groups == channels: 1 input channel per output
        assert sum(c.macs for c in costs) == 3 * 8 * 8 * 9

    def test_linear_macs(self):
        lin = nn.Linear(10, 4, rng=np.random.default_rng(0))
        model = nn.Sequential(nn.AdaptiveAvgPool2d(1), nn.Flatten())

        def run(x):
            return lin(nn.Tensor(np.zeros((1, 10))))
        costs = trace_costs(run, image_size=8)
        assert sum(c.macs for c in costs) == 40

    def test_batchnorm_zero_macs_but_params(self):
        bn = nn.BatchNorm2d(6)
        bn.eval()
        costs = trace_costs(lambda x: bn(nn.Tensor(np.zeros((1, 6, 4, 4)))),
                            image_size=8)
        bn_costs = [c for c in costs if c.kind == "BatchNorm2d"]
        assert bn_costs[0].macs == 0
        assert bn_costs[0].params == 12

    def test_pool_and_activation_free(self):
        model = nn.Sequential(nn.MaxPool2d(2), nn.ReLU())
        costs = trace_costs(lambda x: model(x), image_size=8)
        assert sum(c.macs for c in costs) == 0
        assert sum(c.params for c in costs) == 0


class TestModelCounts:
    def test_trunk_macs_monotone_in_depth(self, vgg):
        macs = [trunk_macs(vgg, layer) for layer in (5, 15, 27, 30)]
        assert macs == sorted(macs)
        assert macs[0] > 0

    def test_full_model_exceeds_trunk(self, vgg):
        assert model_macs(vgg) > trunk_macs(vgg, 30)

    def test_count_parameters_full(self, vgg):
        assert count_parameters(vgg) == vgg.num_parameters()

    def test_count_parameters_trunk_monotone(self, vgg):
        params = [count_parameters(vgg, layer) for layer in (5, 15, 27)]
        assert params == sorted(params)
        assert params[-1] < vgg.num_parameters()

    def test_trace_does_not_disturb_training_flag(self, vgg):
        vgg.train()
        model_macs(vgg)
        assert vgg.training
        vgg.eval()


class TestHDStageCounts:
    def test_encode_macs(self):
        assert hd_encode_macs(100, 3000) == 300_000

    def test_similarity_macs(self):
        assert hd_similarity_macs(10, 3000) == 30_000

    def test_nshd_stage_breakdown(self, vgg):
        stages = nshd_macs(vgg, 27, dim=3000, reduced_features=64,
                           num_classes=5)
        assert stages["encode"] == 64 * 3000
        assert stages["similarity"] == 5 * 3000
        assert stages["total"] == sum(stages[k] for k in
                                      ("trunk", "manifold", "encode",
                                       "similarity"))

    def test_manifold_macs_use_pooled_features(self, vgg):
        c, h, w = vgg.feature_shape(27)
        stages = nshd_macs(vgg, 27, dim=3000, reduced_features=64,
                           num_classes=5)
        pooled = c * max(1, h // 2) * max(1, w // 2) if h >= 2 and w >= 2 \
            else c * h * w
        assert stages["manifold"] == pooled * 64

    def test_baselinehd_encodes_full_features(self, vgg):
        stages = baselinehd_macs(vgg, 27, dim=3000, num_classes=5)
        assert stages["encode"] == vgg.feature_count(27) * 3000
        assert stages["manifold"] == 0

    def test_nshd_cheaper_than_baseline_when_f_large(self, vgg):
        """Fig. 5's claim: the manifold learner reduces HD-stage MACs
        whenever F̂ (plus the manifold FC) is cheaper than F."""
        nshd = nshd_macs(vgg, 27, dim=3000, reduced_features=64,
                         num_classes=5)
        base = baselinehd_macs(vgg, 27, dim=3000, num_classes=5)
        assert nshd["total"] < base["total"]

    def test_manifold_saving_grows_with_dimension(self, vgg):
        """Fig. 5: savings are larger at D=10,000 than at D=3,000."""
        def saving(dim):
            nshd = nshd_macs(vgg, 27, dim=dim, reduced_features=64,
                             num_classes=5)["total"]
            base = baselinehd_macs(vgg, 27, dim=dim, num_classes=5)["total"]
            return 1.0 - nshd / base
        assert saving(10_000) > saving(3_000)
