"""Tests for Module mechanics, layers, optimizers, serialization."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.nn import functional as F


def make_mlp(rng=None):
    rng = rng or np.random.default_rng(0)
    return nn.Sequential(
        nn.Linear(4, 8, rng=rng),
        nn.ReLU(),
        nn.Linear(8, 3, rng=rng),
    )


class TestModuleMechanics:
    def test_parameter_discovery(self):
        mlp = make_mlp()
        names = [n for n, _ in mlp.named_parameters()]
        assert "0.weight" in names and "2.bias" in names
        assert len(names) == 4

    def test_num_parameters(self):
        mlp = make_mlp()
        assert mlp.num_parameters() == 4 * 8 + 8 + 8 * 3 + 3

    def test_train_eval_propagates(self):
        model = nn.Sequential(nn.Dropout(0.5), nn.BatchNorm2d(3))
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self):
        mlp = make_mlp()
        out = mlp(Tensor(np.ones((2, 4))))
        out.sum().backward()
        assert all(p.grad is not None for p in mlp.parameters())
        mlp.zero_grad()
        assert all(p.grad is None for p in mlp.parameters())

    def test_sequential_slicing(self):
        mlp = make_mlp()
        head = mlp[:2]
        assert isinstance(head, nn.Sequential)
        assert len(head) == 2
        out = head(Tensor(np.ones((1, 4))))
        assert out.shape == (1, 8)

    def test_state_dict_roundtrip(self, tmp_path):
        mlp = make_mlp(np.random.default_rng(1))
        other = make_mlp(np.random.default_rng(2))
        path = str(tmp_path / "mlp.npz")
        nn.save_module(mlp, path)
        nn.load_module(other, path)
        x = Tensor(np.random.default_rng(3).normal(size=(2, 4)))
        np.testing.assert_allclose(mlp(x).data, other(x).data)

    def test_state_dict_includes_buffers(self):
        bn = nn.BatchNorm2d(2)
        state = bn.state_dict()
        assert "running_mean" in state and "running_var" in state

    def test_load_state_dict_shape_guard(self):
        a = nn.Linear(4, 3)
        b = nn.Linear(4, 5)
        with pytest.raises(ValueError):
            b.load_state_dict(a.state_dict() | {
                "weight": a.weight.data, "bias": np.zeros(5)})

    def test_load_state_dict_missing_key(self):
        lin = nn.Linear(2, 2)
        with pytest.raises(KeyError):
            lin.load_state_dict({"weight": np.zeros((2, 2))})

    def test_buffer_mutation_shared_after_load(self):
        bn = nn.BatchNorm2d(2)
        bn2 = nn.BatchNorm2d(2)
        bn.running_mean[:] = [1.0, 2.0]
        bn2.load_state_dict(bn.state_dict())
        np.testing.assert_allclose(bn2.running_mean, [1.0, 2.0])


class TestLayers:
    def test_conv_layer_shapes(self):
        conv = nn.Conv2d(3, 8, 3, stride=2, padding=1)
        out = conv(Tensor(np.zeros((2, 3, 8, 8))))
        assert out.shape == (2, 8, 4, 4)

    def test_depthwise_layer(self):
        conv = nn.Conv2d(6, 6, 3, padding=1, groups=6, bias=False)
        out = conv(Tensor(np.zeros((1, 6, 4, 4))))
        assert out.shape == (1, 6, 4, 4)
        assert conv.weight.shape == (6, 1, 3, 3)

    def test_linear_shapes(self):
        lin = nn.Linear(10, 5)
        assert lin(Tensor(np.zeros((7, 10)))).shape == (7, 5)

    def test_batchnorm_updates_buffers_in_training(self):
        bn = nn.BatchNorm2d(2, momentum=1.0)
        x = np.random.default_rng(4).normal(3.0, 1.0, size=(8, 2, 4, 4))
        bn(Tensor(x))
        np.testing.assert_allclose(bn.running_mean, x.mean(axis=(0, 2, 3)),
                                   rtol=1e-10)

    def test_batchnorm_eval_stable(self):
        bn = nn.BatchNorm2d(2)
        bn.eval()
        before = bn.running_mean.copy()
        bn(Tensor(np.random.default_rng(5).normal(size=(4, 2, 3, 3))))
        np.testing.assert_allclose(bn.running_mean, before)

    def test_identity_and_flatten(self):
        x = Tensor(np.zeros((2, 3, 4, 4)))
        assert nn.Identity()(x) is x
        assert nn.Flatten()(x).shape == (2, 48)

    def test_pool_layers(self):
        x = Tensor(np.arange(16.0).reshape(1, 1, 4, 4))
        assert nn.MaxPool2d(2)(x).shape == (1, 1, 2, 2)
        assert nn.AdaptiveAvgPool2d()(x).shape == (1, 1, 1, 1)

    def test_activation_layers(self):
        x = Tensor(np.array([-7.0, 7.0]))
        np.testing.assert_allclose(nn.ReLU()(x).data, [0.0, 7.0])
        np.testing.assert_allclose(nn.ReLU6()(x).data, [0.0, 6.0])
        np.testing.assert_allclose(nn.Sigmoid()(x).data,
                                   1 / (1 + np.exp(-x.data)))
        np.testing.assert_allclose(nn.SiLU()(x).data,
                                   x.data / (1 + np.exp(-x.data)))


class TestOptimizers:
    def quadratic_loss(self, param):
        return ((param - Tensor(np.array([1.0, -2.0]))) ** 2).sum()

    def test_adam_converges(self):
        p = nn.Parameter(np.zeros(2))
        opt = nn.Adam([p], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            self.quadratic_loss(p).backward()
            opt.step()
        np.testing.assert_allclose(p.data, [1.0, -2.0], atol=1e-3)

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            nn.Adam([], lr=0.1)

    def test_cosine_lr_endpoints(self):
        p = nn.Parameter(np.zeros(1))
        opt = nn.Adam([p], lr=2.0)
        sched = nn.CosineLR(opt, total_epochs=10)
        for _ in range(10):
            sched.step()
        assert opt.lr == pytest.approx(0.0, abs=1e-12)

    def test_training_loop_learns_xor_features(self):
        # End-to-end sanity: a small MLP fits a linearly-inseparable task.
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, size=(256, 2))
        labels = ((x[:, 0] * x[:, 1]) > 0).astype(int)
        model = nn.Sequential(nn.Linear(2, 16, rng=rng), nn.ReLU(),
                              nn.Linear(16, 2, rng=rng))
        opt = nn.Adam(model.parameters(), lr=0.05)
        for _ in range(150):
            opt.zero_grad()
            loss = F.cross_entropy(model(Tensor(x)), labels)
            loss.backward()
            opt.step()
        preds = model(Tensor(x)).argmax(axis=1)
        assert (preds == labels).mean() > 0.95
