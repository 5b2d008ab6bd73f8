"""Hypothesis property tests for the nn substrate's structural invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.nn import Tensor
from repro.nn import functional as F


class TestConvShapes:
    @given(st.integers(min_value=3, max_value=12),
           st.integers(min_value=1, max_value=3),
           st.integers(min_value=1, max_value=2),
           st.integers(min_value=0, max_value=2))
    @settings(max_examples=20, deadline=None)
    def test_property_conv_output_formula(self, size, kernel, stride,
                                          padding):
        if size + 2 * padding < kernel:
            return
        conv = nn.Conv2d(2, 3, kernel, stride=stride, padding=padding,
                         rng=np.random.default_rng(0))
        out = conv(Tensor(np.zeros((1, 2, size, size))))
        expected = F.conv_output_size(size, kernel, stride, padding)
        assert out.shape == (1, 3, expected, expected)

    @given(st.integers(min_value=1, max_value=8))
    @settings(max_examples=10, deadline=None)
    def test_property_depthwise_preserves_channels(self, channels):
        conv = nn.Conv2d(channels, channels, 3, padding=1, groups=channels,
                         bias=False, rng=np.random.default_rng(0))
        out = conv(Tensor(np.zeros((1, channels, 4, 4))))
        assert out.shape[1] == channels


class TestLinearityProperties:
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_property_conv_is_linear(self, seed):
        """conv(a x + b y) == a conv(x) + b conv(y) (no bias)."""
        rng = np.random.default_rng(seed)
        conv = nn.Conv2d(2, 2, 3, padding=1, bias=False, rng=rng)
        x = rng.normal(size=(1, 2, 5, 5))
        y = rng.normal(size=(1, 2, 5, 5))
        a, b = rng.normal(size=2)
        left = conv(Tensor(a * x + b * y)).data
        right = a * conv(Tensor(x)).data + b * conv(Tensor(y)).data
        np.testing.assert_allclose(left, right, rtol=1e-9, atol=1e-9)

    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_property_linear_is_affine(self, seed):
        rng = np.random.default_rng(seed)
        lin = nn.Linear(4, 3, rng=rng)
        x = rng.normal(size=(2, 4))
        shift = rng.normal(size=(2, 4))
        delta = lin(Tensor(x + shift)).data - lin(Tensor(x)).data
        np.testing.assert_allclose(delta, shift @ lin.weight.data.T,
                                   rtol=1e-9, atol=1e-9)


class TestSerializationProperties:
    @given(st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_property_state_dict_roundtrip_exact(self, seed):
        rng = np.random.default_rng(seed)
        model = nn.Sequential(nn.Conv2d(1, 2, 3, rng=rng),
                              nn.BatchNorm2d(2), nn.ReLU(), nn.Flatten(),
                              nn.Linear(2 * 4, 3, rng=rng))
        clone = nn.Sequential(nn.Conv2d(1, 2, 3),
                              nn.BatchNorm2d(2), nn.ReLU(), nn.Flatten(),
                              nn.Linear(2 * 4, 3))
        clone.load_state_dict(model.state_dict())
        model.eval()
        clone.eval()
        x = Tensor(rng.normal(size=(1, 1, 4, 4)))
        np.testing.assert_allclose(model(x).data, clone(x).data)


class TestTraceProperties:
    def test_trace_is_reentrant(self):
        conv = nn.Conv2d(1, 1, 3, rng=np.random.default_rng(0))
        with nn.trace() as outer:
            conv(Tensor(np.zeros((1, 1, 4, 4))))
            with nn.trace() as inner:
                conv(Tensor(np.zeros((1, 1, 4, 4))))
        # Inner trace captures only its own call; outer only its own.
        assert len(inner) == 1
        assert len(outer) == 1

    def test_trace_only_leaf_modules(self):
        model = nn.Sequential(nn.Conv2d(1, 2, 3, rng=np.random.default_rng(0)),
                              nn.ReLU())
        with nn.trace() as records:
            model(Tensor(np.zeros((1, 1, 5, 5))))
        kinds = [type(r.module).__name__ for r in records]
        assert "Sequential" not in kinds
        assert kinds == ["Conv2d", "ReLU"]

    def test_no_trace_overhead_outside_context(self):
        conv = nn.Conv2d(1, 1, 3, rng=np.random.default_rng(0))
        conv(Tensor(np.zeros((1, 1, 4, 4))))  # must not raise or record
