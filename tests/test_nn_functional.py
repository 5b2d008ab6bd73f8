"""Gradient and semantics checks for conv/pool/loss operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import Tensor, no_grad
from repro.nn import functional as F

from .conftest import numeric_grad


def reference_conv2d(x, w, b, stride, padding, groups=1):
    """Direct (slow) convolution used as ground truth."""
    n, c, h, wd = x.shape
    oc, gic, k, _ = w.shape
    oh = (h + 2 * padding - k) // stride + 1
    ow = (wd + 2 * padding - k) // stride + 1
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    out = np.zeros((n, oc, oh, ow))
    cg = c // groups
    og = oc // groups
    for ni in range(n):
        for o in range(oc):
            g = o // og
            for i in range(oh):
                for j in range(ow):
                    patch = xp[ni, g * cg:(g + 1) * cg,
                               i * stride:i * stride + k,
                               j * stride:j * stride + k]
                    out[ni, o, i, j] = (patch * w[o]).sum()
            if b is not None:
                out[ni, o] += b[o]
    return out


def reference_max_pool2d(x, kernel, stride, padding):
    """im2col + argmax max-pool over the ``-inf``-padded input."""
    n, c = x.shape[:2]
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                constant_values=-np.inf)
    cols, out_h, out_w = F.im2col_indices(
        xp.reshape(n * c, 1, *xp.shape[2:]), kernel, stride, 0)
    arg = cols.argmax(axis=1)
    out = np.take_along_axis(cols, arg[:, None, :], axis=1)[:, 0, :]
    return out.reshape(n, c, out_h, out_w)


def reference_max_pool2d_grad(x, grad, kernel, stride, padding):
    """Route each window's gradient to its first maximum (NaN counts as one)."""
    n, c, h, w = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)),
                constant_values=-np.inf)
    gp = np.zeros_like(xp)
    for ni in range(n):
        for ci in range(c):
            for i in range(grad.shape[2]):
                for j in range(grad.shape[3]):
                    window = xp[ni, ci, i * stride:i * stride + kernel,
                                j * stride:j * stride + kernel]
                    r, q = divmod(int(np.argmax(window)), kernel)
                    gp[ni, ci, i * stride + r, j * stride + q] += \
                        grad[ni, ci, i, j]
    return gp[:, :, padding:padding + h, padding:padding + w]


def reference_batch_norm2d(x, gamma, beta, mean, var, eps=1e-5):
    """The four-temporary batch-norm expression ``F.batch_norm2d`` replaced."""
    mean_b = mean.reshape(1, -1, 1, 1)
    inv_std = 1.0 / np.sqrt(var.reshape(1, -1, 1, 1) + eps)
    x_hat = (x - mean_b) * inv_std
    out = gamma.reshape(1, -1, 1, 1) * x_hat + beta.reshape(1, -1, 1, 1)
    return out, x_hat, inv_std


class TestConv2d:
    @pytest.mark.parametrize("stride,padding", [(1, 0), (1, 1), (2, 1)])
    def test_forward_matches_reference(self, stride, padding):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(2, 3, 6, 6))
        w = rng.normal(size=(4, 3, 3, 3))
        b = rng.normal(size=4)
        out = F.conv2d(Tensor(x), Tensor(w), Tensor(b), stride=stride,
                       padding=padding)
        expected = reference_conv2d(x, w, b, stride, padding)
        np.testing.assert_allclose(out.data, expected, rtol=1e-10)

    def test_depthwise_forward(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(2, 4, 5, 5))
        w = rng.normal(size=(4, 1, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), None, stride=1, padding=1,
                       groups=4)
        expected = reference_conv2d(x, w, None, 1, 1, groups=4)
        np.testing.assert_allclose(out.data, expected, rtol=1e-10)

    def test_grouped_forward(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(1, 4, 4, 4))
        w = rng.normal(size=(6, 2, 3, 3))
        out = F.conv2d(Tensor(x), Tensor(w), None, padding=1, groups=2)
        expected = reference_conv2d(x, w, None, 1, 1, groups=2)
        np.testing.assert_allclose(out.data, expected, rtol=1e-10)

    def test_input_gradient(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=(1, 2, 5, 5))
        w = rng.normal(size=(3, 2, 3, 3))
        xt = Tensor(x.copy(), requires_grad=True)
        out = F.conv2d(xt, Tensor(w), None, stride=2, padding=1)
        (out * out).sum().backward()

        def fn(a):
            o = reference_conv2d(a, w, None, 2, 1)
            return float((o ** 2).sum())
        np.testing.assert_allclose(xt.grad, numeric_grad(fn, x.copy()),
                                   rtol=1e-4, atol=1e-6)

    def test_weight_gradient(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(2, 2, 4, 4))
        w = rng.normal(size=(2, 2, 3, 3))
        wt = Tensor(w.copy(), requires_grad=True)
        out = F.conv2d(Tensor(x), wt, None, padding=1)
        (out * out).sum().backward()

        def fn(a):
            o = reference_conv2d(x, a, None, 1, 1)
            return float((o ** 2).sum())
        np.testing.assert_allclose(wt.grad, numeric_grad(fn, w.copy()),
                                   rtol=1e-4, atol=1e-6)

    def test_bias_gradient(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=(2, 2, 4, 4))
        w = rng.normal(size=(3, 2, 3, 3))
        b = rng.normal(size=3)
        bt = Tensor(b.copy(), requires_grad=True)
        out = F.conv2d(Tensor(x), Tensor(w), bt, padding=1)
        out.sum().backward()
        # d(sum)/db_o = number of output positions per channel per batch
        np.testing.assert_allclose(bt.grad, np.full(3, 2 * 4 * 4))

    def test_depthwise_gradients(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(1, 3, 4, 4))
        w = rng.normal(size=(3, 1, 3, 3))
        xt = Tensor(x.copy(), requires_grad=True)
        wt = Tensor(w.copy(), requires_grad=True)
        out = F.conv2d(xt, wt, None, padding=1, groups=3)
        (out * out).sum().backward()

        def fn_x(a):
            return float((reference_conv2d(a, w, None, 1, 1, 3) ** 2).sum())

        def fn_w(a):
            return float((reference_conv2d(x, a, None, 1, 1, 3) ** 2).sum())
        np.testing.assert_allclose(xt.grad, numeric_grad(fn_x, x.copy()),
                                   rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(wt.grad, numeric_grad(fn_w, w.copy()),
                                   rtol=1e-4, atol=1e-6)

    def test_grouped_gradients(self):
        rng = np.random.default_rng(16)
        x = rng.normal(size=(2, 4, 5, 5))
        w = rng.normal(size=(6, 2, 3, 3))
        b = rng.normal(size=6)
        xt = Tensor(x.copy(), requires_grad=True)
        wt = Tensor(w.copy(), requires_grad=True)
        out = F.conv2d(xt, wt, Tensor(b), stride=2, padding=1, groups=2)
        (out * out).sum().backward()

        def fn_x(a):
            return float((reference_conv2d(a, w, b, 2, 1, 2) ** 2).sum())

        def fn_w(a):
            return float((reference_conv2d(x, a, b, 2, 1, 2) ** 2).sum())
        np.testing.assert_allclose(xt.grad, numeric_grad(fn_x, x.copy()),
                                   rtol=1e-4, atol=1e-6)
        np.testing.assert_allclose(wt.grad, numeric_grad(fn_w, w.copy()),
                                   rtol=1e-4, atol=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_forward_matches_reference_property(self, data):
        c = data.draw(st.integers(1, 4), label="in_channels")
        groups = data.draw(st.sampled_from(
            [g for g in (1, 2, c) if c % g == 0]), label="groups")
        out_c = groups * data.draw(st.integers(1, 3), label="out_per_group")
        kernel = data.draw(st.integers(1, 3), label="kernel")
        stride = data.draw(st.integers(1, 2), label="stride")
        padding = data.draw(st.integers(0, 2), label="padding")
        n = data.draw(st.integers(1, 3), label="n")
        h = data.draw(st.integers(3, 9), label="h")
        w = data.draw(st.integers(3, 9), label="w")
        with_bias = data.draw(st.booleans(), label="bias")
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 16)))
        x = rng.normal(size=(n, c, h, w))
        weight = rng.normal(size=(out_c, c // groups, kernel, kernel))
        bias = rng.normal(size=out_c) if with_bias else None
        out = F.conv2d(Tensor(x), Tensor(weight),
                       Tensor(bias) if with_bias else None,
                       stride=stride, padding=padding, groups=groups)
        expected = reference_conv2d(x, weight, bias, stride, padding, groups)
        np.testing.assert_allclose(out.data, expected, rtol=1e-10,
                                   atol=1e-12)

    @pytest.mark.parametrize("groups", [1, 2])
    def test_chunked_lowering_is_bit_exact(self, monkeypatch, groups):
        """A batch lowered in several column-buffer chunks equals one
        lowering of the whole batch, and each image lowered alone, bit
        for bit in the output and the gradients."""
        rng = np.random.default_rng(11)
        x = rng.normal(size=(7, 4, 6, 6))
        w = rng.normal(size=(6, 4 // groups, 3, 3))
        b = rng.normal(size=6)

        def run(images, cols_bytes):
            monkeypatch.setattr(F, "_COLS_BYTES", cols_bytes)
            xt = Tensor(images.copy(), requires_grad=True)
            wt = Tensor(w.copy(), requires_grad=True)
            bt = Tensor(b.copy(), requires_grad=True)
            out = F.conv2d(xt, wt, bt, padding=1, groups=groups)
            (out * out).sum().backward()
            return out.data, xt.grad, wt.grad, bt.grad

        image_cols = 4 * 9 * 36 * x.itemsize
        whole = run(x, 1 << 30)
        chunked = run(x, 2 * image_cols + 1)  # chunks of 2, 2, 2 and 1
        for got, want in zip(chunked, whole):
            np.testing.assert_array_equal(got, want)
        for i in range(len(x)):
            alone = run(x[i:i + 1], 1 << 30)
            np.testing.assert_array_equal(alone[0][0], whole[0][i])
            np.testing.assert_array_equal(alone[1][0], whole[1][i])

    def test_channel_mismatch_raises(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 3, 4, 4))),
                     Tensor(np.zeros((2, 4, 3, 3))), None)

    def test_rectangular_kernel_rejected(self):
        with pytest.raises(ValueError):
            F.conv2d(Tensor(np.zeros((1, 1, 4, 4))),
                     Tensor(np.zeros((1, 1, 2, 3))), None)


class TestPooling:
    def test_max_pool_forward(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        out = F.max_pool2d(Tensor(x), kernel=2)
        np.testing.assert_allclose(out.data[0, 0], [[5, 7], [13, 15]])

    def test_max_pool_gradient(self):
        x = np.arange(16.0).reshape(1, 1, 4, 4)
        t = Tensor(x, requires_grad=True)
        F.max_pool2d(t, 2).sum().backward()
        expected = np.zeros((4, 4))
        expected[1, 1] = expected[1, 3] = expected[3, 1] = expected[3, 3] = 1
        np.testing.assert_allclose(t.grad[0, 0], expected)

    def test_max_pool_stride_one(self):
        x = np.arange(9.0).reshape(1, 1, 3, 3)
        out = F.max_pool2d(Tensor(x), kernel=2, stride=1)
        np.testing.assert_allclose(out.data[0, 0], [[4, 5], [7, 8]])

    def test_max_pool_pads_with_neg_inf(self):
        # PyTorch semantics: a border window of negatives returns its
        # maximum, not the zero of a constant pad.
        x = -1.0 - np.arange(25.0).reshape(1, 1, 5, 5)
        out = F.max_pool2d(Tensor(x), kernel=3, padding=1)
        np.testing.assert_array_equal(out.data[0, 0],
                                      [[-1.0, -3.0], [-11.0, -13.0]])

    @pytest.mark.parametrize("kernel,stride", [(2, 2), (2, 1), (3, 2),
                                               (3, 3)])
    @pytest.mark.parametrize("padding", [0, 1])
    @pytest.mark.parametrize("requires_grad", [False, True])
    def test_max_pool_matches_im2col_argmax(self, kernel, stride, padding,
                                            requires_grad):
        rng = np.random.default_rng(kernel * 10 + stride + padding)
        x = rng.normal(size=(2, 3, 7, 9))
        x[0, 1, 2, :] = np.nan   # a NaN row poisons every window it meets
        x[1, 0, :, 4] = np.nan
        t = Tensor(x, requires_grad=requires_grad)
        if requires_grad:
            out = F.max_pool2d(t, kernel, stride, padding)
        else:
            with no_grad():
                out = F.max_pool2d(t, kernel, stride, padding)
        expected = reference_max_pool2d(x, kernel, stride, padding)
        assert out.shape == expected.shape
        np.testing.assert_array_equal(out.data, expected)
        assert np.isnan(out.data).any()
        assert out.requires_grad == requires_grad
        if requires_grad:
            grad = rng.normal(size=out.shape)
            out.backward(grad)
            # Overlapping windows add up in another order than the loop.
            np.testing.assert_allclose(
                t.grad,
                reference_max_pool2d_grad(x, grad, kernel, stride, padding),
                rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("kernel,stride,padding", [(2, 2, 0), (2, 1, 0),
                                                       (3, 2, 1), (3, 1, 1)])
    def test_max_pool_ties_route_to_first_element(self, kernel, stride,
                                                  padding):
        t = Tensor(np.full((1, 2, 5, 5), 3.0), requires_grad=True)
        out = F.max_pool2d(t, kernel, stride, padding)
        grad = np.arange(1.0, out.data.size + 1).reshape(out.shape)
        out.backward(grad)
        expected = np.zeros(t.shape)
        for i in range(out.shape[2]):
            for j in range(out.shape[3]):
                # first in-image element of the window, row-major
                r = max(i * stride - padding, 0)
                q = max(j * stride - padding, 0)
                expected[:, :, r, q] += grad[:, :, i, j]
        np.testing.assert_array_equal(t.grad, expected)

    def test_global_avg_pool(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(2, 3, 4, 4))
        out = F.adaptive_avg_pool2d(Tensor(x))
        np.testing.assert_allclose(out.data[:, :, 0, 0], x.mean(axis=(2, 3)))

    def test_global_avg_pool_gradient(self):
        t = Tensor(np.ones((1, 2, 2, 2)), requires_grad=True)
        F.adaptive_avg_pool2d(t).sum().backward()
        np.testing.assert_allclose(t.grad, np.full((1, 2, 2, 2), 0.25))

    def test_adaptive_pool_other_sizes_unsupported(self):
        with pytest.raises(NotImplementedError):
            F.adaptive_avg_pool2d(Tensor(np.zeros((1, 1, 4, 4))), 2)


class TestActivationsAndLosses:
    def test_relu6_caps(self):
        x = Tensor(np.array([-1.0, 3.0, 9.0]))
        np.testing.assert_allclose(F.relu6(x).data, [0.0, 3.0, 6.0])

    def test_silu_matches_definition(self):
        x = np.array([-2.0, 0.0, 1.5])
        out = F.silu(Tensor(x))
        np.testing.assert_allclose(out.data, x / (1 + np.exp(-x)), rtol=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(8)
        out = F.softmax(Tensor(rng.normal(size=(5, 7)) * 10))
        np.testing.assert_allclose(out.data.sum(axis=1), np.ones(5), rtol=1e-10)

    def test_softmax_stability_large_logits(self):
        out = F.softmax(Tensor(np.array([[1000.0, 1000.0]])))
        np.testing.assert_allclose(out.data, [[0.5, 0.5]])

    def test_log_softmax_consistency(self):
        rng = np.random.default_rng(9)
        x = rng.normal(size=(3, 4))
        np.testing.assert_allclose(F.log_softmax(Tensor(x)).data,
                                   np.log(F.softmax(Tensor(x)).data),
                                   rtol=1e-10)

    def test_cross_entropy_value(self):
        logits = np.log(np.array([[0.7, 0.2, 0.1], [0.1, 0.8, 0.1]]))
        loss = F.cross_entropy(Tensor(logits), np.array([0, 1]))
        expected = -(np.log(0.7) + np.log(0.8)) / 2
        assert loss.item() == pytest.approx(expected, rel=1e-10)

    def test_cross_entropy_gradient(self):
        rng = np.random.default_rng(10)
        logits = rng.normal(size=(4, 5))
        labels = np.array([0, 2, 4, 1])
        t = Tensor(logits.copy(), requires_grad=True)
        F.cross_entropy(t, labels).backward()
        probs = np.exp(logits - logits.max(axis=1, keepdims=True))
        probs /= probs.sum(axis=1, keepdims=True)
        onehot = np.eye(5)[labels]
        np.testing.assert_allclose(t.grad, (probs - onehot) / 4, rtol=1e-8)

    def test_dropout_eval_is_identity(self):
        x = Tensor(np.ones((10,)))
        out = F.dropout(x, 0.5, training=False)
        np.testing.assert_allclose(out.data, x.data)

    def test_dropout_preserves_expectation(self):
        rng = np.random.default_rng(11)
        x = Tensor(np.ones((20000,)))
        out = F.dropout(x, 0.25, training=True, rng=rng)
        assert out.data.mean() == pytest.approx(1.0, abs=0.02)

    def test_conv_output_size(self):
        assert F.conv_output_size(32, 3, 1, 1) == 32
        assert F.conv_output_size(32, 3, 2, 1) == 16
        assert F.conv_output_size(5, 2, 2, 0) == 2


class TestBatchNorm:
    def test_training_normalizes_batch(self):
        rng = np.random.default_rng(12)
        x = rng.normal(3.0, 2.0, size=(8, 4, 5, 5))
        gamma = Tensor(np.ones(4), requires_grad=True)
        beta = Tensor(np.zeros(4), requires_grad=True)
        rm, rv = np.zeros(4), np.ones(4)
        out = F.batch_norm2d(Tensor(x), gamma, beta, rm, rv, training=True)
        np.testing.assert_allclose(out.data.mean(axis=(0, 2, 3)),
                                   np.zeros(4), atol=1e-10)
        np.testing.assert_allclose(out.data.var(axis=(0, 2, 3)),
                                   np.ones(4), rtol=1e-3)

    def test_running_stats_updated(self):
        rng = np.random.default_rng(13)
        x = rng.normal(5.0, 1.0, size=(16, 2, 4, 4))
        gamma = Tensor(np.ones(2))
        beta = Tensor(np.zeros(2))
        rm, rv = np.zeros(2), np.ones(2)
        F.batch_norm2d(Tensor(x), gamma, beta, rm, rv, training=True,
                       momentum=1.0)
        np.testing.assert_allclose(rm, x.mean(axis=(0, 2, 3)), rtol=1e-10)

    def test_eval_uses_running_stats(self):
        x = np.full((2, 1, 2, 2), 10.0)
        gamma = Tensor(np.ones(1))
        beta = Tensor(np.zeros(1))
        rm, rv = np.array([10.0]), np.array([4.0])
        out = F.batch_norm2d(Tensor(x), gamma, beta, rm, rv, training=False)
        np.testing.assert_allclose(out.data, np.zeros_like(x), atol=1e-6)

    def test_input_gradient_training(self):
        rng = np.random.default_rng(14)
        x = rng.normal(size=(4, 2, 3, 3))
        gamma_arr = rng.normal(size=2) + 1.5
        beta_arr = rng.normal(size=2)
        xt = Tensor(x.copy(), requires_grad=True)
        gamma = Tensor(gamma_arr)
        beta = Tensor(beta_arr)
        rm, rv = np.zeros(2), np.ones(2)
        out = F.batch_norm2d(xt, gamma, beta, rm, rv, training=True)
        (out * out).sum().backward()

        def fn(a):
            mean = a.mean(axis=(0, 2, 3), keepdims=True)
            var = a.var(axis=(0, 2, 3), keepdims=True)
            xh = (a - mean) / np.sqrt(var + 1e-5)
            o = gamma_arr.reshape(1, -1, 1, 1) * xh + \
                beta_arr.reshape(1, -1, 1, 1)
            return float((o ** 2).sum())
        np.testing.assert_allclose(xt.grad, numeric_grad(fn, x.copy()),
                                   rtol=1e-4, atol=1e-6)

    def test_gamma_beta_gradients(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(3, 2, 2, 2))
        gamma = Tensor(np.ones(2), requires_grad=True)
        beta = Tensor(np.zeros(2), requires_grad=True)
        rm, rv = np.zeros(2), np.ones(2)
        out = F.batch_norm2d(Tensor(x), gamma, beta, rm, rv, training=True)
        out.sum().backward()
        np.testing.assert_allclose(beta.grad, np.full(2, 12.0))
        # gamma gradient = sum of normalized values = 0 per channel
        np.testing.assert_allclose(gamma.grad, np.zeros(2), atol=1e-10)

    @pytest.mark.parametrize("training", [False, True])
    def test_bit_identical_to_four_temporaries(self, training):
        rng = np.random.default_rng(17)
        x = rng.normal(1.0, 2.0, size=(6, 3, 5, 4))
        gamma_arr = rng.normal(size=3) + 1.0
        beta_arr = rng.normal(size=3)
        rm, rv = rng.normal(size=3), rng.random(3) + 0.5
        if training:
            mean, var = x.mean(axis=(0, 2, 3)), x.var(axis=(0, 2, 3))
        else:
            mean, var = rm.copy(), rv.copy()
        xt = Tensor(x, requires_grad=True)
        gamma = Tensor(gamma_arr, requires_grad=True)
        beta = Tensor(beta_arr, requires_grad=True)
        out = F.batch_norm2d(xt, gamma, beta, rm, rv, training=training)
        ref, x_hat, inv_std = reference_batch_norm2d(x, gamma_arr, beta_arr,
                                                     mean, var)
        np.testing.assert_array_equal(out.data, ref)

        grad = rng.normal(size=x.shape)
        out.backward(grad)
        g = gamma_arr.reshape(1, -1, 1, 1)
        if training:
            m = x.size // x.shape[1]
            grad_xhat = grad * g
            sum_g = grad_xhat.sum(axis=(0, 2, 3), keepdims=True)
            sum_gx = (grad_xhat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
            grad_x = (grad_xhat - sum_g / m - x_hat * sum_gx / m) * inv_std
        else:
            grad_x = grad * g * inv_std
        np.testing.assert_array_equal(xt.grad, grad_x)
        np.testing.assert_array_equal(gamma.grad,
                                      (grad * x_hat).sum(axis=(0, 2, 3)))
        np.testing.assert_array_equal(beta.grad, grad.sum(axis=(0, 2, 3)))
