"""Differentiable neural-network operations (conv, pool, losses).

All functions take and return :class:`repro.nn.tensor.Tensor` values and
participate in the autograd tape.  Convolution is an im2col lowering
followed by ``np.matmul``: one BLAS GEMM per image and group, in the
forward and in both backward products.  That is the lowering most
deep-learning frameworks (and the DPU cost model in ``repro.hardware``)
assume.  Max pooling takes the elementwise max of strided views
(:func:`~repro.nn.windows.strided_max_pool`, shared with the serving
stages); only its backward builds the im2col windows to find each
window's first maximum.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from .tensor import Tensor
from .windows import conv_output_size, strided_max_pool

__all__ = [
    "im2col_indices", "conv2d", "max_pool2d", "avg_pool2d",
    "adaptive_avg_pool2d", "linear", "relu", "relu6", "silu", "sigmoid",
    "softmax", "log_softmax", "cross_entropy", "kl_div_with_logits",
    "dropout", "batch_norm2d", "conv_output_size", "strided_max_pool",
]


#: Largest im2col column buffer (bytes) a :func:`conv2d` forward lowers
#: at once.
_COLS_BYTES = 4 << 20


def im2col_indices(x: np.ndarray, kernel: int, stride: int,
                   padding: int, out: Optional[np.ndarray] = None
                   ) -> Tuple[np.ndarray, int, int]:
    """Lower an NCHW array into column form for GEMM convolution.

    Returns ``(cols, out_h, out_w)`` where ``cols`` has shape
    ``(N, C * kernel * kernel, out_h * out_w)``: a new array, or a view
    of the leading elements of the flat buffer ``out``.
    """
    n, c, h, w = x.shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    if padding > 0:
        x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))

    # Gather all kernel-window views with stride tricks, then reorder.
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    cols = windows.transpose(0, 1, 4, 5, 2, 3)
    shape = (n, c * kernel * kernel, out_h * out_w)
    if out is None:
        return np.ascontiguousarray(cols.reshape(shape)), out_h, out_w
    dest = out[:cols.size].reshape(cols.shape)
    np.copyto(dest, cols)
    return dest.reshape(shape), out_h, out_w


def _col2im(cols: np.ndarray, x_shape: Tuple[int, int, int, int],
            kernel: int, stride: int, padding: int) -> np.ndarray:
    """Adjoint of :func:`im2col_indices` (scatter-add back to NCHW)."""
    n, c, h, w = x_shape
    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    hp, wp = h + 2 * padding, w + 2 * padding
    x_padded = np.zeros((n, c, hp, wp), dtype=cols.dtype)
    cols6 = cols.reshape(n, c, kernel, kernel, out_h, out_w)
    for ki in range(kernel):
        for kj in range(kernel):
            x_padded[:, :, ki:ki + stride * out_h:stride,
                     kj:kj + stride * out_w:stride] += cols6[:, :, ki, kj]
    if padding > 0:
        return x_padded[:, :, padding:-padding, padding:-padding]
    return x_padded


def conv2d(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None,
           stride: int = 1, padding: int = 0, groups: int = 1) -> Tensor:
    """2-D convolution over an NCHW tensor.

    ``weight`` has shape ``(out_channels, in_channels // groups, k, k)``.
    ``groups == in_channels`` gives a depthwise convolution, used by the
    MobileNetV2/EfficientNet-style extractors.
    """
    n, c, h, w = x.shape
    out_c, group_in, kernel, kernel2 = weight.shape
    if kernel != kernel2:
        raise ValueError("only square kernels are supported")
    if c % groups or out_c % groups:
        raise ValueError(
            f"channels ({c} in / {out_c} out) not divisible by groups={groups}")
    if group_in != c // groups:
        raise ValueError(
            f"weight expects {group_in} input channels per group, input "
            f"provides {c // groups}")

    out_h = conv_output_size(h, kernel, stride, padding)
    out_w = conv_output_size(w, kernel, stride, padding)
    group_out = out_c // groups
    ck2 = group_in * kernel * kernel
    hw = out_h * out_w
    w_mat = weight.data.reshape(groups, group_out, ck2)
    out = np.empty((n, groups, group_out, hw),
                   dtype=np.result_type(w_mat, x.data))
    # Lower a chunk of images at a time into one cache-sized column
    # buffer; each image keeps the same GEMM, so the result does not
    # depend on the chunking.
    image_cols = c * kernel * kernel * hw
    chunk = max(1, min(n, _COLS_BYTES // (image_cols * x.data.itemsize)))
    buffer = np.empty(chunk * image_cols, dtype=x.data.dtype)
    for start in range(0, n, chunk):
        cols, _, _ = im2col_indices(x.data[start:start + chunk], kernel,
                                    stride, padding, out=buffer)
        # (g, go, ck2) @ (m, g, ck2, hw): one BLAS GEMM per image and group.
        np.matmul(w_mat, cols.reshape(-1, groups, ck2, hw),
                  out=out[start:start + chunk])
    out = out.reshape(n, out_c, out_h, out_w)
    if bias is not None:
        out += bias.data.reshape(1, out_c, 1, 1)

    parents = [x, weight] + ([bias] if bias is not None else [])
    x_data = x.data  # retained for the backward; cols are recomputed there

    def backward(grad: np.ndarray) -> None:
        grad_g = grad.reshape(n, groups, group_out, hw)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad.sum(axis=(0, 2, 3)))
        if weight.requires_grad:
            # Recompute the im2col lowering instead of keeping it alive for
            # the whole forward pass: the column buffer is kernel^2 times
            # the activation size, and deep models would otherwise hold
            # one per conv layer simultaneously.
            re_cols, _, _ = im2col_indices(x_data, kernel, stride, padding)
            re_cols = re_cols.reshape(n, groups, ck2, hw)
            # (n, g, go, hw) @ (n, g, hw, ck2), summed over the images
            grad_w = np.matmul(grad_g, re_cols.swapaxes(2, 3)).sum(axis=0)
            weight._accumulate(grad_w.reshape(weight.shape))
        if x.requires_grad:
            # (g, ck2, go) @ (n, g, go, hw) -> (n, g, ck2, hw)
            grad_cols = np.matmul(w_mat.swapaxes(1, 2), grad_g)
            grad_cols = grad_cols.reshape(n, groups * ck2, hw)
            x._accumulate(_col2im(grad_cols, x.shape, kernel, stride, padding))

    return Tensor._make(out, parents, backward)


def max_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None,
               padding: int = 0) -> Tensor:
    """Max pooling over an NCHW tensor; padding is ``-inf``, as in PyTorch."""
    stride = kernel if stride is None else stride
    n, c, h, w = x.shape
    pad = ((0, 0), (0, 0), (padding, padding), (padding, padding))
    x_pad = np.pad(x.data, pad, constant_values=-np.inf) if padding else x.data
    out = strided_max_pool(x_pad, kernel, stride)

    def backward(grad: np.ndarray) -> None:
        # Only the backward builds the windows: each window's gradient
        # goes to its first maximum.
        flat_shape = (n * c, 1) + x_pad.shape[2:]
        cols, _, _ = im2col_indices(x_pad.reshape(flat_shape), kernel,
                                    stride, 0)
        grad_cols = np.zeros(cols.shape)
        np.put_along_axis(grad_cols, cols.argmax(axis=1)[:, None],
                          grad.reshape(n * c, 1, -1), axis=1)
        grad_x = _col2im(grad_cols, flat_shape, kernel, stride, 0)
        x._accumulate(grad_x[:, :, padding:padding + h,
                             padding:padding + w].reshape(x.shape))

    return Tensor._make(out, (x,), backward)


def avg_pool2d(x: Tensor, kernel: int = 2, stride: Optional[int] = None,
               padding: int = 0) -> Tensor:
    """Average pooling over an NCHW tensor."""
    stride = kernel if stride is None else stride
    n, c, h, w = x.shape
    cols, out_h, out_w = im2col_indices(
        x.data.reshape(n * c, 1, h, w), kernel, stride, padding)
    out = cols.mean(axis=1).reshape(n, c, out_h, out_w)
    cols_shape = cols.shape
    del cols  # the backward only needs the column-buffer shape

    def backward(grad: np.ndarray) -> None:
        grad_flat = grad.reshape(n * c, 1, out_h * out_w)
        grad_cols = np.broadcast_to(grad_flat / (kernel * kernel),
                                    cols_shape).copy()
        grad_x = _col2im(grad_cols, (n * c, 1, h, w), kernel, stride, padding)
        x._accumulate(grad_x.reshape(x.shape))

    return Tensor._make(out, (x,), backward)


def adaptive_avg_pool2d(x: Tensor, output_size: int = 1) -> Tensor:
    """Adaptive average pooling (only ``output_size == 1`` is needed)."""
    if output_size != 1:
        raise NotImplementedError("only global average pooling is supported")
    n, c, h, w = x.shape
    # Sum in C order whatever the layout, so the mean does not depend on
    # how x was produced.
    out = np.ascontiguousarray(x.data).mean(axis=(2, 3), keepdims=True)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(np.broadcast_to(grad / (h * w), x.shape))

    return Tensor._make(out, (x,), backward)


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (weight: out_features × in_features)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def relu(x: Tensor) -> Tensor:
    return x.relu()


def relu6(x: Tensor) -> Tensor:
    """ReLU capped at 6, as used by MobileNetV2."""
    return x.clamp(0.0, 6.0)


def silu(x: Tensor) -> Tensor:
    """SiLU / swish activation, as used by EfficientNet."""
    return x * x.sigmoid()


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return log_softmax(x, axis=axis).exp()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean cross-entropy between logits and integer class labels."""
    labels = np.asarray(labels)
    log_probs = log_softmax(logits, axis=-1)
    picked = log_probs[np.arange(len(labels)), labels]
    return -picked.mean()


def kl_div_with_logits(student_logits: Tensor, teacher_logits: np.ndarray,
                       temperature: float = 1.0) -> Tensor:
    """Hinton-style distillation loss ``T^2 * KL(teacher || student)``.

    Used as a reference implementation when validating the HD distillation
    update rule against a gradient-based student.
    """
    teacher = np.asarray(teacher_logits, dtype=np.float64) / temperature
    teacher = teacher - teacher.max(axis=-1, keepdims=True)
    teacher_probs = np.exp(teacher)
    teacher_probs /= teacher_probs.sum(axis=-1, keepdims=True)
    student_log_probs = log_softmax(student_logits * (1.0 / temperature),
                                    axis=-1)
    loss = -(Tensor(teacher_probs) * student_log_probs).sum(axis=-1).mean()
    return loss * (temperature ** 2)


def dropout(x: Tensor, p: float, training: bool,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout; identity when not training or ``p == 0``."""
    if not training or p <= 0.0:
        return x
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.shape) >= p) / (1.0 - p)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * mask)

    return Tensor._make(x.data * mask, (x,), backward)


def batch_norm2d(x: Tensor, gamma: Tensor, beta: Tensor,
                 running_mean: np.ndarray, running_var: np.ndarray,
                 training: bool, momentum: float = 0.1,
                 eps: float = 1e-5) -> Tensor:
    """Batch normalization over the channel axis of an NCHW tensor.

    ``running_mean`` / ``running_var`` are updated in place during training,
    mirroring PyTorch semantics.
    """
    if training:
        mean = x.data.mean(axis=(0, 2, 3))
        var = x.data.var(axis=(0, 2, 3))
        running_mean *= (1.0 - momentum)
        running_mean += momentum * mean
        running_var *= (1.0 - momentum)
        running_var += momentum * var
    else:
        mean = running_mean
        var = running_var

    inv_std = 1.0 / np.sqrt(var.reshape(1, -1, 1, 1) + eps)
    # In place, in the order of (x - mean) * inv_std and gamma * x_hat + beta.
    x_hat = np.subtract(x.data, mean.reshape(1, -1, 1, 1))
    x_hat *= inv_std
    out = np.multiply(gamma.data.reshape(1, -1, 1, 1), x_hat)
    out += beta.data.reshape(1, -1, 1, 1)

    n, c, h, w = x.shape
    m = n * h * w

    def backward(grad: np.ndarray) -> None:
        g = gamma.data.reshape(1, -1, 1, 1)
        if beta.requires_grad:
            beta._accumulate(grad.sum(axis=(0, 2, 3)))
        if gamma.requires_grad:
            gamma._accumulate((grad * x_hat).sum(axis=(0, 2, 3)))
        if x.requires_grad:
            if training:
                grad_xhat = grad * g
                sum_g = grad_xhat.sum(axis=(0, 2, 3), keepdims=True)
                sum_gx = (grad_xhat * x_hat).sum(axis=(0, 2, 3), keepdims=True)
                grad_x = (grad_xhat - sum_g / m - x_hat * sum_gx / m) * inv_std
            else:
                grad_x = grad * g * inv_std
            x._accumulate(grad_x)

    return Tensor._make(out, (x, gamma, beta), backward)
