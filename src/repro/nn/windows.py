"""Window arithmetic on plain numpy arrays, shared by training and serving.

:mod:`repro.nn.functional` builds its differentiable pooling on these;
the serving stages call them directly, so a serving process does not
import the autograd :class:`~repro.nn.tensor.Tensor`.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = ["conv_output_size", "strided_max_pool"]


def conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    """Spatial output size of a convolution/pooling window."""
    return (size + 2 * padding - kernel) // stride + 1


def strided_max_pool(x: np.ndarray, kernel: int = 2,
                     stride: Optional[int] = None) -> np.ndarray:
    """Unpadded max-pool of an ``(n, c, h, w)`` array.

    The elementwise max of the ``kernel²`` strided phase views: the same
    values as the max over each im2col window, NaN included, without
    materializing the windows.  Windows that do not fit are dropped, so
    the default 2×2 / stride-2 pool crops odd H/W to even.
    """
    stride = kernel if stride is None else stride
    out_h = conv_output_size(x.shape[2], kernel, stride, 0)
    out_w = conv_output_size(x.shape[3], kernel, stride, 0)
    views = [x[:, :, i:i + stride * out_h:stride, j:j + stride * out_w:stride]
             for i in range(kernel) for j in range(kernel)]
    out = views[0].copy()
    for view in views[1:]:
        np.maximum(out, view, out=out)
    return out
