"""Batch iteration and preprocessing utilities."""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

__all__ = ["iterate_batches", "normalize_images", "one_hot"]


def _check_nchw(images: np.ndarray, where: str) -> np.ndarray:
    """Validate an NCHW image batch; returns it as an ndarray.

    Rejecting wrong ranks/dtypes here turns silent broadcasting bugs
    (e.g. a CHW single image, or an ``(n, F)`` feature matrix passed where
    images are expected) into actionable errors.
    """
    images = np.asarray(images)
    if images.ndim != 4:
        raise ValueError(
            f"{where}: images must be a 4-D NCHW array, got "
            f"{images.ndim}-D with shape {images.shape}")
    if images.dtype.kind not in "fiu":
        raise ValueError(
            f"{where}: images must have a numeric dtype, got "
            f"{images.dtype}")
    return images


def _check_labels(labels: np.ndarray, where: str) -> np.ndarray:
    """Validate a 1-D label vector; returns it as an ndarray."""
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ValueError(
            f"{where}: labels must be a 1-D array, got "
            f"{labels.ndim}-D with shape {labels.shape}")
    if labels.dtype.kind not in "fiu":
        raise ValueError(
            f"{where}: labels must have a numeric dtype, got "
            f"{labels.dtype}")
    return labels


def normalize_images(images: np.ndarray,
                     mean: Optional[np.ndarray] = None,
                     std: Optional[np.ndarray] = None
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-channel standardization of NCHW images.

    When ``mean``/``std`` are omitted they are computed from ``images``
    (use the training-set statistics for the test set).  Non-4D inputs
    are rejected with a descriptive ``ValueError`` — a CHW single image
    or a flattened feature matrix would otherwise standardize along the
    wrong axes without any error.
    """
    images = _check_nchw(images, "normalize_images")
    channels = images.shape[1]
    if mean is None:
        mean = images.mean(axis=(0, 2, 3))
    if std is None:
        std = images.std(axis=(0, 2, 3))
    mean = np.asarray(mean, dtype=np.float64)
    std = np.asarray(std, dtype=np.float64)
    if mean.shape != (channels,) or std.shape != (channels,):
        raise ValueError(
            f"normalize_images: mean/std must have shape ({channels},) to "
            f"match the image channels, got {mean.shape} and {std.shape}")
    std = np.where(std < 1e-8, 1.0, std)
    normalized = (images - mean.reshape(1, -1, 1, 1)) / std.reshape(1, -1, 1, 1)
    return normalized, mean, std


def iterate_batches(x: np.ndarray, y: np.ndarray, batch_size: int,
                    rng: Optional[np.random.Generator] = None,
                    shuffle: bool = True
                    ) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(x_batch, y_batch)`` minibatches, optionally shuffled.

    ``x`` may be NCHW images or an ``(n, F)`` feature matrix; a 3-D input
    (a single CHW image with the batch axis missing) and non-1-D labels
    are rejected with descriptive errors rather than silently broadcast.
    """
    x = np.asarray(x)
    y = _check_labels(y, "iterate_batches")
    if x.ndim == 0:
        raise ValueError("iterate_batches: x must be a batched array, "
                         "got a scalar")
    if x.ndim == 3:
        raise ValueError(
            f"iterate_batches: x has shape {x.shape} — a 3-D array is "
            "almost certainly a single CHW image missing its batch axis; "
            "pass a 4-D NCHW batch (use images[None] for one image)")
    if x.ndim == 4:
        _check_nchw(x, "iterate_batches")
    if len(x) != len(y):
        raise ValueError(
            f"x and y must have the same length, got {len(x)} and {len(y)}")
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    indices = np.arange(len(x))
    if shuffle:
        (rng or np.random.default_rng()).shuffle(indices)
    for start in range(0, len(x), batch_size):
        batch = indices[start:start + batch_size]
        yield x[batch], y[batch]


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Integer labels to one-hot rows (float64)."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError("labels out of range for num_classes")
    return np.eye(num_classes)[labels]
