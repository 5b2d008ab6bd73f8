"""Feature extractor (truncated CNN) and teacher (uncut CNN) wrappers.

NSHD's symbolization uses the *frozen* pretrained CNN in two roles
(Sec. III–V):

* the truncated trunk up to a chosen layer index extracts features that
  feed the manifold learner and the HD encoder;
* the *uncut* model acts as the knowledge-distillation teacher whose
  softened logits drive Algorithm 1.

Training runs the trunk once per image: the teacher continues from the
cut-layer features the extractor already produced
(``TeacherModel.logits(features, after=layer_index)``), so layers
0..layer_index are never evaluated twice.  Both roles share the same
weights; neither is ever updated by NSHD training ("NSHD uses the
weights pretrained in the original CNN model without any modification",
Sec. VI-A).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .. import nn
from ..nn import Tensor
from .base import IndexedCNN

__all__ = ["FeatureExtractor", "TeacherModel"]


class FeatureExtractor:
    """Frozen truncated CNN producing flattened feature vectors."""

    def __init__(self, model: IndexedCNN, layer_index: int):
        last = model.num_feature_layers() - 1
        if not 0 <= layer_index <= last:
            raise ValueError(
                f"layer_index {layer_index} out of range [0, {last}] for "
                f"{model.name}")
        self.model = model
        self.layer_index = layer_index
        self.feature_shape = model.feature_shape(layer_index)
        self.num_features = model.feature_count(layer_index)

    def extract(self, images: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Extract flattened ``(n, F)`` features for an NCHW numpy batch.

        Runs in eval mode under ``no_grad``: the extractor is frozen, so
        the autograd tape is never built through it.
        """
        was_training = self.model.training
        self.model.eval()
        chunks = []
        with nn.no_grad():
            for start in range(0, len(images), batch_size):
                x = Tensor(images[start:start + batch_size])
                out = self.model.features_at(x, self.layer_index)
                chunks.append(out.data.reshape(out.shape[0], -1))
        self.model.train(was_training)
        return np.concatenate(chunks, axis=0)

    def __repr__(self) -> str:
        return (f"FeatureExtractor({self.model.name}@layer{self.layer_index}, "
                f"F={self.num_features})")


class TeacherModel:
    """Frozen uncut CNN providing distillation targets."""

    def __init__(self, model: IndexedCNN):
        self.model = model
        self.num_classes = model.num_classes

    def logits(self, images: np.ndarray, batch_size: int = 64,
               after: int = -1) -> np.ndarray:
        """Teacher logits; see :meth:`IndexedCNN.logits` for ``after``."""
        return self.model.logits(images, batch_size, after=after)

    def soft_labels(self, images: np.ndarray, temperature: float = 1.0,
                    batch_size: int = 64) -> np.ndarray:
        """Temperature-softened softmax of the teacher logits (Alg. 1 l.5)."""
        return soften_logits(self.logits(images, batch_size), temperature)

    def accuracy(self, images: np.ndarray, labels: np.ndarray,
                 batch_size: int = 64) -> float:
        return self.model.accuracy(images, labels, batch_size)


def soften_logits(logits: np.ndarray, temperature: float) -> np.ndarray:
    """Numerically stable ``softmax(logits / temperature)``."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    scaled = np.asarray(logits, dtype=np.float64) / temperature
    scaled = scaled - scaled.max(axis=-1, keepdims=True)
    probs = np.exp(scaled)
    return probs / probs.sum(axis=-1, keepdims=True)
