"""Base class for layer-indexed CNNs.

The paper labels each CNN's layers by index (Sec. VII-A): EfficientNet by
block, MobileNetV2 by operator, VGG16 by each convolution / pooling /
activation layer.  :class:`IndexedCNN` exposes that indexing so a feature
extractor can be cut at any index, exactly as NSHD does.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from .. import nn
from ..nn import Tensor

__all__ = ["IndexedCNN", "scale_channels"]


def scale_channels(channels: int, width_mult: float, minimum: int = 4,
                   divisor: int = 4) -> int:
    """Scale a channel count by ``width_mult``, rounded to ``divisor``.

    Mirrors the channel-rounding rule of the MobileNet/EfficientNet papers
    so scaled-down variants keep hardware-friendly channel counts.
    """
    scaled = max(minimum, int(channels * width_mult + divisor / 2)
                 // divisor * divisor)
    return scaled


class IndexedCNN(nn.Module):
    """A CNN whose feature trunk is an indexed sequence of stages.

    Subclasses populate ``self.features`` (an ``nn.Sequential`` whose i-th
    entry is "layer i" in the paper's labeling) and ``self.classifier``
    (everything after the trunk, ending in class logits).  ``self.head``
    optionally holds pooling/flatten glue between trunk and classifier.
    """

    name = "indexed-cnn"

    def __init__(self, num_classes: int, image_size: int = 32):
        super().__init__()
        self.num_classes = num_classes
        self.image_size = image_size
        self.features = nn.Sequential()
        self.head = nn.Sequential(nn.AdaptiveAvgPool2d(1), nn.Flatten())
        self.classifier = nn.Sequential()
        self._feature_shapes: Dict[int, Tuple[int, int, int]] = {}

    # ------------------------------------------------------------------
    def num_feature_layers(self) -> int:
        """Number of indexable feature layers (valid cut points)."""
        return len(self.features)

    def layer_indices(self) -> List[int]:
        return list(range(self.num_feature_layers()))

    def features_at(self, x: Tensor, layer_index: int) -> Tensor:
        """Run the trunk up to and including ``layer_index``.

        This is the paper's truncation: "we take an intermediate layer …
        and remove all subsequent layers" (Sec. IV-A).
        """
        last = self.num_feature_layers() - 1
        if not 0 <= layer_index <= last:
            raise ValueError(
                f"layer_index {layer_index} out of range [0, {last}]")
        for layer in self.features[:layer_index + 1]:
            x = layer(x)
        return x

    def features_at_multi(self, x: Tensor, layer_indices) -> dict:
        """Trunk outputs at several cut points from a single forward pass.

        Returns ``{layer_index: Tensor}``; far cheaper than repeated
        :meth:`features_at` calls when extracting features for several
        candidate layers of the same model.
        """
        wanted = set(layer_indices)
        last = self.num_feature_layers() - 1
        for layer in wanted:
            if not 0 <= layer <= last:
                raise ValueError(
                    f"layer_index {layer} out of range [0, {last}]")
        outputs = {}
        for index, layer in enumerate(self.features[:max(wanted) + 1]):
            x = layer(x)
            if index in wanted:
                outputs[index] = x
        return outputs

    def feature_shape(self, layer_index: int) -> Tuple[int, int, int]:
        """(C, H, W) of the trunk output at ``layer_index`` (dry run,
        once per model and index)."""
        if layer_index not in self._feature_shapes:
            was_training = self.training
            self.eval()
            with nn.no_grad():
                dummy = Tensor(np.zeros((1, 3, self.image_size,
                                         self.image_size)))
                out = self.features_at(dummy, layer_index)
            self.train(was_training)
            self._feature_shapes[layer_index] = tuple(out.shape[1:])
        return self._feature_shapes[layer_index]

    def feature_count(self, layer_index: int) -> int:
        """Flattened feature count F at ``layer_index`` (paper Sec. IV-B)."""
        return int(np.prod(self.feature_shape(layer_index)))

    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        return self.forward_from(x, -1)

    def forward_from(self, x: Tensor, layer_index: int) -> Tensor:
        """Finish the forward pass from the trunk output at ``layer_index``.

        Runs ``features[layer_index + 1:]``, then ``head`` and
        ``classifier``; ``layer_index = -1`` starts from the image.
        """
        for layer in self.features[layer_index + 1:]:
            x = layer(x)
        return self.classifier(self.head(x))

    def logits(self, x: np.ndarray, batch_size: int = 64,
               after: int = -1) -> np.ndarray:
        """Inference logits (no tape).

        ``x`` is an NCHW batch of images, or with ``after >= 0`` the flat
        ``(n, F)`` trunk outputs of layer ``after`` (what
        :meth:`FeatureExtractor.extract` returns), in which case only the
        layers after the cut run.
        """
        shape = self.feature_shape(after) if after != -1 else None
        was_training = self.training
        self.eval()
        outputs = []
        with nn.no_grad():
            for start in range(0, len(x), batch_size):
                chunk = x[start:start + batch_size]
                if shape is not None:
                    chunk = chunk.reshape((len(chunk),) + shape)
                outputs.append(self.forward_from(Tensor(chunk), after).data)
        self.train(was_training)
        return np.concatenate(outputs, axis=0)

    def predict(self, x: np.ndarray, batch_size: int = 64) -> np.ndarray:
        """Class predictions for an NCHW numpy batch."""
        return self.logits(x, batch_size).argmax(axis=1)

    def accuracy(self, x: np.ndarray, y: np.ndarray,
                 batch_size: int = 64) -> float:
        """Top-1 accuracy on numpy data."""
        return float((self.predict(x, batch_size) == np.asarray(y)).mean())
