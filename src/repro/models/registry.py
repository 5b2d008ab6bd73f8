"""Model factory mirroring the paper's four feature-extractor CNNs."""

from __future__ import annotations

from typing import Dict, Optional, Type

import numpy as np

from .. import nn
from ..nn.init import UNFILLED
from .base import IndexedCNN
from .efficientnet import EfficientNetB0, EfficientNetB7
from .mobilenet import MobileNetV2
from .vgg import VGG16

__all__ = ["MODEL_REGISTRY", "create_model", "load_trunk",
           "paper_cut_layers"]

MODEL_REGISTRY: Dict[str, Type[IndexedCNN]] = {
    "vgg16": VGG16,
    "mobilenetv2": MobileNetV2,
    "efficientnet_b0": EfficientNetB0,
    "efficientnet_b7": EfficientNetB7,
}


def create_model(name: str, num_classes: int = 10, width_mult: float = 1.0,
                 image_size: int = 32, seed: Optional[int] = None
                 ) -> IndexedCNN:
    """Instantiate a model by registry name with a deterministic seed."""
    if name not in MODEL_REGISTRY:
        raise ValueError(
            f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}")
    rng = np.random.default_rng(seed)
    return MODEL_REGISTRY[name](num_classes=num_classes,
                                width_mult=width_mult,
                                image_size=image_size, rng=rng)


def load_trunk(name: str, layer_index: int, state: Dict[str, np.ndarray],
               num_classes: int = 10, width_mult: float = 1.0,
               image_size: int = 32) -> IndexedCNN:
    """A frozen model of only the layers ``0..layer_index``, filled from
    ``state``: their ``state_dict``, keyed relative to ``features``.

    This is all a feature extractor cut at ``layer_index`` runs.  The
    layers are built unfilled (:data:`~repro.nn.init.UNFILLED`), so no
    random number is drawn, and ``state`` fills them; the layers after
    the cut and the classifier are dropped.  Returns the model in eval
    mode.
    """
    if name not in MODEL_REGISTRY:
        raise ValueError(
            f"unknown model {name!r}; available: {sorted(MODEL_REGISTRY)}")
    model = MODEL_REGISTRY[name](num_classes=num_classes,
                                width_mult=width_mult,
                                image_size=image_size, rng=UNFILLED)
    last = model.num_feature_layers() - 1
    if not 0 <= layer_index <= last:
        raise ValueError(f"layer_index {layer_index} out of range "
                         f"[0, {last}] for {model.name}")
    model.features = model.features[:layer_index + 1]
    model.classifier = nn.Sequential()
    model.features.load_state_dict(state)
    return model.eval()


def paper_cut_layers(name: str) -> tuple:
    """The feature-extraction layer indices the paper evaluates per model."""
    if name not in MODEL_REGISTRY:
        raise ValueError(f"unknown model {name!r}")
    return MODEL_REGISTRY[name].paper_layers
