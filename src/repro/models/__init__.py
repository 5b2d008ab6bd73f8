"""Layer-indexed CNN zoo, feature extractors and teachers.

Scaled-down but architecturally faithful versions of the paper's four
feature-extractor CNNs (VGG16, MobileNetV2, EfficientNet-B0/B7) with the
same layer-index semantics, plus the frozen extractor/teacher wrappers and
the in-repo pretraining loop.
"""

from .base import IndexedCNN, scale_channels
from .blocks import ConvBNAct, InvertedResidual, SqueezeExcite
from .efficientnet import EfficientNet, EfficientNetB0, EfficientNetB7
from .extractor import FeatureExtractor, TeacherModel, soften_logits
from .mobilenet import MobileNetV2
from .registry import (MODEL_REGISTRY, create_model, load_trunk,
                       paper_cut_layers)
from .trainer import cached_model, default_cache_dir, train_cnn
from .vgg import VGG16

__all__ = [
    "IndexedCNN", "scale_channels",
    "ConvBNAct", "SqueezeExcite", "InvertedResidual",
    "VGG16", "MobileNetV2", "EfficientNet", "EfficientNetB0",
    "EfficientNetB7",
    "MODEL_REGISTRY", "create_model", "load_trunk", "paper_cut_layers",
    "FeatureExtractor", "TeacherModel", "soften_logits",
    "train_cnn", "cached_model", "default_cache_dir",
]
