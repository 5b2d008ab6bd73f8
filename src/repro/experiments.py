"""Shared experiment configuration for benchmarks and examples.

The paper's evaluation (Sec. VII) fixes one setup — four pretrained CNNs,
CIFAR-10/100, D=3,000, F̂=100 — and varies one axis per table/figure.
This module pins the reproduction's equivalent setup in one place so every
benchmark regenerates its table from the *same* teachers and datasets, and
so the expensive CNN pretraining is cached and shared.

Scale notes (see DESIGN.md §1): CIFAR-10 maps to the 10-class synthetic
benchmark ``S10``; CIFAR-100 maps to the 25-class ``S25`` (same generator,
more classes ⇒ harder, preserving the 10-vs-100 difficulty axis at CPU
scale).  Hypervector dimension keeps the paper's D=3,000 default.  F̂
scales from the paper's 100 (for 25k-feature extractors) to 64 for our
scaled extractors — still ≥ the class count, which is the paper's stated
requirement for F̂.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .data import make_dataset, normalize_images
from .models import cached_model
from .models.base import IndexedCNN

__all__ = [
    "DatasetConfig", "DATASETS", "TEACHER_EPOCHS", "MODEL_WIDTHS",
    "MODEL_NAMES", "HD_DIM", "REDUCED_FEATURES", "load_dataset",
    "get_teacher",
]

MODEL_NAMES = ("vgg16", "mobilenetv2", "efficientnet_b0", "efficientnet_b7")

#: Hypervector dimension used throughout (paper Sec. VII-A).
HD_DIM = 3000

#: Manifold output size F̂ (paper uses 100; scaled with our extractors).
REDUCED_FEATURES = 64

#: Width multiplier per model; VGG affords more width because its plain
#: conv stacks run far faster in this numpy substrate.
MODEL_WIDTHS: Dict[str, float] = {
    "vgg16": 0.25,
    "mobilenetv2": 0.2,
    "efficientnet_b0": 0.25,
    "efficientnet_b7": 0.125,
}

#: Pretraining epochs per model (deeper models get fewer epochs to keep
#: the one-time cached pretraining inside the CPU budget).
TEACHER_EPOCHS: Dict[str, int] = {
    "vgg16": 20,
    "mobilenetv2": 8,
    "efficientnet_b0": 10,
    "efficientnet_b7": 6,
}

#: Per-(model, dataset) overrides; the many-class dataset has 1.5x the
#: training samples per epoch, so fewer epochs reach a comparable budget.
TEACHER_EPOCH_OVERRIDES: Dict[Tuple[str, str], int] = {
    ("vgg16", "s25"): 22,
}


@dataclass(frozen=True)
class DatasetConfig:
    """One evaluation dataset (a CIFAR stand-in)."""

    tag: str
    num_classes: int
    num_train: int
    num_test: int
    seed: int = 7


#: ``s10`` stands in for CIFAR-10, ``s25`` for CIFAR-100 (see module doc).
DATASETS: Dict[str, DatasetConfig] = {
    "s10": DatasetConfig(tag="s10", num_classes=10, num_train=1000,
                         num_test=300),
    "s25": DatasetConfig(tag="s25", num_classes=25, num_train=1500,
                         num_test=375),
}

_dataset_cache: Dict[str, tuple] = {}


def load_dataset(key: str) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                    np.ndarray]:
    """Normalized ``(x_train, y_train, x_test, y_test)`` for a config key.

    Images are standardized with the training-set channel statistics; the
    result is cached in memory for the process lifetime.
    """
    if key not in DATASETS:
        raise ValueError(f"unknown dataset {key!r}; options: "
                         f"{sorted(DATASETS)}")
    if key not in _dataset_cache:
        cfg = DATASETS[key]
        x_tr, y_tr, x_te, y_te = make_dataset(
            num_classes=cfg.num_classes, num_train=cfg.num_train,
            num_test=cfg.num_test, seed=cfg.seed)
        x_tr, mean, std = normalize_images(x_tr)
        x_te, _, _ = normalize_images(x_te, mean, std)
        _dataset_cache[key] = (x_tr, y_tr, x_te, y_te)
    return _dataset_cache[key]


def get_teacher(model_name: str, dataset_key: str = "s10",
                verbose: bool = False) -> IndexedCNN:
    """Pretrained (cached) CNN for ``model_name`` on a dataset config."""
    x_tr, y_tr, _, _ = load_dataset(dataset_key)
    cfg = DATASETS[dataset_key]
    epochs = TEACHER_EPOCH_OVERRIDES.get(
        (model_name, dataset_key), TEACHER_EPOCHS[model_name])
    return cached_model(
        model_name, x_tr, y_tr, num_classes=cfg.num_classes,
        width_mult=MODEL_WIDTHS[model_name],
        epochs=epochs, batch_size=64, lr=2e-3,
        seed=cfg.seed, dataset_tag=cfg.tag, verbose=verbose)


def _feature_cache_path(model_name: str, dataset_key: str) -> str:
    from .models import default_cache_dir
    return os.path.join(default_cache_dir(),
                        f"features-{model_name}-{dataset_key}.npz")


def cached_features(model_name: str, dataset_key: str,
                    layers: Tuple[int, ...]) -> Dict:
    """Extractor features (per cut layer) + teacher logits, disk-cached.

    One frozen forward pass per split covers every requested layer
    (:meth:`IndexedCNN.features_at_multi`), and the result is stored under
    ``.cache/`` so the many benchmarks sharing a (model, dataset) pair pay
    the CNN cost exactly once.

    Returns ``{"train": {layer: (n,F)}, "test": {layer: (n,F)},
    "train_logits": (n,k), "test_logits": (n,k)}``.
    """
    from . import nn as _nn
    from .nn import Tensor

    layers = tuple(sorted(set(int(layer) for layer in layers)))
    path = _feature_cache_path(model_name, dataset_key)
    x_tr, y_tr, x_te, y_te = load_dataset(dataset_key)

    stored: Dict[str, np.ndarray] = {}
    if os.path.exists(path):
        with np.load(path) as archive:
            stored = {name: archive[name] for name in archive.files}

    needed = [layer for layer in layers
              if f"train_{layer}" not in stored]
    if needed or "train_logits" not in stored:
        model = get_teacher(model_name, dataset_key)
        model.eval()
        deepest = layers[-1]
        for split, images in (("train", x_tr), ("test", x_te)):
            feats = {layer: [] for layer in layers}
            logits = []
            with _nn.no_grad():
                for start in range(0, len(images), 64):
                    x = Tensor(images[start:start + 64])
                    # One trunk pass serves every cut layer AND the
                    # teacher logits (continue from the deepest cut).
                    outs = model.features_at_multi(x, layers)
                    for layer in layers:
                        out = outs[layer]
                        feats[layer].append(
                            out.data.reshape(out.shape[0], -1))
                    logits.append(
                        model.forward_from(outs[deepest], deepest).data)
            for layer in layers:
                stored[f"{split}_{layer}"] = np.concatenate(feats[layer])
            stored[f"{split}_logits"] = np.concatenate(logits)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, **stored)

    return {
        "train": {layer: stored[f"train_{layer}"] for layer in layers},
        "test": {layer: stored[f"test_{layer}"] for layer in layers},
        "train_logits": stored["train_logits"],
        "test_logits": stored["test_logits"],
        "labels": (y_tr, y_te),
    }
