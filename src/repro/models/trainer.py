"""Supervised CNN training — the in-repo "pretraining" stage.

The paper takes its feature extractors "off-the-shelf and pretrained"
(Sec. IV-A).  In this offline reproduction the pretraining happens here:
a plain supervised loop (cross-entropy, Adam, CIFAR-style
augmentation) over the synthetic dataset.  ``cached_model`` memoizes
trained weights on disk keyed by the full configuration so that the many
benchmarks sharing a teacher never retrain it.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from .. import nn
from ..data import augment_batch, iterate_batches
from ..nn import Tensor
from ..nn import functional as F
from ..telemetry import clock, span
from .base import IndexedCNN
from .registry import create_model

if TYPE_CHECKING:  # avoid an import cycle; the guard is duck-typed
    from ..reliability.guards import NumericsGuard

__all__ = ["train_cnn", "cached_model", "default_cache_dir"]


def default_cache_dir() -> str:
    """Directory for trained-weight caches (override with REPRO_CACHE)."""
    return os.environ.get(
        "REPRO_CACHE",
        os.path.join(os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.dirname(os.path.abspath(__file__))))), ".cache"))


def train_cnn(model: IndexedCNN, x_train: np.ndarray, y_train: np.ndarray,
              epochs: int = 10, batch_size: int = 32, lr: float = 1e-3,
              augment: bool = True, seed: int = 0, verbose: bool = False,
              guard: Optional["NumericsGuard"] = None
              ) -> Dict[str, List[float]]:
    """Train ``model`` in place with Adam; returns per-epoch loss history.

    Train accuracy is measured once, after the final epoch (full-dataset
    inference per epoch is a significant fraction of CPU training time).

    ``guard`` (a :class:`repro.reliability.NumericsGuard`) vets each
    batch *before* the forward pass — keeping NaN inputs away from the
    batch-norm running statistics — and the loss/gradients *after* the
    backward pass, skipping the optimizer step for poisoned batches.
    """
    rng = np.random.default_rng(seed)
    opt = nn.Adam(model.parameters(), lr=lr)
    schedule = nn.CosineLR(opt, total_epochs=epochs)

    history: Dict[str, List[float]] = {"loss": [], "train_acc": [],
                                       "epoch_time": []}
    for epoch in range(epochs):
        epoch_start = clock()
        model.train()
        losses = []
        with span("cnn.train_epoch", nbytes=int(x_train.nbytes)):
            for x_batch, y_batch in iterate_batches(x_train, y_train,
                                                    batch_size, rng=rng):
                if augment:
                    x_batch = augment_batch(x_batch, rng)
                if guard is not None and not guard.ok("cnn.batch", x_batch):
                    continue  # never let NaN inputs touch BN running stats
                opt.zero_grad()
                logits = model(Tensor(x_batch))
                loss = F.cross_entropy(logits, y_batch)
                loss.backward()
                if guard is not None:
                    gradients = [p.grad for p in model.parameters()
                                 if p.grad is not None]
                    if not guard.ok("cnn.step", np.asarray(loss.item()),
                                    *gradients):
                        continue  # skip the poisoned optimizer step
                opt.step()
                losses.append(loss.item())
        schedule.step()

        history["loss"].append(float(np.mean(losses)) if losses else 0.0)
        history["epoch_time"].append(clock() - epoch_start)
        is_last = epoch == epochs - 1
        if is_last:
            history["train_acc"].append(model.accuracy(x_train, y_train))
        if verbose:
            acc = (f" train_acc={history['train_acc'][-1]:.3f}"
                   if is_last else "")
            print(f"epoch {epoch + 1}/{epochs}: "
                  f"loss={history['loss'][-1]:.4f}{acc}")
    return history


def _config_key(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def cached_model(name: str, x_train: np.ndarray, y_train: np.ndarray,
                 num_classes: int, width_mult: float = 0.25,
                 image_size: int = 32, epochs: int = 10,
                 batch_size: int = 32, lr: float = 1e-3, seed: int = 0,
                 dataset_tag: str = "", cache_dir: Optional[str] = None,
                 verbose: bool = False) -> IndexedCNN:
    """Train-or-load a model, caching weights on disk.

    The cache key covers architecture, width, class count, training
    hyperparameters, seed and a caller-supplied ``dataset_tag`` that must
    change whenever the training data changes.
    """
    cache_dir = cache_dir or default_cache_dir()
    config = {"name": name, "classes": num_classes, "width": width_mult,
              "image": image_size, "epochs": epochs, "batch": batch_size,
              "lr": lr, "seed": seed, "data": dataset_tag,
              "n_train": int(len(x_train))}
    path = os.path.join(cache_dir, f"{name}-{_config_key(config)}.npz")

    model = create_model(name, num_classes=num_classes,
                         width_mult=width_mult, image_size=image_size,
                         seed=seed)
    if os.path.exists(path):
        nn.load_module(model, path)
        model.eval()
        return model

    train_cnn(model, x_train, y_train, epochs=epochs, batch_size=batch_size,
              lr=lr, seed=seed, verbose=verbose)
    model.eval()
    nn.save_module(model, path)
    return model
