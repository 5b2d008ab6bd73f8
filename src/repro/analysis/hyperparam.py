"""KD hyperparameter search over (temperature, alpha) — Fig. 9.

The paper grids t ∈ [12, 17] × α ∈ [0, 0.9] for one model/layer and
reports test accuracy per cell; the α = 0 row is plain MASS (no KD), so
the grid simultaneously measures the distillation boost.  Because the
features, manifold output and encoding are fixed during the search, each
cell only needs an HD retraining run, which is cheap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from ..learn.distill import DistillationTrainer

__all__ = ["GridSearchResult", "kd_grid_search"]

PAPER_TEMPERATURES = (12.0, 13.0, 14.0, 15.0, 16.0, 17.0)
PAPER_ALPHAS = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


@dataclass
class GridSearchResult:
    """Accuracy grid over (alpha, temperature)."""

    temperatures: Tuple[float, ...]
    alphas: Tuple[float, ...]
    accuracies: np.ndarray  # (len(alphas), len(temperatures))

    def best(self) -> Tuple[float, float, float]:
        """(alpha, temperature, accuracy) of the best cell."""
        idx = np.unravel_index(self.accuracies.argmax(),
                               self.accuracies.shape)
        return (self.alphas[idx[0]], self.temperatures[idx[1]],
                float(self.accuracies[idx]))

    def kd_boost(self) -> float:
        """Best accuracy minus the α=0 (no-KD) accuracy — Fig. 9's claim."""
        if 0.0 not in self.alphas:
            raise ValueError("grid must include alpha=0 to measure boost")
        baseline = self.accuracies[self.alphas.index(0.0)].max()
        return float(self.accuracies.max() - baseline)


def kd_grid_search(train_hvs: np.ndarray, train_labels: np.ndarray,
                   teacher_logits: np.ndarray, test_hvs: np.ndarray,
                   test_labels: np.ndarray, num_classes: int, dim: int,
                   temperatures: Sequence[float] = PAPER_TEMPERATURES,
                   alphas: Sequence[float] = PAPER_ALPHAS,
                   epochs: int = 15, lr: float = 0.05,
                   batch_size: int = 64, seed: int = 0) -> GridSearchResult:
    """Retrain the HD model for every (t, α) cell; return test accuracies.

    Hypervectors are precomputed (fixed encoder/manifold), mirroring the
    paper's search, which tunes only the distillation procedure.
    """
    accuracies = np.zeros((len(alphas), len(temperatures)))
    for i, alpha in enumerate(alphas):
        for j, temperature in enumerate(temperatures):
            trainer = DistillationTrainer(num_classes, dim, lr=lr,
                                          temperature=temperature,
                                          alpha=alpha)
            trainer.fit(train_hvs, train_labels, epochs=epochs,
                        batch_size=batch_size,
                        rng=np.random.default_rng(seed),
                        extra_per_sample={"teacher_logits": teacher_logits})
            accuracies[i, j] = trainer.accuracy(test_hvs, test_labels)
            if alpha == 0.0:
                # α=0 rows are temperature-independent (plain MASS);
                # one cell fills the whole row.
                accuracies[i, :] = accuracies[i, 0]
                break
    return GridSearchResult(tuple(temperatures), tuple(alphas), accuracies)
