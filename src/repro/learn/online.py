"""OnlineHD-style adaptive single-pass training.

An alternative retraining rule from the HD lineage the paper builds on
(Imani et al.): each sample updates only two class hypervectors — the
correct one and the mispredicted one — scaled by how wrong the model was:

    if argmax δ = y:  no update (or a small reinforcement)
    else:             C_y      += λ (1 − δ_y) H
                      C_pred   -= λ (1 − δ_pred) H

Compared to MASS (which updates *every* class through the similarity
vector), the adaptive rule is cheaper per sample but uses less
information — exactly the trade the MASS paper [3] targets.  Provided as
an ablatable baseline for the retraining-rule design choice.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from .mass import MassTrainer

if TYPE_CHECKING:  # avoid an import cycle; the guard is duck-typed
    from ..reliability.guards import NumericsGuard

__all__ = ["OnlineHDTrainer"]


class OnlineHDTrainer(MassTrainer):
    """Adaptive two-class update rule (OnlineHD).

    ``reinforce_correct`` additionally nudges the correct class
    hypervector toward every *correctly* classified sample, scaled by
    ``reinforce_rate × (1 − δ_y)`` — a small consolidation term that
    keeps confident classes confident without the full MASS dense
    update.  ``guard`` / ``max_update_norm`` ride through to
    :class:`MassTrainer` (the online serving path sets both).
    """

    def __init__(self, num_classes: int, dim: int, lr: float = 0.05,
                 reinforce_correct: bool = False,
                 reinforce_rate: float = 0.1,
                 guard: Optional["NumericsGuard"] = None,
                 max_update_norm: Optional[float] = None):
        super().__init__(num_classes, dim, lr, guard=guard,
                         max_update_norm=max_update_norm)
        if reinforce_rate < 0:
            raise ValueError("reinforce_rate must be >= 0")
        self.reinforce_correct = reinforce_correct
        self.reinforce_rate = float(reinforce_rate)

    def update_from_similarities(self, similarities: np.ndarray,
                                 labels: np.ndarray,
                                 **_unused) -> np.ndarray:
        """Sparse update matrix: at most two nonzero entries per row."""
        labels = np.asarray(labels)
        predictions = similarities.argmax(axis=1)
        update = np.zeros_like(similarities)
        rows = np.arange(len(labels))

        wrong = predictions != labels
        update[rows[wrong], labels[wrong]] = \
            1.0 - similarities[rows[wrong], labels[wrong]]
        update[rows[wrong], predictions[wrong]] = \
            -(1.0 - similarities[rows[wrong], predictions[wrong]])
        if self.reinforce_correct:
            right = ~wrong
            update[rows[right], labels[right]] = \
                self.reinforce_rate * \
                (1.0 - similarities[rows[right], labels[right]])
        return update
