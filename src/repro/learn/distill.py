"""Knowledge-distillation retraining — Algorithm 1 of the paper.

The distillation trainer extends MASS by replacing the pure one-hot
update direction with a weighted mixture of the ground truth and the
*teacher's softened predictions* (the uncut CNN's logits):

    soft_pred  = δ(M, H) / t                      (Alg. 1, line 4)
    soft_label = softmax(teacher_logits / t) / t  (Alg. 1, line 5)
    distilled  = soft_label − soft_pred           (line 6)
    U = (1−α)(one_hot − δ(M, H)) + α · distilled  (lines 7–8)
    M ← M + λ Uᵀ H                                (line 9)

``t`` (temperature) softens both sides; ``α`` mixes the distilled and
ground-truth updates.  With ``α = 0`` the rule degenerates to plain MASS,
which is exactly how Fig. 8/9's "no KD" rows are produced.

Interpretation note: as in Hinton et al.'s KD framework [11] — which the
paper adopts — the distilled term is rescaled by ``t²``: "since the
magnitudes of the gradients produced by the soft targets scale as 1/T²,
it is important to multiply them by T²" (Hinton et al., Sec. 2).
Without this correction the ``1/t`` factors of Algorithm 1's lines 4–5
make the distilled update two orders of magnitude smaller than the
ground-truth term at the paper's t ≈ 12–17, and α would have no
observable effect — contradicting Fig. 9's measured sensitivity to α.
The ``t²`` rescaling keeps the two terms commensurate at every
temperature, which is the regime Fig. 9's grid explores.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

import numpy as np

from ..data.loader import one_hot
from ..models.extractor import soften_logits
from .mass import MassTrainer

if TYPE_CHECKING:  # avoid an import cycle; the guard is duck-typed
    from ..reliability.guards import NumericsGuard

__all__ = ["DistillationTrainer"]


class DistillationTrainer(MassTrainer):
    """MASS retraining with teacher knowledge distillation (Algorithm 1)."""

    def __init__(self, num_classes: int, dim: int, lr: float = 0.05,
                 temperature: float = 14.0, alpha: float = 0.5,
                 guard: Optional["NumericsGuard"] = None):
        super().__init__(num_classes, dim, lr, guard=guard)
        if temperature <= 0:
            raise ValueError("temperature must be positive")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError("alpha must be in [0, 1]")
        self.temperature = temperature
        self.alpha = alpha

    def update_from_similarities(self, similarities: np.ndarray,
                                 labels: np.ndarray,
                                 teacher_logits: Optional[np.ndarray] = None,
                                 **_unused) -> np.ndarray:
        """Algorithm 1 lines 4–8 for a batch; returns ``U`` of shape (n, k)."""
        mass_update = one_hot(labels, self.num_classes) - similarities
        if self.alpha == 0.0 or teacher_logits is None:
            if self.alpha > 0.0:
                raise ValueError(
                    "alpha > 0 requires teacher_logits for distillation")
            return mass_update
        soft_pred = similarities / self.temperature
        soft_labels = soften_logits(teacher_logits,
                                    self.temperature) / self.temperature
        # Hinton's T^2 gradient correction keeps the distilled update
        # commensurate with the one-hot term (see module docstring).
        distilled = (soft_labels - soft_pred) * self.temperature ** 2
        return (1.0 - self.alpha) * mass_update + self.alpha * distilled
