"""MASS retraining: Many-class Similarity Scaling (CascadeHD [3]).

MASS tunes class hypervectors using *class-wise similarity differences*
(paper Sec. V-A): for a training hypervector ``H`` with one-hot label
vector ``o`` the update is

    U = o − δ(M, H)
    M ← M + λ Uᵀ H

so misclassified samples (large similarity error) cause large updates,
pulling the correct class hypervector toward ``H`` and pushing the others
away, while well-classified samples barely move the model.

δ is the *normalized* (cosine) similarity so that it is commensurate with
the one-hot target — raw bipolar dot products grow with D and would make
``o − δ`` meaningless.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..data.loader import one_hot
from ..hd.similarity import cosine_similarity
from ..telemetry import get_registry, span
from .epochs import run_epochs
from .centroid import train_centroids

if TYPE_CHECKING:  # avoid an import cycle; the guard is duck-typed
    from ..reliability.guards import NumericsGuard

__all__ = ["clip_update_norms", "MassTrainer"]


def clip_update_norms(delta: np.ndarray, max_norm: float) -> np.ndarray:
    """Row-wise L2 clip of an update matrix: ``(k, dim)`` → ``(k, dim)``.

    Rows whose norm exceeds ``max_norm`` are rescaled onto the ball,
    rows under the cap pass through untouched (bit-exact).  This is the
    safety bound the online-learning path puts between untrusted
    feedback and the class-hypervector matrix: one poisoned sample can
    move each class hypervector at most ``max_norm``.
    """
    if not (np.isfinite(max_norm) and max_norm > 0):
        # NaN and +inf would clip nothing: the cap would be off.
        raise ValueError(f"max_norm must be finite and > 0, got {max_norm}")
    delta = np.atleast_2d(np.asarray(delta, dtype=np.float64))
    norms = np.linalg.norm(delta, axis=1, keepdims=True)
    scale = np.where(norms > max_norm, max_norm / np.where(
        norms > 0, norms, 1.0), 1.0)
    if np.all(scale == 1.0):
        return delta
    return delta * scale


class MassTrainer:
    """Iterative class-hypervector retraining with the MASS rule.

    Parameters
    ----------
    num_classes, dim:
        Shape of the class-hypervector matrix ``M``.
    lr:
        The paper's λ.  Updates are scaled by the query-hypervector norm
        so ``lr`` is dimension-independent.
    guard:
        Optional :class:`repro.reliability.NumericsGuard`.  When set,
        every batch's inputs and update matrix are vetted *before* they
        touch ``class_matrix``; bad batches are skipped (or raise,
        depending on the guard's policy) so the model is never corrupted.
    max_update_norm:
        Optional per-class L2 cap on each applied update (after the
        ``λ/√dim`` scaling).  ``None`` (the default) applies updates
        unclipped — bit-exact with the historical behaviour.  The
        online-learning serving path sets this so one feedback sample
        has bounded influence on the model.
    """

    def __init__(self, num_classes: int, dim: int, lr: float = 0.05,
                 guard: Optional["NumericsGuard"] = None,
                 max_update_norm: Optional[float] = None):
        if num_classes < 2:
            raise ValueError("need at least two classes")
        if dim <= 0:
            raise ValueError("dim must be positive")
        if max_update_norm is not None and not (
                np.isfinite(max_update_norm) and max_update_norm > 0):
            raise ValueError(f"max_update_norm must be finite and > 0 "
                             f"(None: no cap), got {max_update_norm}")
        self.num_classes = num_classes
        self.dim = dim
        self.lr = lr
        self.guard = guard
        self.max_update_norm = max_update_norm
        self.class_matrix = np.zeros((num_classes, dim))

    # ------------------------------------------------------------------
    def initialize(self, hypervectors: np.ndarray,
                   labels: np.ndarray) -> None:
        """Bootstrap ``M`` with single-pass centroid bundling.

        With a :attr:`guard` attached, poisoned samples are handled per
        the guard's policy *before* bundling: ``raise`` aborts, while
        ``warn``/``skip_batch`` drop the non-finite rows so the centroids
        are built from clean samples only.
        """
        hypervectors = np.atleast_2d(hypervectors)
        labels = np.asarray(labels)
        if (self.guard is not None
                and not self.guard.ok("mass.initialize", hypervectors)):
            keep = np.isfinite(hypervectors).all(axis=1)
            hypervectors = hypervectors[keep]
            labels = labels[keep]
        self.class_matrix = train_centroids(hypervectors, labels,
                                            self.num_classes)

    def similarities(self, hypervectors: np.ndarray) -> np.ndarray:
        with span("stage.similarity",
                  nbytes=int(np.asarray(hypervectors).nbytes)):
            return cosine_similarity(self.class_matrix,
                                     np.atleast_2d(hypervectors))

    # ------------------------------------------------------------------
    @staticmethod
    def _record_margins(similarities: np.ndarray,
                        labels: np.ndarray) -> None:
        """Publish the batch's similarity margins to telemetry.

        The margin of a sample is ``δ_true − max_other δ`` — positive
        when classified correctly, and its magnitude measures how safely.
        The distribution (histogram ``train.similarity_margin``) is the
        paper's Fig. 7-style view on how separated the classes are.
        """
        similarities = np.atleast_2d(similarities)
        labels = np.asarray(labels)
        rows = np.arange(len(similarities))
        true_sims = similarities[rows, labels]
        masked = similarities.copy()
        masked[rows, labels] = -np.inf
        margins = true_sims - masked.max(axis=1)
        get_registry().observe_many("train.similarity_margin", margins)

    # ------------------------------------------------------------------
    def compute_update(self, hypervectors: np.ndarray, labels: np.ndarray,
                       **update_kwargs) -> np.ndarray:
        """The update matrix ``U`` of a batch against the current ``M``,
        ``(n, k)``."""
        return self.update_from_similarities(
            self.similarities(hypervectors), labels, **update_kwargs)

    def update_from_similarities(self, similarities: np.ndarray,
                                 labels: np.ndarray,
                                 **_unused) -> np.ndarray:
        """The MASS rule ``U = one_hot − δ(M, H)``.

        Subclasses (knowledge distillation) override this hook;
        the similarities and the ``M += λ Uᵀ H`` application are shared.
        """
        return one_hot(labels, self.num_classes) - similarities

    def step(self, hypervectors: np.ndarray, labels: np.ndarray,
             **update_kwargs) -> bool:
        """Apply one update ``M ← M + λ Uᵀ H`` for a (mini)batch.

        Returns True when the update was applied.  With a
        :attr:`guard` attached, non-finite inputs or updates are caught
        *before* touching ``class_matrix`` and the batch is skipped
        (returns False) or raises, per the guard's policy.
        """
        hypervectors = np.atleast_2d(hypervectors)
        registry = get_registry()
        registry.inc("train.batches")
        registry.inc("train.samples", len(hypervectors))
        with span("stage.update", nbytes=int(hypervectors.nbytes)):
            if self.guard is not None:
                extras = [np.asarray(v) for v in update_kwargs.values()
                          if isinstance(v, (np.ndarray, list, tuple,
                                            float, int))]
                if not self.guard.ok("mass.inputs", hypervectors, *extras):
                    registry.inc("train.skipped_batches")
                    return False
            similarities = self.similarities(hypervectors)
            self._record_margins(similarities, labels)
            update = self.update_from_similarities(similarities, labels,
                                                   **update_kwargs)
            if self.guard is not None and not self.guard.ok("mass.update",
                                                            update):
                registry.inc("train.skipped_batches")
                return False
            scale = self.lr / np.sqrt(self.dim)
            delta = scale * update.T @ hypervectors
            if self.max_update_norm is not None:
                delta = clip_update_norms(delta, self.max_update_norm)
            registry.observe("train.update_norm",
                             float(np.linalg.norm(delta)))
            self.class_matrix += delta
        return True

    # ------------------------------------------------------------------
    def add_class(self, init_hv: Optional[np.ndarray] = None) -> int:
        """Grow the model by one class; returns the new class index.

        Class-incremental arrival (ImageHD-style continual learning): a
        previously unseen label gets a fresh class-hypervector row with
        **no retrain** of the existing classes.  ``init_hv`` bootstraps
        the row (typically the first encoded feedback hypervector of
        the new class — a one-shot centroid); ``None`` starts from
        zeros and lets subsequent updates fill it in.
        """
        if init_hv is None:
            row = np.zeros((1, self.dim))
        else:
            row = np.atleast_2d(np.asarray(init_hv, dtype=np.float64))
            if row.shape != (1, self.dim):
                raise ValueError(
                    f"init_hv must have shape (1, {self.dim}) or "
                    f"({self.dim},), got {row.shape}")
            if not np.isfinite(row).all():
                raise ValueError("init_hv contains NaN/Inf")
        self.class_matrix = np.vstack([self.class_matrix, row])
        self.num_classes += 1
        return self.num_classes - 1

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Serializable trainer state (the class-hypervector matrix)."""
        return {"class_matrix": self.class_matrix.copy()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore state written by :meth:`state_dict` (shape-checked)."""
        if "class_matrix" not in state:
            raise ValueError(
                f"{type(self).__name__} state dict is missing "
                f"'class_matrix' (got keys {sorted(state)})")
        matrix = np.asarray(state["class_matrix"], dtype=np.float64)
        if matrix.shape != (self.num_classes, self.dim):
            raise ValueError(
                f"{type(self).__name__} expects class_matrix of shape "
                f"{(self.num_classes, self.dim)}, got {matrix.shape}")
        self.class_matrix = matrix.copy()

    # ------------------------------------------------------------------
    def fit(self, hypervectors: np.ndarray, labels: np.ndarray,
            epochs: int = 20, batch_size: int = 64,
            rng: Optional[np.random.Generator] = None,
            extra_per_sample: Optional[Dict[str, np.ndarray]] = None
            ) -> Dict[str, List[float]]:
        """Initialize from the rows, then run retraining epochs; returns
        the history (per-epoch training accuracy and epoch time).

        The epochs run through :func:`repro.learn.epochs.run_epochs`
        with :meth:`step` as the batch body and :meth:`accuracy` on all
        rows as the evaluation; every epoch publishes the ``train.*``
        epoch metrics.  ``extra_per_sample`` carries aligned side
        information (e.g. ``teacher_logits`` for the distillation
        subclass); it is shuffled and batched together with the
        hypervectors, and an array whose length differs from theirs
        raises ``ValueError`` before ``class_matrix`` is touched.
        """
        hypervectors = np.atleast_2d(hypervectors)
        labels = np.asarray(labels)
        rows = {"hypervectors": hypervectors, "labels": labels,
                **(extra_per_sample or {})}
        return run_epochs(
            rows, self.step,
            lambda _: {"train_acc": self.accuracy(hypervectors, labels)},
            epochs=epochs, batch_size=batch_size,
            rng=rng or np.random.default_rng(),
            initialize=lambda: self.initialize(hypervectors, labels))

    # ------------------------------------------------------------------
    def predict(self, hypervectors: np.ndarray) -> np.ndarray:
        return self.similarities(hypervectors).argmax(axis=1)

    def accuracy(self, hypervectors: np.ndarray,
                 labels: np.ndarray) -> float:
        return float((self.predict(hypervectors) ==
                      np.asarray(labels)).mean())
