"""Shadow copy of the live class-hypervector matrix + guarded updates.

The live :class:`~repro.serve.engine.InferenceEngine` stays frozen; all
feedback learning happens on a :class:`ShadowModel` — a float64 copy of
the engine's class matrix driven by the paper's MASS rule
(:class:`~repro.learn.mass.MassTrainer`).  Every mutation path is
defended:

* a :class:`~repro.reliability.NumericsGuard` vets each encoded feedback
  hypervector before it can touch the matrix (and the trainer re-vets
  the computed update matrix);
* per-class update norms are clipped to ``max_update_norm`` inside the
  trainer (:func:`~repro.learn.mass.clip_update_norms`), bounding the
  influence of any single feedback sample;
* a token bucket caps the sustained update rate (``rate_limit_per_s``),
  so a feedback flood degrades to 429s instead of model churn;
* every ``holdout_every``-th accepted sample is *not* learned from —
  it lands in a bounded validation ring that the promotion gate later
  scores both the shadow and the live matrix on.  The holdout is taken
  before the update, so validation data is never trained on.

Class-incremental arrival: feedback whose label equals the current
``num_classes`` allocates a fresh class-hypervector row with **no
retrain** — the first sample seeds the row one-shot
(:meth:`~repro.learn.mass.MassTrainer.add_class`), later samples of the
same class are *bundled into that row only* (centroid accumulation),
never running the dense update, so pre-existing class rows stay
bit-exact until ordinary known-class feedback touches them.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional

import numpy as np

from ..hd.similarity import cosine_similarity
from ..learn.mass import MassTrainer
from ..reliability.guards import NumericsGuard
from ..telemetry import clock, get_registry, matrix_health

__all__ = ["ShadowModel", "FeedbackError"]

#: Held-out samples the validation ring keeps; the oldest is overwritten.
VALIDATION_CAPACITY = 512
#: New classes feedback may add per generation.
MAX_NEW_CLASSES = 8


class FeedbackError(ValueError):
    """Raised for malformed feedback (bad label, wrong shape, ...)."""


class _TokenBucket:
    """Minimal thread-safe token bucket: ``rate`` tokens/s, and a burst
    of ``max(1, rate)`` tokens."""

    def __init__(self, rate_per_s: float):
        if not (math.isfinite(rate_per_s) and rate_per_s > 0):
            raise ValueError(f"rate_limit_per_s must be finite and > 0, "
                             f"got {rate_per_s!r}")
        self.rate = float(rate_per_s)
        self.capacity = max(1.0, self.rate)
        self._tokens = self.capacity
        self._stamp = clock()
        self._lock = threading.Lock()

    def allow(self) -> bool:
        with self._lock:
            now = clock()
            self._tokens = min(self.capacity,
                               self._tokens + (now - self._stamp) * self.rate)
            self._stamp = now
            if self._tokens >= 1.0:
                self._tokens -= 1.0
                return True
            return False


class ShadowModel:
    """A guarded, rate-limited learning copy of the live class matrix.

    Parameters
    ----------
    class_matrix:
        The live engine's class-hypervector matrix ``(k, dim)``; copied,
        never aliased.
    lr, max_update_norm:
        MASS learning rate and the per-class L2 cap on each applied
        update.  Only ``None`` turns the cap off; a number must be
        finite and > 0.
    rate_limit_per_s:
        Token-bucket admission for feedback, with a burst of
        ``max(1, rate)``.  Only ``None`` disables limiting; a number
        must be finite and > 0.
    holdout_every:
        Every N-th admitted sample goes to the validation ring of
        :data:`VALIDATION_CAPACITY` instead of the trainer (``0``
        disables holdout).
    guard:
        :class:`~repro.reliability.NumericsGuard` (shared with the
        trainer).  Defaults to ``policy="skip_batch"`` so poisoned
        payloads are rejected, not fatal.
    """

    def __init__(self, class_matrix: np.ndarray, lr: float = 0.05,
                 max_update_norm: float = 1.0,
                 rate_limit_per_s: Optional[float] = None,
                 holdout_every: int = 8,
                 guard: Optional[NumericsGuard] = None):
        if holdout_every < 0:
            raise ValueError("holdout_every must be >= 0")
        self.lr = float(lr)
        self.max_update_norm = (None if max_update_norm is None
                                else float(max_update_norm))
        self.holdout_every = int(holdout_every)
        self.guard = guard if guard is not None else NumericsGuard(
            policy="skip_batch", max_abs=1e9, name="online")
        self._bucket = (None if rate_limit_per_s is None
                        else _TokenBucket(rate_limit_per_s))
        self._rate_limit_per_s = rate_limit_per_s
        self._lock = threading.RLock()
        self._rebase(np.asarray(class_matrix, dtype=np.float64))

    # -- lifecycle -----------------------------------------------------
    def _rebase(self, base: np.ndarray) -> None:
        base = np.atleast_2d(np.asarray(base, dtype=np.float64))
        self.base = base.copy()
        self.base_classes = int(base.shape[0])
        self.dim = int(base.shape[1])
        self.trainer = MassTrainer(
            self.base_classes, self.dim, lr=self.lr, guard=self.guard,
            max_update_norm=self.max_update_norm)
        self.trainer.class_matrix = base.copy()
        # Per-new-class bundle counts: index -> samples accumulated.
        self._new_class_counts: Dict[int, int] = {}
        self.generation_feedback = 0
        self.applied = 0
        self.held_out = 0
        self.rejected = 0
        self.rate_limited = 0
        self._ring_hvs = np.zeros((VALIDATION_CAPACITY, self.dim))
        self._ring_labels = np.full(VALIDATION_CAPACITY, -1,
                                    dtype=np.int64)
        self._ring_pos = 0
        self._ring_size = 0

    def reset_to(self, class_matrix: np.ndarray) -> None:
        """Rebase onto a newly promoted (or externally reloaded) matrix.

        Clears the validation ring and per-generation counters: held-out
        samples already informed the promotion decision, and re-scoring
        the next generation on them would double-count.
        """
        with self._lock:
            self._rebase(np.asarray(class_matrix, dtype=np.float64))

    # -- properties ----------------------------------------------------
    @property
    def matrix(self) -> np.ndarray:
        """The current shadow class matrix (live reference, not a copy)."""
        return self.trainer.class_matrix

    @property
    def num_classes(self) -> int:
        return self.trainer.num_classes

    @property
    def classes_added(self) -> int:
        return self.trainer.num_classes - self.base_classes

    def snapshot(self) -> np.ndarray:
        """Consistent copy of the shadow matrix (for export)."""
        with self._lock:
            return self.trainer.class_matrix.copy()

    # -- feedback ingestion --------------------------------------------
    def ingest(self, encoded: np.ndarray, label: int) -> str:
        """Apply one labelled feedback hypervector to the shadow.

        Returns one of ``"applied"``, ``"new_class"``, ``"held_out"``,
        ``"rate_limited"``, ``"rejected"`` (guard veto).  Raises
        :class:`FeedbackError` for labels outside ``[0, num_classes]``
        or beyond the :data:`MAX_NEW_CLASSES` growth budget.
        """
        registry = get_registry()
        encoded = np.atleast_2d(np.asarray(encoded, dtype=np.float64))
        if encoded.shape != (1, self.dim):
            raise FeedbackError(
                f"encoded hypervector must have shape (1, {self.dim}) "
                f"or ({self.dim},), got {encoded.shape}")
        label = int(label)
        with self._lock:
            k = self.trainer.num_classes
            if label < 0 or label > k:
                raise FeedbackError(
                    f"label {label} outside [0, {k}] — new classes must "
                    f"arrive densely (next unseen label is {k})")
            if label == k and self.classes_added >= MAX_NEW_CLASSES:
                raise FeedbackError(
                    f"class growth budget exhausted "
                    f"({MAX_NEW_CLASSES} new classes this generation)")
        if self._bucket is not None and not self._bucket.allow():
            with self._lock:
                self.rate_limited += 1
            return "rate_limited"
        if not self.guard.ok("online.feedback", encoded):
            with self._lock:
                self.rejected += 1
            registry.inc("online.feedback.rejected")
            return "rejected"
        with self._lock:
            self.generation_feedback += 1
            if (self.holdout_every
                    and self.generation_feedback % self.holdout_every == 0):
                self._ring_put(encoded[0], label)
                self.held_out += 1
                registry.inc("online.feedback.held_out")
                return "held_out"
            before = self.trainer.class_matrix.copy()
            if label >= self.base_classes:
                status = self._ingest_new_class(encoded, label)
            else:
                applied = self.trainer.step(encoded, np.array([label]))
                if not applied:
                    self.rejected += 1
                    registry.inc("online.feedback.rejected")
                    return "rejected"
                status = "applied"
            self.applied += 1
            after = self.trainer.class_matrix
            shared = min(before.shape[0], after.shape[0])
            moved = float(np.linalg.norm(after[:shared] - before[:shared]))
            if after.shape[0] > shared:  # class growth: count the new row
                moved = float(np.hypot(moved,
                                       np.linalg.norm(after[shared:])))
            registry.observe("online.update_norm", moved)
            registry.inc("online.feedback.applied")
            return status

    def _ingest_new_class(self, encoded: np.ndarray, label: int) -> str:
        """Class-incremental path: seed or bundle into the *new row only*.

        Never runs the dense trainer update, so rows ``< base_classes``
        are untouched — the bit-exact-parity guarantee for pre-existing
        classes that check_online.py asserts.
        """
        if label == self.trainer.num_classes:
            self.trainer.add_class(encoded)
            self._new_class_counts[label] = 1
            return "new_class"
        # Subsequent samples: running centroid accumulation on the row.
        self.trainer.class_matrix[label] += encoded[0]
        self._new_class_counts[label] = \
            self._new_class_counts.get(label, 0) + 1
        return "applied"

    # -- validation ring -----------------------------------------------
    def _ring_put(self, hv: np.ndarray, label: int) -> None:
        self._ring_hvs[self._ring_pos] = hv
        self._ring_labels[self._ring_pos] = label
        self._ring_pos = (self._ring_pos + 1) % VALIDATION_CAPACITY
        self._ring_size = min(self._ring_size + 1, VALIDATION_CAPACITY)

    def validation_set(self) -> "tuple[np.ndarray, np.ndarray]":
        """Copies of the held-back hypervectors and labels."""
        with self._lock:
            n = self._ring_size
            return self._ring_hvs[:n].copy(), self._ring_labels[:n].copy()

    def evaluate(self, live_matrix: np.ndarray) -> Dict[str, object]:
        """Score shadow vs live on the validation ring.

        Labels the live matrix has no row for (class-incremental
        arrivals) count as misclassified for the live model — that is
        the accuracy a client actually observes today.
        """
        hvs, labels = self.validation_set()
        with self._lock:
            shadow = self.trainer.class_matrix.copy()
        live = np.atleast_2d(np.asarray(live_matrix, dtype=np.float64))
        result: Dict[str, object] = {"size": int(len(labels))}
        if not len(labels):
            result["shadow_accuracy"] = None
            result["live_accuracy"] = None
            return result
        shadow_pred = cosine_similarity(shadow, hvs).argmax(axis=1)
        live_pred = cosine_similarity(live, hvs).argmax(axis=1)
        result["shadow_accuracy"] = float((shadow_pred == labels).mean())
        result["live_accuracy"] = float((live_pred == labels).mean())
        return result

    def health(self) -> Dict[str, object]:
        """Matrix-health view of the shadow (drift vs the rebased base)."""
        with self._lock:
            shadow = self.trainer.class_matrix.copy()
            base = self.base
        health = matrix_health(shadow, reference=base)
        drift = health.get("drift")
        if isinstance(drift, dict):
            relative = drift.get("relative")
            if isinstance(relative, float) and np.isfinite(relative):
                get_registry().set_gauge("online.shadow.drift", relative)
        return health

    # -- status --------------------------------------------------------
    def status(self) -> Dict[str, object]:
        with self._lock:
            return {
                "lr": self.lr,
                "max_update_norm": self.max_update_norm,
                "rate_limit_per_s": self._rate_limit_per_s,
                "holdout_every": self.holdout_every,
                "base_classes": self.base_classes,
                "classes": self.trainer.num_classes,
                "classes_added": self.classes_added,
                "dim": self.dim,
                "feedback": {
                    "seen": self.generation_feedback,
                    "applied": self.applied,
                    "held_out": self.held_out,
                    "rejected": self.rejected,
                    "rate_limited": self.rate_limited,
                },
                "validation_size": self._ring_size,
                "guard": dict(self.guard.counts),
            }
