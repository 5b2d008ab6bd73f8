"""Per-epoch HD model introspection: drift, saturation, confusability.

The class-hypervector matrix ``M`` *is* the model in the HD half of the
pipeline; these diagnostics make its training dynamics observable (the
ImageHD-style drift signal, and the class-separability view behind the
paper's Fig. 11 t-SNE explainability argument):

* **Drift** — per-class and total norm of ``M_t − M_{t−1}`` (plus the
  relative form normalised by ``‖M_{t−1}‖``).  Converging MASS training
  shows shrinking drift; a drift spike flags a destabilising batch.
* **Saturation** — fraction of accumulator entries whose magnitude
  exceeds ``factor ×`` the matrix RMS.  Bundled bipolar encodings should
  spread information across dimensions; high saturation means a few
  dimensions dominate a class representation (the HD analogue of
  saturated activations, and the first symptom of update blow-up).
* **Confusability** — the pairwise cosine-similarity matrix of the class
  hypervectors.  Off-diagonal mass is exactly what limits the margin;
  the most-confusable pair names the classes Fig. 11's t-SNE clusters
  show overlapping.
* **Margin quantiles** — p50/p95/p99 of the ``train.similarity_margin``
  histogram the trainers already publish per batch.

:class:`DiagnosticsCallback` implements the PR-2
:class:`repro.learn.callbacks.TrainerCallback` protocol *structurally*
(duck-typed — importing :mod:`repro.learn` here would cycle, since every
trainer imports telemetry) and records one diagnostics dict per epoch;
:meth:`DiagnosticsCallback.summary` is what
:func:`repro.telemetry.render_report` renders as per-epoch trends.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from .metrics import MetricsRegistry, get_registry

__all__ = ["class_drift", "saturation_fraction", "confusability_matrix",
           "confusability_summary", "margin_quantiles", "matrix_health",
           "DiagnosticsCallback"]


def class_drift(previous: np.ndarray, current: np.ndarray
                ) -> Dict[str, object]:
    """Drift of the class matrix between two epochs.

    Returns ``{"per_class": [...], "total": float, "relative": float}``
    where ``per_class[i] = ‖current_i − previous_i‖₂``, ``total`` is the
    Frobenius norm of the difference and ``relative`` divides by the
    Frobenius norm of ``previous`` (NaN when ``previous`` is all-zero).
    """
    previous = np.atleast_2d(np.asarray(previous, dtype=np.float64))
    current = np.atleast_2d(np.asarray(current, dtype=np.float64))
    if previous.shape != current.shape:
        raise ValueError(f"shape mismatch: {previous.shape} vs "
                         f"{current.shape}")
    delta = current - previous
    per_class = np.linalg.norm(delta, axis=1)
    total = float(np.linalg.norm(delta))
    base = float(np.linalg.norm(previous))
    return {
        "per_class": [float(v) for v in per_class],
        "total": total,
        "relative": total / base if base > 0 else math.nan,
    }


def saturation_fraction(matrix: np.ndarray, factor: float = 3.0) -> float:
    """Fraction of entries with ``|entry| > factor × RMS(matrix)``.

    0.0 for an all-zero matrix.  For well-spread bundled hypervectors
    (approximately Gaussian accumulators) the expected fraction at
    ``factor=3`` is ≈ 0.27%; an order of magnitude more means a few
    dimensions are hogging the representation.
    """
    if factor <= 0:
        raise ValueError("factor must be positive")
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.size == 0:
        return 0.0
    rms = float(np.sqrt(np.mean(np.square(matrix))))
    if rms == 0.0 or not math.isfinite(rms):
        return 0.0
    return float(np.mean(np.abs(matrix) > factor * rms))


def confusability_matrix(class_matrix: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity of the class hypervectors, ``(k, k)``.

    (Local cosine implementation rather than
    :func:`repro.learn.mass.normalized_similarity` — the learn package
    imports telemetry, so telemetry must not import it back.)
    """
    matrix = np.atleast_2d(np.asarray(class_matrix, dtype=np.float64))
    norms = np.linalg.norm(matrix, axis=1, keepdims=True)
    norms = np.where(norms < 1e-12, 1.0, norms)
    unit = matrix / norms
    return unit @ unit.T


def confusability_summary(class_matrix: np.ndarray) -> Dict[str, object]:
    """Scalar view of the confusability matrix.

    ``{"off_diag_mean", "off_diag_max", "most_confusable": [i, j]}`` —
    the *most confusable pair* is the off-diagonal argmax, i.e. the two
    classes whose hypervectors are closest in angle.
    """
    sims = confusability_matrix(class_matrix)
    k = sims.shape[0]
    if k < 2:
        return {"off_diag_mean": math.nan, "off_diag_max": math.nan,
                "most_confusable": None}
    off = sims.copy()
    np.fill_diagonal(off, -np.inf)
    flat_idx = int(np.argmax(off))
    i, j = divmod(flat_idx, k)
    mask = ~np.eye(k, dtype=bool)
    return {
        "off_diag_mean": float(sims[mask].mean()),
        "off_diag_max": float(off[i, j]),
        "most_confusable": [int(i), int(j)],
    }


def matrix_health(matrix: np.ndarray,
                  reference: Optional[np.ndarray] = None,
                  sat_factor: float = 3.0) -> Dict[str, object]:
    """One-call health view of a class-hypervector matrix.

    Bundles the three matrix-level diagnostics the online promotion
    gate consumes — ``saturation_fraction``, ``confusability_summary``,
    and (when ``reference`` is given and shape-compatible)
    ``class_drift`` relative to it — into a single flat dict, so the
    gate reads one structure instead of re-deriving the composition.
    ``drift`` is ``None`` when no comparable reference exists (e.g.
    the matrix grew a class since the reference was taken).
    """
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    health: Dict[str, object] = {
        "saturation_fraction": saturation_fraction(matrix, sat_factor),
        "confusability": confusability_summary(matrix),
        "classes": int(matrix.shape[0]),
    }
    drift = None
    if reference is not None:
        reference = np.atleast_2d(np.asarray(reference,
                                             dtype=np.float64))
        if reference.shape == matrix.shape:
            drift = class_drift(reference, matrix)
        elif reference.shape[1] == matrix.shape[1] \
                and reference.shape[0] < matrix.shape[0]:
            # Grown matrix: compare the shared class rows only.
            drift = class_drift(reference,
                                matrix[:reference.shape[0]])
    health["drift"] = drift
    return health


def margin_quantiles(registry: Optional[MetricsRegistry] = None,
                     name: str = "train.similarity_margin"
                     ) -> Dict[str, float]:
    """p50/p95/p99 (plus mean/count) of the similarity-margin histogram.

    Returns an empty dict when the histogram does not exist yet (e.g.
    before the first training batch) **or has received no samples** —
    an empty P² histogram summarises to NaN quantiles — so callers can
    splat the result into a JSON summary safely either way.
    """
    registry = registry if registry is not None else get_registry()
    if name not in registry:
        return {}
    metric = registry.get(name)
    if getattr(metric, "kind", None) != "histogram":
        return {}
    summary = metric.summary()
    if not summary.get("count"):
        return {}
    return {key: float(summary[key])
            for key in ("mean", "count", "p50", "p95", "p99")
            if key in summary}


class DiagnosticsCallback:
    """Record per-epoch HD diagnostics during trainer/pipeline ``fit``.

    Implements the :class:`repro.learn.callbacks.TrainerCallback`
    protocol structurally.  Attach to any ``fit(..., callbacks=[...])``
    whose trainer exposes a ``class_matrix`` (``MassTrainer``,
    ``DistillationTrainer``, and the three pipelines which forward their
    inner trainer):

        diag = DiagnosticsCallback()
        trainer.fit(H, y, callbacks=[diag])
        print(render_report(diagnostics=diag.summary()))

    Per epoch it stores drift / saturation / confusability / margin
    quantiles (``records``), publishes the headline scalars as gauges
    (``hd.drift_total``, ``hd.saturation_fraction``,
    ``hd.confusability_max``), and keeps the final full confusability
    matrix for the summary.
    """

    def __init__(self, trainer=None, sat_factor: float = 3.0,
                 registry: Optional[MetricsRegistry] = None,
                 keep_final_matrix: bool = True):
        self.trainer = trainer
        self.sat_factor = sat_factor
        self.registry = registry
        self.keep_final_matrix = keep_final_matrix
        self.records: List[Dict[str, object]] = []
        self.final_confusability: Optional[List[List[float]]] = None
        self._previous: Optional[np.ndarray] = None

    # -- TrainerCallback protocol --------------------------------------
    def on_fit_start(self, trainer, total_epochs: int) -> None:
        if trainer is not None:
            self.trainer = trainer
        self.records = []
        self.final_confusability = None
        self._previous = self._matrix_copy()

    def on_epoch_end(self, epoch: int, metrics: Dict[str, object]) -> None:
        matrix = self._matrix_copy()
        if matrix is None:
            return
        if self._previous is None or self._previous.shape != matrix.shape:
            # fit() without on_fit_start (legacy callers) — bootstrap.
            self._previous = np.zeros_like(matrix)
        drift = class_drift(self._previous, matrix)
        record: Dict[str, object] = {
            "epoch": int(epoch),
            "drift": drift,
            "saturation_fraction": saturation_fraction(matrix,
                                                       self.sat_factor),
            "confusability": confusability_summary(matrix),
            "margin": margin_quantiles(self.registry),
        }
        train_acc = metrics.get("train_acc")
        if isinstance(train_acc, (int, float)):
            record["train_acc"] = float(train_acc)
        self.records.append(record)
        self._previous = matrix

        registry = (self.registry if self.registry is not None
                    else get_registry())
        registry.set_gauge("hd.drift_total", drift["total"])
        registry.set_gauge("hd.saturation_fraction",
                           record["saturation_fraction"])
        off_max = record["confusability"]["off_diag_max"]
        if isinstance(off_max, float) and math.isfinite(off_max):
            registry.set_gauge("hd.confusability_max", off_max)

    def on_fit_end(self, history: Dict[str, List[float]]) -> None:
        matrix = self._matrix_copy()
        if matrix is not None and self.keep_final_matrix:
            self.final_confusability = [
                [float(v) for v in row]
                for row in confusability_matrix(matrix)]

    def should_stop(self) -> bool:
        return False

    # ------------------------------------------------------------------
    def _matrix_copy(self) -> Optional[np.ndarray]:
        trainer = self.trainer
        matrix = getattr(trainer, "class_matrix", None)
        if matrix is None:
            return None
        return np.array(matrix, dtype=np.float64, copy=True)

    def summary(self) -> Dict[str, object]:
        """Ledger-ready diagnostics dict (per-epoch + final snapshot)."""
        out: Dict[str, object] = {"per_epoch": list(self.records)}
        if self.records:
            last = self.records[-1]
            out["final"] = {
                "drift_total": last["drift"]["total"],
                "drift_relative": last["drift"]["relative"],
                "saturation_fraction": last["saturation_fraction"],
                "confusability": last["confusability"],
                "margin": last["margin"],
            }
        if self.final_confusability is not None:
            out["confusability_matrix"] = self.final_confusability
        return out
