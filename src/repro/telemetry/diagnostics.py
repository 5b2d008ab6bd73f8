"""HD model introspection: drift, saturation, confusability.

The class-hypervector matrix ``M`` *is* the model in the HD half of the
pipeline; these diagnostics make its state observable (the ImageHD-style
drift signal, and the class-separability view behind the paper's
Fig. 11 t-SNE explainability argument).  Online promotion
(:mod:`repro.online.promote`, :mod:`repro.online.shadow`) reads them
through :func:`matrix_health`; the serving drift monitor
(:mod:`repro.telemetry.quality`) reads :func:`saturation_fraction`:

* **Drift** — per-class and total norm of ``M − M_ref`` (plus the
  relative form normalised by ``‖M_ref‖``).  A drift spike flags a
  destabilising update.
* **Saturation** — fraction of accumulator entries whose magnitude
  exceeds ``factor ×`` the matrix RMS.  Bundled bipolar encodings should
  spread information across dimensions; high saturation means a few
  dimensions dominate a class representation (the HD analogue of
  saturated activations, and the first symptom of update blow-up).
* **Confusability** — the pairwise cosine-similarity matrix of the class
  hypervectors.  Off-diagonal mass is exactly what limits the margin;
  the most-confusable pair names the classes Fig. 11's t-SNE clusters
  show overlapping.
"""

from __future__ import annotations

import math
from typing import Dict, Optional

import numpy as np

__all__ = ["class_drift", "saturation_fraction", "confusability_matrix",
           "confusability_summary", "matrix_health"]


def class_drift(previous: np.ndarray, current: np.ndarray
                ) -> Dict[str, object]:
    """Drift of the class matrix from ``previous`` to ``current``.

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
    # One dot product of the flat matrix with itself: no full-size
    # squared temporary (a 256 x 3000 batch on a 2-vCPU VM: 0.3 ms
    # instead of 0.9 ms).
    flat = matrix.ravel()
    rms = math.sqrt(float(np.dot(flat, flat)) / flat.size)
    if rms == 0.0 or not math.isfinite(rms):
        return 0.0
    limit = factor * rms
    # In a bipolar batch every |entry| equals the RMS, so nothing exceeds
    # a limit of factor ≥ 1 times it: two reductions settle that.
    if matrix.max() <= limit and matrix.min() >= -limit:
        return 0.0
    return float(np.mean(np.abs(matrix) > limit))


def confusability_matrix(class_matrix: np.ndarray) -> np.ndarray:
    """Pairwise cosine similarity of the class hypervectors, ``(k, k)``.

    (Local cosine implementation rather than
    :func:`repro.hd.similarity.cosine_similarity` — telemetry sits below
    every other layer, and the hd encoders import it.)
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
                  reference: Optional[np.ndarray] = None
                  ) -> Dict[str, object]:
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
        "saturation_fraction": saturation_fraction(matrix),
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
