"""Similarity metrics between hypervectors and class-hypervector matrices.

The paper's δ(·,·) is the dot-product similarity most often used for
bipolar hypervectors (Sec. II).  :func:`cosine_similarity` is the
normalized δ that MASS training and every classify stage run.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from .backend import packed_dot

__all__ = ["dot_similarity", "cosine_similarity", "clamped_norms",
           "packed_cosine_similarity", "classify"]

#: Norms below this count as 1, so a degenerate (near-zero) class or
#: query hypervector scores ~0 instead of dividing by ~0.
_NORM_FLOOR = 1e-12


def dot_similarity(class_matrix: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Dot-product similarity δ(M, H).

    Parameters
    ----------
    class_matrix:
        ``(k, D)`` matrix of class hypervectors.
    queries:
        ``(D,)`` single query or ``(n, D)`` batch.

    Returns
    -------
    ``(k,)`` or ``(n, k)`` similarity values.
    """
    class_matrix = np.asarray(class_matrix, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    if queries.ndim == 1:
        return class_matrix @ queries
    return queries @ class_matrix.T


def clamped_norms(matrix: np.ndarray) -> np.ndarray:
    """Row norms with the degenerate-norm clamp (``< 1e-12 → 1``)."""
    norms = np.linalg.norm(matrix, axis=1)
    return np.where(norms < _NORM_FLOOR, 1.0, norms)


def cosine_similarity(class_matrix: np.ndarray, queries: np.ndarray,
                      class_norms: Optional[np.ndarray] = None
                      ) -> np.ndarray:
    """Cosine similarity δ(M, H) — the paper's normalized δ.

    The one implementation training (MASS) and serving (the classify
    stage) share.  Norms below ``1e-12`` count as 1.  Passing
    precomputed ``class_norms`` (:func:`clamped_norms`, constant for a
    frozen model) skips their recomputation without changing a bit of
    the result.  A ``(D,)`` query gives ``(k,)``, an ``(n, D)`` batch
    ``(n, k)``.
    """
    class_matrix = np.asarray(class_matrix)
    single = np.ndim(queries) == 1
    queries = np.atleast_2d(queries)
    if class_norms is None:
        class_norms = clamped_norms(class_matrix)
    query_norms = np.linalg.norm(queries, axis=1, keepdims=True)
    query_norms = np.where(query_norms < _NORM_FLOOR, 1.0, query_norms)
    sims = (queries @ class_matrix.T) / (query_norms * class_norms[None, :])
    return sims[0] if single else sims


def packed_cosine_similarity(packed_classes: np.ndarray,
                             packed_queries: np.ndarray,
                             dim: int) -> np.ndarray:
    """Cosine similarity ``dot / D`` from **bit-packed** bipolar operands.

    The serving fast path (Schmuck et al., "Hardware Optimizations of
    Dense Binary HD Computing"): bipolar hypervectors packed into uint64
    words via :func:`repro.hd.backend.pack_signs` (or
    :func:`~repro.hd.backend.pack_bipolar`); the similarity sweep
    is XOR + popcount with no multiplications.  ``dot = D − 2·popcount
    (xor)`` is integer arithmetic, so ranking agrees bit-for-bit with
    :func:`dot_similarity` on the unpacked operands, and each value is
    the float cosine of two ±1 vectors (both norms are √D) to within a
    few ulps.

    Parameters
    ----------
    packed_classes:
        ``(k, W)`` packed class hypervectors.
    packed_queries:
        ``(n, W)`` packed queries (or ``(W,)`` for a single query).
    dim:
        Original hypervector dimensionality D (the padding width).

    Returns
    -------
    ``(n, k)`` (or ``(k,)``) similarities in ``[-1, 1]``.
    """
    single = np.asarray(packed_queries).ndim == 1
    queries = np.atleast_2d(np.asarray(packed_queries, dtype=np.uint64))
    classes = np.atleast_2d(np.asarray(packed_classes, dtype=np.uint64))
    sims = packed_dot(queries, classes, dim) / dim
    return sims[0] if single else sims


def classify(class_matrix: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Inference: ``argmax_k δ(C_k, H)`` for each query.

    This is the paper's inference procedure (Sec. III): compute the query
    hypervector's similarity against all class hypervectors and pick the
    most similar class by :func:`dot_similarity`.  On bipolar
    hypervectors the argmax of :func:`packed_cosine_similarity` over the
    bit-packed operands ranks the same (ties break to the lowest class
    index in both).
    """
    return np.asarray(dot_similarity(class_matrix, queries).argmax(axis=-1))
