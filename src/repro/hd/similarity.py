"""Similarity metrics between hypervectors and class-hypervector matrices.

The paper's δ(·,·) is the dot-product similarity most often used for
bipolar hypervectors (Sec. II).  Cosine and normalized Hamming are provided
for completeness and for the analysis utilities.
"""

from __future__ import annotations

import numpy as np

from ..telemetry import get_registry, span
from .backend import packed_dot

__all__ = ["dot_similarity", "cosine_similarity", "hamming_similarity",
           "packed_cosine_similarity", "packed_hamming_similarity",
           "packed_classify", "classify"]


def _count_queries(class_matrix: np.ndarray, queries: np.ndarray) -> None:
    """Counter bookkeeping shared by the similarity kernels.

    Follows the Fig. 5 accounting: a k-class similarity sweep over
    D-dimensional hypervectors costs k·D MACs per query.
    """
    n = 1 if queries.ndim == 1 else int(queries.shape[0])
    k, dim = class_matrix.shape[-2], class_matrix.shape[-1]
    registry = get_registry()
    registry.inc("hd.similarity.queries", n)
    registry.inc("hd.similarity.macs", n * k * dim)


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
    _count_queries(class_matrix, queries)
    with span("hd.similarity.dot", nbytes=int(queries.nbytes)):
        if queries.ndim == 1:
            return class_matrix @ queries
        return queries @ class_matrix.T


def cosine_similarity(class_matrix: np.ndarray,
                      queries: np.ndarray) -> np.ndarray:
    """Cosine similarity between queries and each class hypervector."""
    class_matrix = np.asarray(class_matrix, dtype=np.float64)
    queries = np.asarray(queries, dtype=np.float64)
    _count_queries(class_matrix, queries)
    with span("hd.similarity.cosine", nbytes=int(queries.nbytes)):
        class_norms = np.linalg.norm(class_matrix, axis=-1)
        class_norms = np.where(class_norms == 0, 1.0, class_norms)
        if queries.ndim == 1:
            q_norm = np.linalg.norm(queries)
            q_norm = 1.0 if q_norm == 0 else q_norm
            return (class_matrix @ queries) / (class_norms * q_norm)
        q_norms = np.linalg.norm(queries, axis=-1, keepdims=True)
        q_norms = np.where(q_norms == 0, 1.0, q_norms)
        return (queries @ class_matrix.T) / (q_norms * class_norms[None, :])


def hamming_similarity(class_matrix: np.ndarray,
                       queries: np.ndarray) -> np.ndarray:
    """Fraction of matching components for bipolar hypervectors (in [0,1])."""
    class_matrix = np.asarray(class_matrix)
    queries = np.asarray(queries)
    dim = class_matrix.shape[-1]
    dots = dot_similarity(np.sign(class_matrix), np.sign(queries))
    return (dots / dim + 1.0) / 2.0


def packed_cosine_similarity(packed_classes: np.ndarray,
                             packed_queries: np.ndarray,
                             dim: int) -> np.ndarray:
    """Cosine similarity ``dot / D`` from **bit-packed** bipolar operands.

    The serving fast path (Schmuck et al., "Hardware Optimizations of
    Dense Binary HD Computing"): bipolar hypervectors packed into uint64
    words via :func:`repro.hd.backend.pack_bipolar`; the similarity sweep
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
    n, k = queries.shape[0], classes.shape[0]
    registry = get_registry()
    registry.inc("hd.similarity.queries", n)
    registry.inc("hd.similarity.packed_bitops", n * k * classes.shape[1])
    with span("hd.similarity.packed", nbytes=int(queries.nbytes)):
        dots = packed_dot(queries, classes, dim)
    sims = dots / dim
    return sims[0] if single else sims


def packed_hamming_similarity(packed_classes: np.ndarray,
                              packed_queries: np.ndarray,
                              dim: int) -> np.ndarray:
    """Normalized Hamming similarity in ``[0, 1]`` from bit-packed
    operands: ``(cosine + 1) / 2`` of
    :func:`packed_cosine_similarity`, equal to
    :func:`hamming_similarity` on the unpacked bipolar operands."""
    return (packed_cosine_similarity(packed_classes, packed_queries,
                                     dim) + 1.0) / 2.0


def packed_classify(packed_classes: np.ndarray, packed_queries: np.ndarray,
                    dim: int) -> np.ndarray:
    """``argmax_k`` over packed XOR-popcount similarities.

    Ranks identically to ``classify(classes, queries, metric="dot")`` on
    the unpacked bipolar operands (ties break to the lowest class index
    in both, since packed dots are exact integers).
    """
    sims = packed_cosine_similarity(packed_classes, packed_queries, dim)
    return np.asarray(sims.argmax(axis=-1))


def classify(class_matrix: np.ndarray, queries: np.ndarray,
             metric: str = "dot") -> np.ndarray:
    """Inference: ``argmax_k δ(C_k, H)`` for each query.

    This is the paper's inference procedure (Sec. III): compute the query
    hypervector's similarity against all class hypervectors and pick the
    most similar class.  The bit-packed XOR-popcount path, which ranks
    like ``"dot"`` on bipolar hypervectors, is :func:`packed_classify`.
    """
    metrics = {
        "dot": dot_similarity,
        "cosine": cosine_similarity,
        "hamming": hamming_similarity,
    }
    if metric not in metrics:
        raise ValueError(f"unknown metric {metric!r}; expected one of "
                         f"{sorted(metrics)}")
    sims = metrics[metric](class_matrix, queries)
    return np.asarray(sims.argmax(axis=-1))
