"""Bit-packed binary hypervector kernels.

The paper's GPGPU implementation (Sec. VI-A) exploits the binary nature of
hypervectors: bipolar vectors are stored one bit per component in CUDA
constant memory and similarity reduces to popcount arithmetic with no
multiplications.  This module is the CPU realization of the same idea —
bipolar {-1,+1} vectors are packed into ``uint64`` words and dot products
are computed as ``D - 2·popcount(xor)``.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pack_signs", "pack_bipolar", "unpack_bipolar", "packed_dot",
           "popcount"]

_WORD_BITS = 64

# 8-bit popcount lookup table; used when numpy lacks ``bitwise_count``.
_POPCOUNT_TABLE = np.array([bin(i).count("1") for i in range(256)],
                           dtype=np.uint64)


def popcount(words: np.ndarray) -> np.ndarray:
    """Per-element popcount of a ``uint64`` array."""
    words = np.ascontiguousarray(words, dtype=np.uint64)
    if hasattr(np, "bitwise_count"):
        return np.bitwise_count(words).astype(np.uint64)
    as_bytes = words.view(np.uint8).reshape(*words.shape, 8)
    return _POPCOUNT_TABLE[as_bytes].sum(axis=-1)


def pack_signs(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(n, D)`` matrix into ``(n, ceil(D/64))`` words.

    Bit ``i`` of a row is bit ``i % 64`` of word ``i // 64``; the tail
    of the last word is zero.  The padding to whole words is added to
    the packed bytes, not to the ``D`` booleans.
    """
    bits = np.atleast_2d(np.asarray(bits, dtype=bool))
    packed = np.packbits(bits, axis=1, bitorder="little")
    pad = (-packed.shape[1]) % (_WORD_BITS // 8)
    if pad:
        packed = np.concatenate(
            [packed, np.zeros((len(packed), pad), dtype=np.uint8)], axis=1)
    return packed.view(np.uint64)


def pack_bipolar(hvs: np.ndarray) -> np.ndarray:
    """Pack bipolar hypervectors ``(n, D)`` into ``(n, ceil(D/64))`` words.

    A ``+1`` component becomes a set bit.  Values must be exactly ±1.
    """
    hvs = np.atleast_2d(np.asarray(hvs))
    if not np.all(np.abs(hvs) == 1.0):
        raise ValueError("pack_bipolar requires components in {-1, +1}")
    return pack_signs(hvs > 0)


def unpack_bipolar(packed: np.ndarray, dim: int) -> np.ndarray:
    """Inverse of :func:`pack_bipolar`, recovering ``(n, dim)`` ±1 floats."""
    packed = np.atleast_2d(np.asarray(packed, dtype=np.uint64))
    as_bytes = packed.view(np.uint8)
    bits = np.unpackbits(as_bytes, axis=1, bitorder="little")[:, :dim]
    return bits.astype(np.float64) * 2.0 - 1.0


def packed_dot(a: np.ndarray, b: np.ndarray, dim: int) -> np.ndarray:
    """Dot products of packed bipolar hypervectors without multiplication.

    For bipolar vectors with ``d`` differing components out of ``dim``,
    ``dot = dim - 2 d`` and ``d = popcount(a XOR b)``; the zero padding in
    the final word cancels because XOR of equal padding is zero.

    Parameters
    ----------
    a: ``(n, W)`` packed queries.
    b: ``(k, W)`` packed class hypervectors.

    Returns
    -------
    ``(n, k)`` integer dot products.
    """
    a = np.atleast_2d(np.asarray(a, dtype=np.uint64))
    b = np.atleast_2d(np.asarray(b, dtype=np.uint64))
    if a.shape[1] != b.shape[1]:
        raise ValueError("packed operands have mismatched word counts")
    diff = popcount(a[:, None, :] ^ b[None, :, :]).sum(axis=-1)
    return dim - 2 * diff.astype(np.int64)

