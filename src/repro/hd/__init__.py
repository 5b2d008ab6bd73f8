"""Hyperdimensional computing core.

Hypervector algebra (:mod:`repro.hd.hypervector`), similarity metrics
(:mod:`repro.hd.similarity`), the feature encoders used across the paper's
evaluation (:mod:`repro.hd.encoders`), and the bit-packed binary backend
that mirrors the paper's constant-memory CUDA kernels
(:mod:`repro.hd.backend`).
"""

from .backend import (pack_bipolar, pack_signs, packed_dot, popcount,
                      unpack_bipolar)
from .encoders import (Encoder, IDLevelEncoder, NonlinearEncoder,
                       RandomProjectionEncoder)
from .hypervector import (bind, bundle, expected_overlap_std, hard_quantize,
                          is_bipolar, random_bipolar, random_gaussian)
from .similarity import (classify, cosine_similarity, dot_similarity,
                         packed_cosine_similarity)

__all__ = [
    "bind", "bundle", "hard_quantize", "is_bipolar",
    "random_bipolar", "random_gaussian", "expected_overlap_std",
    "dot_similarity", "cosine_similarity", "classify",
    "packed_cosine_similarity",
    "Encoder", "RandomProjectionEncoder", "NonlinearEncoder",
    "IDLevelEncoder",
    "pack_signs", "pack_bipolar", "unpack_bipolar", "packed_dot", "popcount",
]
