"""Feature-to-hypervector encoders.

Implements every encoding used in the paper's evaluation:

* :class:`RandomProjectionEncoder` — the paper's Φ_P (Sec. IV-B): bind each
  feature value with a bipolar base hypervector, bundle, then ``sign``.
  Algebraically ``H = sign(V @ P)`` with ``P`` an ``F×D`` bipolar matrix.
* :class:`NonlinearEncoder` — the "state-of-the-art non-linear encoding"
  [6] used by the VanillaHD baseline (the one the introduction reports at
  ~40%/~20% accuracy on CIFAR-10/100 raw pixels).
* :class:`IDLevelEncoder` — the classic record-based (ID × level) encoding
  from the early HD literature, included for ablations.
"""

from __future__ import annotations

import copy
from typing import Optional

import numpy as np

from ..telemetry import get_registry, span
from .hypervector import (hard_quantize, is_bipolar, random_bipolar,
                          random_gaussian)

__all__ = ["Encoder", "RandomProjectionEncoder", "NonlinearEncoder",
           "IDLevelEncoder", "certified_signs",
           "CERTIFIED_MAX_FEATURES"]

#: Largest inner dimension ``K`` for which :func:`certified_signs`'
#: ``(K + 2)·2⁻²⁴`` coefficient bounds the float32 error (it needs
#: ``K²·2⁻²⁴`` well below 2).
CERTIFIED_MAX_FEATURES = 4096

#: A row whose ℓ₁ norm exceeds this cannot overflow a float32 partial sum.
_FLOAT32_SAFE_NORM = 2.0 ** 127


class Encoder:
    """Base class for feature-space → hyperspace encoders."""

    def __init__(self, in_features: int, dim: int):
        if in_features <= 0 or dim <= 0:
            raise ValueError("in_features and dim must be positive")
        self.in_features = in_features
        self.dim = dim

    def _check(self, features: np.ndarray) -> np.ndarray:
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if features.shape[-1] != self.in_features:
            raise ValueError(
                f"encoder expects {self.in_features} features, got "
                f"{features.shape[-1]}")
        return features

    def _telemetry_span(self, features: np.ndarray) -> span:
        """Span + counters for one :meth:`encode` call.

        Every encoder's ``encode`` wraps its math in this span so the
        tracer can attribute per-encoder wall time and bytes; samples and
        MAC estimates land in the global metrics registry.
        """
        n = 1 if features.ndim == 1 else int(features.shape[0])
        registry = get_registry()
        registry.inc("hd.encode.samples", n)
        registry.inc("hd.encode.macs", n * self.macs_per_sample())
        return span(f"hd.encode.{type(self).__name__}",
                    nbytes=int(np.asarray(features).nbytes))

    def encode(self, features: np.ndarray) -> np.ndarray:
        """Encode ``(n, F)`` features into ``(n, D)`` hypervectors."""
        raise NotImplementedError

    def signs(self, features: np.ndarray) -> np.ndarray:
        """The ``(n, D)`` booleans ``encode_raw(features) >= 0``: the bits
        a packed encode stage stores (NaN reads as ``False``)."""
        return self.encode_raw(features) >= 0

    def for_signs(self) -> "Encoder":
        """The encoder a packed encode stage calls :meth:`signs` on.

        Built once, when the stage's packed copy is made, so nothing is
        prepared lazily under concurrent requests.  ``self`` by default.
        """
        return self

    def macs_per_sample(self) -> int:
        """Multiply-accumulate operations to encode one sample.

        Follows the paper's Fig. 5 accounting: binding/bundling are counted
        as element-wise multiply/add pairs, i.e. one MAC per feature per
        hypervector dimension.
        """
        raise NotImplementedError


def certified_signs(x: np.ndarray, projection: np.ndarray,
                    projection32: np.ndarray) -> np.ndarray:
    """``(x @ projection) >= 0`` bit for bit, from a ``float32`` GEMM.

    ``projection`` is a ``(K, D)`` ±1 matrix and ``projection32`` its
    (exact) ``float32`` cast; ``x`` is ``(n, K)`` float64.  With
    ``v = float32(x) @ projection32``, entry ``(r, j)`` is certain where
    ``|v| > τ_r``::

        τ_r = ((K + 2)·2⁻²⁴ + (K + 1)·2⁻⁵³)·‖x_r‖₁ + K·2⁻¹⁴⁹

    rounded up to ``float32``.  The first term bounds the float32 cast
    and summation error, in any summation order; the second the float64
    GEMM's, so there both GEMMs have the exact sign (never zero); the
    third float32 underflow.  Uncertain entries are recomputed in
    float64, in any order, and accepted where ``|v64| > 2(K + 1)·2⁻⁵³·
    ‖x_r‖₁``, which again fixes the float64 GEMM's sign.  The call
    returns ``x @ projection >= 0`` itself when an entry stays
    undecided (an exact or near-exact tie), when more than 1/256 of the
    entries are uncertain, or when a row's ℓ₁ norm is not finite or
    could overflow a float32 sum.
    """
    k, d = projection.shape
    norm1 = np.abs(x).sum(axis=1)
    if not np.all(norm1 <= _FLOAT32_SAFE_NORM):  # NaN, ±Inf, overflow
        return x @ projection >= 0
    tau = ((k + 2) * 2.0 ** -24 + (k + 1) * 2.0 ** -53) * norm1 \
        + k * 2.0 ** -149
    tau32 = np.nextafter(tau.astype(np.float32), np.float32(np.inf))
    v = x.astype(np.float32) @ projection32
    signs = v >= 0
    # Rows holding an uncertain entry, then those entries: a row-wise
    # min and a 1-D nonzero are far cheaper than a 2-D nonzero.
    near = np.flatnonzero(np.abs(v, out=v).min(axis=1) <= tau32)
    if len(near):
        flat = np.flatnonzero(v[near] <= tau32[near, None])
        if len(flat) > max(64, signs.size >> 8):
            return x @ projection >= 0
        rows, cols = near[flat // d], flat % d
        exact = np.einsum("ij,ji->i", x[rows], projection[:, cols])
        if np.any(np.abs(exact) <= 2 * (k + 1) * 2.0 ** -53 * norm1[rows]):
            return x @ projection >= 0
        signs[rows, cols] = exact >= 0
    return signs


class RandomProjectionEncoder(Encoder):
    """Binary random projection encoding (the paper's Φ_P).

    ``H = sign(V_1 ⊗ P_1 ⊕ … ⊕ V_F ⊗ P_F) = sign(V @ P)`` where each row
    ``P_f`` is a random bipolar base hypervector.
    """

    #: ``float32`` copy of the ±1 projection, set by :meth:`for_signs`;
    #: :meth:`signs` runs the certified float32 GEMM only where it is set.
    _projection32: Optional[np.ndarray] = None

    #: The projection array known to be ±1 since construction;
    #: :meth:`for_signs` checks any other array assigned to ``projection``.
    _bipolar: Optional[np.ndarray] = None

    def __init__(self, in_features: int, dim: int,
                 rng: Optional[np.random.Generator] = None,
                 quantize: bool = True):
        super().__init__(in_features, dim)
        self.projection = self._bipolar = random_bipolar(in_features, dim,
                                                         rng)
        self.quantize = quantize

    @classmethod
    def from_arrays(cls, projection: np.ndarray, quantize: bool = True,
                    checked: bool = False) -> "RandomProjectionEncoder":
        """Rebuild an encoder around a stored projection matrix.

        Used by frozen serving/checkpoint stages: no RNG is touched, the
        stored ``(F, D)`` matrix is adopted verbatim so encodings are
        bit-identical to the training-time encoder.  Φ_P's projection is
        bipolar; any other matrix raises :class:`ValueError`, unless
        ``checked`` says the caller has verified that already
        (:meth:`repro.serve.ModelBundle.validate`).
        """
        projection = np.asarray(projection, dtype=np.float64)
        if projection.ndim != 2:
            raise ValueError("projection must be a 2-D (F, D) matrix")
        if not checked and not is_bipolar(projection):
            raise ValueError("projection must be bipolar: every entry "
                             "exactly -1 or +1")
        encoder = cls.__new__(cls)
        Encoder.__init__(encoder, int(projection.shape[0]),
                         int(projection.shape[1]))
        encoder.projection = encoder._bipolar = projection
        encoder.quantize = bool(quantize)
        return encoder

    def encode(self, features: np.ndarray) -> np.ndarray:
        raw = self.encode_raw(features)
        return hard_quantize(raw) if self.quantize else raw

    def encode_raw(self, features: np.ndarray) -> np.ndarray:
        """Pre-``sign`` bundle values ``V @ P``."""
        features = self._check(features)
        with self._telemetry_span(features):
            return features @ self.projection

    def for_signs(self) -> "RandomProjectionEncoder":
        """A copy whose :meth:`signs` runs on a ``float32`` GEMM.

        ``P`` is exactly ±1, so its ``float32`` cast is exact.  Where
        :func:`certified_signs`' error bound does not hold — ``P`` is not
        bipolar, or ``F`` exceeds :data:`CERTIFIED_MAX_FEATURES` — the
        encoder itself is returned and keeps the float64 GEMM.
        """
        if self.in_features > CERTIFIED_MAX_FEATURES or (
                self.projection is not self._bipolar
                and not is_bipolar(self.projection)):
            return self
        encoder = copy.copy(self)
        encoder._projection32 = self.projection.astype(np.float32)
        return encoder

    def signs(self, features: np.ndarray) -> np.ndarray:
        """``encode_raw(features) >= 0`` bit for bit (see
        :func:`certified_signs`), on the ``float32`` GEMM of a
        :meth:`for_signs` copy."""
        if self._projection32 is None:
            return super().signs(features)
        features = self._check(features)
        with self._telemetry_span(features):
            return certified_signs(features, self.projection,
                                   self._projection32)

    def decode(self, hypervectors: np.ndarray) -> np.ndarray:
        """Approximately invert the projection (paper Sec. V-C).

        HD decoding [2] binds with the base hypervectors and takes the dot
        product per feature: ``V̂_f = <H, P_f> / D``.  Because the rows of
        ``P`` are quasi-orthogonal (``P Pᵀ ≈ D·I``), this recovers feature
        values up to O(1/sqrt(D)) crosstalk.
        """
        hypervectors = np.atleast_2d(np.asarray(hypervectors,
                                                dtype=np.float64))
        return hypervectors @ self.projection.T / self.dim

    def macs_per_sample(self) -> int:
        return self.in_features * self.dim


class NonlinearEncoder(Encoder):
    """Non-linear (kernel-trick) encoding from [6] / OnlineHD.

    ``H_d = cos(V·B_d + b_d) · sin(V·B_d)`` with Gaussian base vectors
    ``B`` and uniform phases ``b``; optionally hard-quantized to bipolar.
    This approximates an RBF kernel feature map, which is what makes it the
    strongest *standalone* HD encoder — and still, per the paper's
    introduction, far below CNNs on image data.
    """

    def __init__(self, in_features: int, dim: int,
                 rng: Optional[np.random.Generator] = None,
                 quantize: bool = False, bandwidth: float = 1.0):
        super().__init__(in_features, dim)
        rng = rng or np.random.default_rng()
        self.basis = random_gaussian(in_features, dim, rng) * bandwidth
        self.phase = rng.uniform(0.0, 2.0 * np.pi, size=dim)
        self.quantize = quantize

    @classmethod
    def from_arrays(cls, basis: np.ndarray, phase: np.ndarray,
                    quantize: bool = False) -> "NonlinearEncoder":
        """Rebuild an encoder around stored basis/phase arrays.

        Frozen counterpart of the randomized constructor — adopts the
        stored ``(F, D)`` basis and ``(D,)`` phase verbatim (no RNG) so
        encodings are bit-identical to the training-time encoder.
        """
        basis = np.asarray(basis, dtype=np.float64)
        phase = np.asarray(phase, dtype=np.float64)
        if basis.ndim != 2:
            raise ValueError("basis must be a 2-D (F, D) matrix")
        if phase.shape != (basis.shape[1],):
            raise ValueError("phase must have shape (D,)")
        encoder = cls.__new__(cls)
        Encoder.__init__(encoder, int(basis.shape[0]), int(basis.shape[1]))
        encoder.basis = basis
        encoder.phase = phase
        encoder.quantize = bool(quantize)
        return encoder

    def encode(self, features: np.ndarray) -> np.ndarray:
        raw = self.encode_raw(features)
        return hard_quantize(raw) if self.quantize else raw

    def encode_raw(self, features: np.ndarray) -> np.ndarray:
        """Pre-``sign`` values ``cos(V·B + b) · sin(V·B)``."""
        features = self._check(features)
        with self._telemetry_span(features):
            proj = features @ self.basis
            return np.cos(proj + self.phase) * np.sin(proj)

    def macs_per_sample(self) -> int:
        return self.in_features * self.dim


class IDLevelEncoder(Encoder):
    """Record-based encoding: bind per-feature ID and quantized level HVs.

    Level hypervectors are correlated: the vector for level ``l+1`` differs
    from level ``l`` in ``D / (2·levels)`` random positions so that nearby
    feature values stay similar in hyperspace.
    """

    def __init__(self, in_features: int, dim: int, levels: int = 16,
                 value_range=(0.0, 1.0),
                 rng: Optional[np.random.Generator] = None):
        super().__init__(in_features, dim)
        if levels < 2:
            raise ValueError("need at least two quantization levels")
        rng = rng or np.random.default_rng()
        self.levels = levels
        self.low, self.high = value_range
        if self.high <= self.low:
            raise ValueError("value_range must be increasing")
        self.id_memory = random_bipolar(in_features, dim, rng)
        level_hvs = np.empty((levels, dim))
        level_hvs[0] = random_bipolar(1, dim, rng)[0]
        flips_per_step = max(1, dim // (2 * levels))
        for level in range(1, levels):
            level_hvs[level] = level_hvs[level - 1]
            positions = rng.choice(dim, size=flips_per_step, replace=False)
            level_hvs[level, positions] *= -1.0
        self.level_memory = level_hvs

    def quantize_values(self, features: np.ndarray) -> np.ndarray:
        span = self.high - self.low
        normalized = (np.clip(features, self.low, self.high) - self.low) / span
        return np.minimum((normalized * self.levels).astype(int),
                          self.levels - 1)

    def encode(self, features: np.ndarray) -> np.ndarray:
        features = self._check(features)
        with self._telemetry_span(features):
            indices = self.quantize_values(features)
            bound = self.id_memory[None, :, :] * self.level_memory[indices]
            return hard_quantize(bound.sum(axis=1))

    def macs_per_sample(self) -> int:
        return self.in_features * self.dim

