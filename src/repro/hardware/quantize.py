"""Post-training quantization of the NSHD inference path (Sec. VI-B).

The paper compiles NSHD through Vitis AI, which quantizes the model to
int8, and observes "very minor impacts on the prediction quality".  This
module reproduces that deployment step: symmetric per-tensor int8
quantization of the float stages (manifold FC weights, class
hypervectors, features) — the projection is already 1-bit — plus a
quantized inference routine so the claim is testable.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..nn.functional import strided_max_pool

__all__ = ["QuantizedTensor", "quantize_symmetric", "QuantizedNSHD"]


@dataclass
class QuantizedTensor:
    """Symmetric int8 tensor: ``values ≈ q * scale``."""

    q: np.ndarray          # int8 payload
    scale: float

    def dequantize(self) -> np.ndarray:
        return self.q.astype(np.float64) * self.scale

    @property
    def nbytes(self) -> int:
        return self.q.nbytes


def quantize_symmetric(values: np.ndarray, bits: int = 8
                       ) -> QuantizedTensor:
    """Symmetric per-tensor quantization to ``bits`` (default int8)."""
    if not 2 <= bits <= 16:
        raise ValueError("bits must be in [2, 16]")
    values = np.asarray(values, dtype=np.float64)
    qmax = 2 ** (bits - 1) - 1
    peak = np.abs(values).max()
    scale = (peak / qmax) if peak > 0 else 1.0
    q = np.clip(np.round(values / scale), -qmax, qmax)
    dtype = np.int8 if bits <= 8 else np.int16
    return QuantizedTensor(q.astype(dtype), float(scale))


class QuantizedNSHD:
    """Int8 deployment view of a trained :class:`repro.learn.NSHD` model.

    Quantizes the manifold FC (weights + per-batch activations) and the
    class hypervectors; the random projection stays 1-bit.  Inference
    runs entirely on integer payloads with float rescaling at stage
    boundaries, mirroring the DPU execution model.
    """

    def __init__(self, nshd, bits: int = 8):
        self.nshd = nshd
        self.bits = bits
        if nshd.manifold is not None:
            self.fc_weight = quantize_symmetric(
                nshd.manifold.fc.weight.data, bits)
            self.fc_bias = nshd.manifold.fc.bias.data.copy() \
                if nshd.manifold.fc.bias is not None else None
        else:
            self.fc_weight = None
            self.fc_bias = None
        self.class_matrix = quantize_symmetric(nshd.trainer.class_matrix,
                                               bits)

    # ------------------------------------------------------------------
    def _reduced(self, features_scaled: np.ndarray) -> np.ndarray:
        manifold = self.nshd.manifold
        if manifold is None:
            return features_scaled
        x = features_scaled.reshape(-1, *manifold.feature_shape)
        if manifold.pooling:
            x = strided_max_pool(x)
        pooled = x.reshape(len(x), -1)
        q_in = quantize_symmetric(pooled, self.bits)
        # Integer GEMM with a single rescale, DPU style.
        acc = q_in.q.astype(np.int32) @ \
            self.fc_weight.q.astype(np.int32).T
        out = acc.astype(np.float64) * (q_in.scale * self.fc_weight.scale)
        if self.fc_bias is not None:
            out = out + self.fc_bias
        return out

    def predict(self, images: np.ndarray) -> np.ndarray:
        return self.predict_features(self.nshd.extractor.extract(images))

    def predict_features(self, raw_features: np.ndarray) -> np.ndarray:
        """Quantized prediction from precomputed (raw) extractor features."""
        features = self.nshd.scaler.transform(raw_features)
        reduced = self._reduced(features)
        encoded = self.nshd.encoder.encode(reduced)  # 1-bit stage
        sims = encoded @ self.class_matrix.q.astype(np.float64).T
        return sims.argmax(axis=1)

    def accuracy_features(self, raw_features: np.ndarray,
                          labels: np.ndarray) -> float:
        return float((self.predict_features(raw_features) ==
                      np.asarray(labels)).mean())

    def model_bytes(self) -> int:
        """Quantized payload size (FC + class HVs + binary projection)."""
        total = self.class_matrix.nbytes
        if self.fc_weight is not None:
            total += self.fc_weight.nbytes
            if self.fc_bias is not None:
                total += self.fc_bias.nbytes
        proj = self.nshd.encoder
        total += (proj.in_features * proj.dim + 7) // 8
        return total
