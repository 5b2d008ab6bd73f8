"""Analytic GPU energy model (NVIDIA Xavier-class edge SoC).

The paper measures inference energy on an NVIDIA Xavier with nvidia-smi
(Sec. VII-A).  Offline we model energy from first principles:

    E = E_compute + E_weight_traffic + E_activation_traffic

with per-operation/per-byte costs taken from the standard accelerator
energy literature (Horowitz ISSCC'14 scaled to a 16 nm edge SoC).  All of
Fig. 4's *relative* improvements depend only on ratios of these terms,
which are driven by the exact MAC/byte counts measured from the model —
the absolute Joule calibration cancels out.

Binary hypervector item memories are costed at the "constant memory"
rate (cached, 1 bit/component), reproducing the Sec. VI-A optimization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from ..models.base import IndexedCNN
from .macs import count_parameters, model_macs, nshd_macs

__all__ = ["EnergyModel", "XAVIER_ENERGY", "cnn_inference_energy",
           "nshd_inference_energy", "energy_improvement"]


@dataclass(frozen=True)
class EnergyModel:
    """Per-operation energy constants (picojoules).

    ``binary_op_pj`` covers the bit-packed HD operations of Sec. VI-A:
    a bipolar bind/accumulate is a 1-bit XNOR-popcount step — roughly an
    eighth of an 8-bit MAC in both switching energy and operand traffic.
    """

    mac_pj: float = 1.0             # int8/fp16 multiply-accumulate
    binary_op_pj: float = 0.125     # packed 1-bit bind/accumulate
    dram_pj_per_byte: float = 20.0  # off-chip weight traffic
    sram_pj_per_byte: float = 1.0   # on-chip activation traffic
    const_pj_per_byte: float = 0.5  # cached constant-memory traffic

    def compute(self, macs: int) -> float:
        return self.mac_pj * macs

    def compute_binary(self, ops: int) -> float:
        return self.binary_op_pj * ops

    def weights(self, num_bytes: int) -> float:
        return self.dram_pj_per_byte * num_bytes

    def activations(self, num_bytes: int) -> float:
        return self.sram_pj_per_byte * num_bytes

    def constants(self, num_bytes: int) -> float:
        return self.const_pj_per_byte * num_bytes


#: Default constants used by the Fig. 4 benchmark.
XAVIER_ENERGY = EnergyModel()

_FLOAT_BYTES = 4


def cnn_inference_energy(model: IndexedCNN,
                         energy: EnergyModel = XAVIER_ENERGY
                         ) -> Dict[str, float]:
    """Per-inference energy (pJ) of the full CNN."""
    macs = model_macs(model)
    weight_bytes = count_parameters(model) * _FLOAT_BYTES
    breakdown = {
        "compute": energy.compute(macs),
        "weights": energy.weights(weight_bytes),
        "activations": energy.activations(macs // 4),  # ~1 byte / 4 MACs
    }
    breakdown["total"] = sum(breakdown.values())
    return breakdown


def _hd_energy(stages: Dict[str, int], trunk_params: int,
               manifold_params: int, projection_bits: int,
               class_hv_values: int, energy: EnergyModel
               ) -> Dict[str, float]:
    float_macs = stages["trunk"] + stages["manifold"]
    binary_ops = stages["encode"] + stages["similarity"]
    # CNN trunk weights stream from DRAM each inference (they are the
    # multi-MB part).  The HD section — manifold FC, class hypervectors,
    # binary projection — is small enough to stay resident on-chip
    # (Sec. VI-A's constant-memory layout), so it is charged at the
    # cached-access rates.
    trunk_weight_bytes = trunk_params * _FLOAT_BYTES
    resident_bytes = manifold_params * _FLOAT_BYTES + \
        class_hv_values * _FLOAT_BYTES
    constant_bytes = (projection_bits + 7) // 8
    breakdown = {
        "compute": energy.compute(float_macs) +
        energy.compute_binary(binary_ops),
        "weights": energy.weights(trunk_weight_bytes),
        "resident": energy.activations(resident_bytes),
        "constants": energy.constants(constant_bytes),
        "activations": energy.activations(float_macs // 4),
    }
    breakdown["total"] = sum(breakdown.values())
    return breakdown


def nshd_inference_energy(model: IndexedCNN, layer_index: int, dim: int,
                          reduced_features: int, num_classes: int,
                          energy: EnergyModel = XAVIER_ENERGY
                          ) -> Dict[str, float]:
    """Per-inference energy (pJ) of NSHD cut at ``layer_index``."""
    stages = nshd_macs(model, layer_index, dim, reduced_features,
                       num_classes)
    manifold_params = stages["manifold"] // max(1, reduced_features) * \
        reduced_features + reduced_features
    return _hd_energy(
        stages,
        trunk_params=count_parameters(model, layer_index),
        manifold_params=manifold_params,
        projection_bits=reduced_features * dim,
        class_hv_values=num_classes * dim,
        energy=energy)


def energy_improvement(cnn_energy: float, system_energy: float) -> float:
    """Fractional energy saving of a system vs the CNN (Fig. 4's y-axis)."""
    if cnn_energy <= 0:
        raise ValueError("cnn_energy must be positive")
    return 1.0 - system_energy / cnn_energy
