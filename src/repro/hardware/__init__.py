"""Analytic efficiency substrate: MACs, model size, GPU energy, FPGA DPU.

These models replace the paper's physical measurement infrastructure
(Xavier + nvidia-smi, ZCU104 + Vitis AI) with first-principles cost
models fed by exact layer shapes; see DESIGN.md §1 for the substitution
rationale.
"""

from .energy import (XAVIER_ENERGY, EnergyModel, cnn_inference_energy,
                     energy_improvement, nshd_inference_energy)
from .fpga import ZCU104_DPU, DPUConfig, DPUModel, ResourceUsage
from .quantize import QuantizedNSHD, QuantizedTensor, quantize_symmetric
from .macs import (LayerCost, baselinehd_macs, count_parameters,
                   hd_encode_macs, hd_similarity_macs, model_macs,
                   nshd_macs, trace_costs, trunk_macs)
from .size import (SizeBreakdown, baselinehd_size_bytes, cnn_size_bytes,
                   nshd_size_bytes)

__all__ = [
    "LayerCost", "trace_costs", "model_macs", "trunk_macs",
    "hd_encode_macs", "hd_similarity_macs", "nshd_macs", "baselinehd_macs",
    "count_parameters",
    "SizeBreakdown", "cnn_size_bytes", "nshd_size_bytes",
    "baselinehd_size_bytes",
    "EnergyModel", "XAVIER_ENERGY", "cnn_inference_energy",
    "nshd_inference_energy", "energy_improvement",
    "ResourceUsage", "DPUConfig", "ZCU104_DPU", "DPUModel",
    "QuantizedTensor", "quantize_symmetric", "QuantizedNSHD",
]
