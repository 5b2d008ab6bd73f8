"""FPGA DPU accelerator model (Xilinx ZCU104, Vitis-AI DPU).

The paper deploys NSHD on a ZCU104 by compiling the whole pipeline — conv
trunk, manifold FC and HD stages — into the Xilinx DPU as quantized tensor
ops (Sec. VI-B).  This module is the analytic stand-in:

* :class:`DPUConfig` carries the resource ledger of Table I (a DPU-B4096
  style core on the ZCU104 programmable logic at 200 MHz / 4.427 W);
* :class:`DPUModel` estimates per-inference cycles from the same MAC
  counts used everywhere else, with per-stage utilization factors that
  encode the DPU's well-known behaviour (dense convs near peak, depthwise
  and GEMM memory-bound, binary HD ops benefiting from 8-bit packing);
* FPS follows directly from the cycles and the clock, feeding Figs. 6
  and 10.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..models.base import IndexedCNN
from .macs import model_macs, nshd_macs

__all__ = ["ResourceUsage", "DPUConfig", "ZCU104_DPU", "DPUModel"]


@dataclass(frozen=True)
class ResourceUsage:
    """One row of the Table I resource ledger."""

    used: float
    available: float

    @property
    def utilization(self) -> float:
        return self.used / self.available


@dataclass(frozen=True)
class DPUConfig:
    """DPU core configuration and PL resource footprint.

    Default numbers reproduce Table I exactly: 84.9K/230.4K LUT,
    146.5K/460.8K FF, 224/312 BRAM, 40/96 URAM, 844/1728 DSP at 200 MHz
    and 4.427 W.
    """

    name: str = "DPU-B4096@ZCU104"
    frequency_hz: float = 200e6
    power_w: float = 4.427
    peak_macs_per_cycle: int = 4096
    #: Fixed per-inference cycles (PS<->PL transfer + scheduling).  On real
    #: hardware this is tens of thousands of cycles; it is scaled down here
    #: in proportion to the reproduction's scaled-down model sizes so the
    #: compute/overhead balance matches the paper's regime.
    overhead_cycles: int = 200
    resources: Dict[str, ResourceUsage] = field(default_factory=lambda: {
        "LUT": ResourceUsage(84_900, 230_400),
        "FF": ResourceUsage(146_500, 460_800),
        "BRAM": ResourceUsage(224, 312),
        "URAM": ResourceUsage(40, 96),
        "DSP": ResourceUsage(844, 1728),
    })

    def utilization_table(self) -> Dict[str, float]:
        return {kind: usage.utilization
                for kind, usage in self.resources.items()}


ZCU104_DPU = DPUConfig()

#: Effective MAC-equivalents of peak throughput per pipeline stage.
#: Dense convolutions stream at ~60% of the array's peak; the manifold FC
#: is a weight-bandwidth-bound GEMV (~25%); the binary HD stages run
#: *above* nominal peak because packed 1-bit operands fit 8 ops into each
#: 8-bit DSP lane (Sec. VI-A/B), i.e. 0.6 utilization x 8 packing.
_STAGE_EFFICIENCY = {
    "trunk": 0.60,
    "cnn": 0.60,
    "manifold": 0.25,
    "encode": 4.8,
    "similarity": 4.8,
}

class DPUModel:
    """Cycle/FPS estimator for models mapped onto the DPU."""

    def __init__(self, config: DPUConfig = ZCU104_DPU):
        self.config = config

    # ------------------------------------------------------------------
    def _stage_cycles(self, macs: int, stage: str) -> float:
        efficiency = _STAGE_EFFICIENCY[stage]
        return macs / (self.config.peak_macs_per_cycle * efficiency)

    def cnn_cycles(self, model: IndexedCNN) -> float:
        """Per-inference cycles of the full CNN on the DPU."""
        return self._stage_cycles(model_macs(model), "cnn") + \
            self.config.overhead_cycles

    def nshd_cycles(self, model: IndexedCNN, layer_index: int, dim: int,
                    reduced_features: int, num_classes: int) -> float:
        """Per-inference cycles of the NSHD pipeline on the DPU."""
        stages = nshd_macs(model, layer_index, dim, reduced_features,
                           num_classes)
        return sum(self._stage_cycles(stages[name], name)
                   for name in ("trunk", "manifold", "encode",
                                "similarity")) + self.config.overhead_cycles

    # ------------------------------------------------------------------
    def fps(self, cycles: float) -> float:
        """Frames per second at the configured clock (Fig. 6's metric)."""
        if cycles <= 0:
            raise ValueError("cycles must be positive")
        return self.config.frequency_hz / cycles

    def cnn_fps(self, model: IndexedCNN) -> float:
        return self.fps(self.cnn_cycles(model))

    def nshd_fps(self, model: IndexedCNN, layer_index: int, dim: int,
                 reduced_features: int, num_classes: int) -> float:
        return self.fps(self.nshd_cycles(model, layer_index, dim,
                                         reduced_features, num_classes))
