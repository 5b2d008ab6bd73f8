"""Tests for the energy model, FPGA DPU model, and model-size accounting."""

import numpy as np
import pytest

from repro.hardware import (ZCU104_DPU, DPUConfig, DPUModel, EnergyModel,
                            ResourceUsage, baselinehd_size_bytes,
                            cnn_inference_energy, cnn_size_bytes,
                            energy_improvement, nshd_inference_energy,
                            nshd_size_bytes)
from repro.models import create_model


@pytest.fixture(scope="module")
def vgg():
    return create_model("vgg16", num_classes=10, width_mult=0.125, seed=0)


class TestEnergyModel:
    def test_component_costs(self):
        model = EnergyModel(mac_pj=2.0, dram_pj_per_byte=10.0)
        assert model.compute(100) == 200.0
        assert model.weights(10) == 100.0

    def test_cnn_energy_breakdown_positive(self, vgg):
        breakdown = cnn_inference_energy(vgg)
        assert breakdown["total"] > 0
        assert breakdown["total"] == pytest.approx(
            breakdown["compute"] + breakdown["weights"] +
            breakdown["activations"])

    def test_nshd_energy_below_cnn_at_early_layer(self, vgg):
        """Fig. 4's core claim: cutting early saves energy vs the CNN."""
        cnn = cnn_inference_energy(vgg)["total"]
        nshd = nshd_inference_energy(vgg, 15, dim=3000, reduced_features=64,
                                     num_classes=10)["total"]
        assert nshd < cnn

    def test_earlier_layer_more_saving(self, vgg):
        """Fig. 4: NSHD saves more energy at earlier cut layers."""
        cnn = cnn_inference_energy(vgg)["total"]
        early = nshd_inference_energy(vgg, 15, 3000, 64, 10)["total"]
        late = nshd_inference_energy(vgg, 29, 3000, 64, 10)["total"]
        assert energy_improvement(cnn, early) > energy_improvement(cnn, late)

    def test_improvement_bounds(self):
        assert energy_improvement(100.0, 36.0) == pytest.approx(0.64)
        with pytest.raises(ValueError):
            energy_improvement(0.0, 1.0)

    def test_energy_scales_with_dim(self, vgg):
        low = nshd_inference_energy(vgg, 27, 1000, 64, 10)["total"]
        high = nshd_inference_energy(vgg, 27, 10000, 64, 10)["total"]
        assert high > low


class TestDPU:
    def test_table1_resource_ledger(self):
        """Table I exactly: utilization percentages of the DPU on ZCU104."""
        util = ZCU104_DPU.utilization_table()
        assert util["LUT"] == pytest.approx(0.3687, abs=5e-4)
        assert util["FF"] == pytest.approx(0.3180, abs=2e-4)
        assert util["BRAM"] == pytest.approx(0.7179, abs=2e-4)
        assert util["URAM"] == pytest.approx(0.4167, abs=2e-4)
        assert util["DSP"] == pytest.approx(0.4884, abs=2e-4)
        assert ZCU104_DPU.frequency_hz == 200e6
        assert ZCU104_DPU.power_w == pytest.approx(4.427)

    def test_resource_usage_utilization(self):
        assert ResourceUsage(50, 200).utilization == 0.25

    def test_fps_inverse_of_cycles(self):
        dpu = DPUModel()
        assert dpu.fps(200e6) == pytest.approx(1.0)
        assert dpu.fps(100e6) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            dpu.fps(0)

    def test_nshd_fps_above_cnn(self, vgg):
        """Fig. 6: NSHD throughput beats the full CNN on the DPU."""
        dpu = DPUModel()
        assert dpu.nshd_fps(vgg, 27, 3000, 64, 10) > dpu.cnn_fps(vgg)

    def test_fps_decreases_with_dim(self, vgg):
        """Fig. 10: higher D costs throughput."""
        dpu = DPUModel()
        fps = [dpu.nshd_fps(vgg, 27, d, 64, 10)
               for d in (1000, 3000, 10000)]
        assert fps[0] > fps[1] > fps[2]

    def test_custom_config(self):
        config = DPUConfig(frequency_hz=100e6, power_w=2.0,
                           peak_macs_per_cycle=1024)
        dpu = DPUModel(config)
        assert dpu.fps(100e6) == pytest.approx(1.0)


class TestModelSize:
    def test_cnn_size_counts_all_params(self, vgg):
        breakdown = cnn_size_bytes(vgg)
        assert breakdown.total == vgg.num_parameters() * 4

    def test_nshd_smaller_than_cnn_at_early_layer(self, vgg):
        """Table II: NSHD trims the model when cutting early."""
        cnn = cnn_size_bytes(vgg).total
        nshd = nshd_size_bytes(vgg, 15, dim=3000, reduced_features=64,
                               num_classes=10).total
        assert nshd < cnn

    def test_nshd_smaller_than_baselinehd(self, vgg):
        """Table II: the manifold layer shrinks the projection memory."""
        nshd = nshd_size_bytes(vgg, 27, 3000, 64, 10).total
        base = baselinehd_size_bytes(vgg, 27, 3000, 10).total
        assert nshd < base

    def test_projection_stored_binary(self, vgg):
        nshd = nshd_size_bytes(vgg, 27, 3000, 64, 10)
        assert nshd.projection == (64 * 3000 + 7) // 8

    def test_baseline_projection_spans_full_features(self, vgg):
        base = baselinehd_size_bytes(vgg, 27, 3000, 10)
        assert base.projection == (vgg.feature_count(27) * 3000 + 7) // 8

    def test_size_grows_with_cut_depth(self, vgg):
        sizes = [nshd_size_bytes(vgg, layer, 3000, 64, 10).total
                 for layer in (10, 20, 29)]
        assert sizes == sorted(sizes)

    def test_hd_params_shrink_70pct_from_10k_to_3k(self, vgg):
        """Sec. VII-D: D 10,000 -> 3,000 cuts HD-section parameters 70%."""
        def hd_bytes(dim):
            b = nshd_size_bytes(vgg, 27, dim, 64, 10)
            return b.projection + b.class_hvs
        reduction = 1.0 - hd_bytes(3000) / hd_bytes(10000)
        assert reduction == pytest.approx(0.70, abs=0.01)

    def test_total_mb_conversion(self, vgg):
        breakdown = cnn_size_bytes(vgg)
        assert breakdown.total_mb == pytest.approx(
            breakdown.total / 1048576)
