"""Profiler: op/layer recording, backward timing, dormant-path overhead."""

import numpy as np
import pytest

from repro import nn
from repro.nn import Tensor
from repro.nn import functional as F
from repro.telemetry import (Profiler, disabled_overhead_ratio,
                             get_active_profiler)


class TestInstallation:
    def test_context_manager_installs_and_removes(self):
        assert get_active_profiler() is None
        with Profiler() as prof:
            assert get_active_profiler() is prof
        assert get_active_profiler() is None

    def test_nested_profilers_raise(self):
        with Profiler():
            with pytest.raises(RuntimeError):
                Profiler().enable()

    def test_disable_is_idempotent(self):
        prof = Profiler()
        prof.enable()
        prof.disable()
        prof.disable()
        assert get_active_profiler() is None


class TestOpRecording:
    def test_forward_and_backward_times_recorded(self):
        rng = np.random.default_rng(0)
        with Profiler() as prof:
            a = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
            b = Tensor(rng.normal(size=(8, 8)), requires_grad=True)
            out = (a @ b).relu().sum()
            out.backward()
        assert {"matmul", "relu", "sum"} <= set(prof.ops)
        matmul = prof.ops["matmul"]
        assert matmul.calls == 1
        assert matmul.forward_s >= 0.0
        assert matmul.backward_calls == 1
        # Fig. 5-style MAC estimate: out.size * inner = 64 * 8.
        assert matmul.flops == 8 * 8 * 8

    def test_nothing_recorded_while_disabled(self):
        prof = Profiler()
        a = Tensor(np.ones((4, 4)))
        _ = a + a
        assert prof.ops == {}

    def test_conv_flops_estimate(self):
        rng = np.random.default_rng(1)
        with Profiler() as prof:
            x = Tensor(rng.normal(size=(2, 3, 8, 8)))
            w = Tensor(rng.normal(size=(4, 3, 3, 3)))
            bias = Tensor(np.zeros(4))
            out = F.conv2d(x, w, bias, stride=1, padding=1)
        conv = prof.ops["conv2d"]
        assert conv.calls == 1
        assert conv.flops == out.data.size * 3 * 3 * 3

    def test_trunk_ops_in_table_with_rate(self):
        rng = np.random.default_rng(6)
        with Profiler() as prof:
            x = Tensor(rng.normal(size=(2, 3, 8, 8)))
            conv = F.conv2d(x, Tensor(rng.normal(size=(6, 1, 3, 3))), None,
                            padding=1, groups=3)
            bn = F.batch_norm2d(conv, Tensor(np.ones(6)), Tensor(np.zeros(6)),
                                np.zeros(6), np.ones(6), training=False)
            pool = F.max_pool2d(bn, 2)
        # Fig. 5 accounting: a MAC per weight tap, one op per output element.
        assert prof.ops["conv2d"].flops == conv.data.size * 1 * 3 * 3
        assert prof.ops["batch_norm2d"].flops == bn.data.size
        assert prof.ops["max_pool2d"].flops == pool.data.size
        table = [[cell.strip() for cell in line.strip("|").split("|")]
                 for line in prof.format_top_ops().splitlines()]
        assert table[0] == ["op", "calls", "fwd_s", "bwd_s", "total_s",
                            "GFLOP", "GFLOP/s", "MB"]
        rows = {row[0]: row for row in table[2:]}
        assert {"conv2d", "batch_norm2d", "max_pool2d"} <= set(rows)
        conv_stat = prof.ops["conv2d"]
        assert float(rows["conv2d"][6]) == pytest.approx(
            conv_stat.flops / conv_stat.forward_s / 1e9, rel=1e-2, abs=1e-4)

    def test_total_and_top_ops(self):
        with Profiler() as prof:
            a = Tensor(np.ones((16, 16)))
            for _ in range(3):
                _ = a + a
            _ = a @ a
        top = prof.top_ops(1)
        assert len(top) == 1
        assert prof.total_op_time() >= top[0].total_s
        assert prof.ops["add"].calls == 3

    def test_reset(self):
        with Profiler() as prof:
            a = Tensor(np.ones((4, 4)))
            _ = a + a
        prof.reset()
        assert prof.ops == {} and prof.layers == {}


class TestLayerRecording:
    def test_leaf_modules_recorded_with_macs(self):
        rng = np.random.default_rng(2)
        layer = nn.Linear(12, 5, rng=rng)
        with Profiler() as prof:
            layer(Tensor(rng.normal(size=(7, 12))))
        stat = prof.layers["Linear"]
        assert stat.calls == 1
        # layer_cost counts one GEMM per call (batch-size independent),
        # matching the Fig. 5 hardware accounting in repro.hardware.macs.
        assert stat.macs == 12 * 5
        assert stat.params == 12 * 5 + 5

    def test_container_modules_not_recorded(self):
        rng = np.random.default_rng(3)
        model = nn.Sequential(nn.Linear(6, 6, rng=rng), nn.ReLU())
        with Profiler() as prof:
            model(Tensor(rng.normal(size=(2, 6))))
        assert "Sequential" not in prof.layers
        assert {"Linear", "ReLU"} <= set(prof.layers)

    def test_format_tables(self):
        rng = np.random.default_rng(4)
        layer = nn.Linear(4, 3, rng=rng)
        with Profiler() as prof:
            out = layer(Tensor(rng.normal(size=(2, 4))))
            out.sum()
        assert "Linear" in prof.format_top_layers()
        assert "matmul" in prof.format_top_ops()
        assert "(no ops recorded)" in Profiler().format_top_ops()

    def test_to_events_tagged(self):
        rng = np.random.default_rng(5)
        layer = nn.Linear(4, 3, rng=rng)
        with Profiler() as prof:
            layer(Tensor(rng.normal(size=(2, 4))))
        kinds = {event["type"] for event in prof.to_events()}
        assert kinds == {"op", "layer"}


class TestDormantOverhead:
    def test_overhead_smoke(self):
        """Dormant hooks must stay cheap.

        The CI gate (scripts/check_telemetry.sh) asserts < 1.05 with
        min-of-repeats; here we only smoke-test with a loose bound so a
        noisy shared runner cannot flake the unit suite.
        """
        ratio = min(disabled_overhead_ratio(size=64, iters=50, repeats=3)
                    for _ in range(2))
        assert ratio < 1.5

    def test_refuses_to_measure_while_enabled(self):
        with Profiler():
            with pytest.raises(RuntimeError):
                disabled_overhead_ratio(size=8, iters=1, repeats=1)

    def test_wrapped_ops_expose_originals(self):
        assert hasattr(Tensor.__add__, "__wrapped__")
        assert hasattr(Tensor.__matmul__, "__wrapped__")
        assert hasattr(F.conv2d, "__wrapped__")
