"""Exporters: JSONL non-finite codec, Prometheus text round-trips."""

import json
import math

import numpy as np
import pytest

from repro.telemetry import (MetricsRegistry, encode_non_finite,
                             non_finite_hook, parse_prometheus,
                             prometheus_text, read_jsonl,
                             sanitize_metric_name)


def make_registry() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.inc("guard.nan_batches", 3)
    registry.set_gauge("train.train_acc", 0.75)
    registry.observe_many("train.epoch_time_s", [0.1, 0.2, 0.3, 0.4, 0.5,
                                                 0.6, 0.7])
    return registry


class TestSanitize:
    def test_dots_to_underscores_with_prefix(self):
        assert (sanitize_metric_name("guard.nan_batches")
                == "repro_guard_nan_batches")

    def test_invalid_chars_replaced(self):
        assert sanitize_metric_name("a-b c.d", prefix="") == "a_b_c_d"


class TestJsonl:
    def test_non_finite_round_trips_losslessly(self, tmp_path):
        registry = MetricsRegistry()
        registry.histogram("empty")  # all-NaN summary
        registry.set_gauge("plus_inf", math.inf)
        registry.set_gauge("minus_inf", -math.inf)
        path = tmp_path / "nan.jsonl"
        with open(path, "w") as handle:
            for name, entry in registry.snapshot().items():
                handle.write(json.dumps(
                    encode_non_finite({"name": name, **entry}),
                    allow_nan=False) + "\n")
        # The file itself must be strict JSON (no bare NaN literals).
        for line in open(path):
            json.loads(line)  # json.loads accepts NaN, so also check text
            assert "NaN" not in line and "Infinity" not in line
        metrics = {e["name"]: e for e in read_jsonl(str(path))}
        assert math.isnan(metrics["empty"]["mean"])  # restored, not null/0
        assert math.isnan(metrics["empty"]["p50"])
        assert metrics["plus_inf"]["value"] == math.inf
        assert metrics["minus_inf"]["value"] == -math.inf

    def test_encode_decode_non_finite_nested(self):
        original = {"a": math.nan, "b": [1.0, math.inf, {"c": -math.inf}],
                    "d": "text", "e": 3}
        encoded = encode_non_finite(original)
        assert encoded["a"] == {"__nonfinite__": "nan"}
        decoded = json.loads(json.dumps(encoded, allow_nan=False),
                             object_hook=non_finite_hook)
        assert math.isnan(decoded["a"])
        assert decoded["b"][1] == math.inf
        assert decoded["b"][2]["c"] == -math.inf
        assert decoded["d"] == "text" and decoded["e"] == 3

    def test_decode_rejects_unknown_tag(self):
        with pytest.raises(ValueError, match="non-finite tag"):
            json.loads('{"a": [{"__nonfinite__": "weird"}]}',
                       object_hook=non_finite_hook)

    def test_bad_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(ValueError, match=":2:"):
            read_jsonl(str(path))


class TestPrometheus:
    def test_round_trip(self):
        parsed = parse_prometheus(prometheus_text(registry=make_registry()))
        counter = parsed["repro_guard_nan_batches"]
        assert counter["type"] == "counter"
        assert counter["samples"][""] == 3.0
        gauge = parsed["repro_train_train_acc"]
        assert gauge["samples"][""] == pytest.approx(0.75)
        hist = parsed["repro_train_epoch_time_s"]
        assert hist["type"] == "summary"
        assert hist["samples"]["count"] == 7.0
        assert hist["samples"]["sum"] == pytest.approx(2.8)
        assert 'quantile="0.5"' in hist["samples"]

    @pytest.mark.parametrize("value", [1234567, 2 ** 53 - 1, 0.1 + 0.2,
                                       1e-9])
    def test_samples_round_trip_bit_exactly(self, value):
        registry = MetricsRegistry()
        registry.inc("serve.samples", value)
        registry.set_gauge("serve.level", value)
        registry.observe_many("serve.latency_ms", [value] * 3)
        snapshot = registry.snapshot()
        parsed = parse_prometheus(prometheus_text(registry=registry))
        assert parsed["repro_serve_samples"]["samples"][""] == value
        assert parsed["repro_serve_level"]["samples"][""] == value
        summary = snapshot["serve.latency_ms"]
        samples = parsed["repro_serve_latency_ms"]["samples"]
        assert samples["sum"] == summary["sum"]
        assert samples["count"] == summary["count"] == 3
        for q in (50, 95, 99):
            assert samples[f'quantile="{q / 100:g}"'] == summary[f"p{q}"]

    def test_integral_samples_keep_integer_form(self):
        registry = MetricsRegistry()
        registry.inc("serve.samples", 1234567)
        text = prometheus_text(registry=registry)
        assert "repro_serve_samples 1234567\n" in text

    def test_empty_registry_empty_text(self):
        assert prometheus_text(registry=MetricsRegistry()) == ""

    def test_non_finite_round_trip(self):
        registry = MetricsRegistry()
        registry.set_gauge("pos", math.inf)
        registry.set_gauge("neg", -math.inf)
        registry.histogram("empty")  # NaN quantiles, count 0
        text = prometheus_text(registry=registry)
        # Native Prometheus forms, not zeros or dropped samples.
        assert "repro_pos +Inf" in text
        assert "repro_neg -Inf" in text
        assert 'repro_empty{quantile="0.5"} NaN' in text
        parsed = parse_prometheus(text)
        assert parsed["repro_pos"]["samples"][""] == math.inf
        assert parsed["repro_neg"]["samples"][""] == -math.inf
        assert math.isnan(parsed["repro_empty"]["samples"]['quantile="0.5"'])
        assert parsed["repro_empty"]["samples"]["count"] == 0.0

    def test_unparseable_sample_raises(self):
        with pytest.raises(ValueError):
            parse_prometheus("!! not a sample line")


class TestExemplars:
    """Histogram exemplars survive the Prometheus text round-trip."""

    TRACE_ID = "4bf92f3577b34da6a3ce929d0e0e4736"

    def make_exemplar_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        for value in range(1, 100):
            registry.observe("serve.latency_ms", float(value))
        # Larger than every current quantile estimate, so the exemplar
        # attaches to p50/p95/p99 alike.
        registry.observe("serve.latency_ms", 250.0,
                         exemplar=self.TRACE_ID)
        return registry

    def test_snapshot_carries_exemplars(self):
        entry = self.make_exemplar_registry().snapshot()["serve.latency_ms"]
        assert entry["exemplars"]["p99"]["trace_id"] == self.TRACE_ID
        assert entry["exemplars"]["p99"]["value"] == 250.0
        assert entry["exemplars"]["p99"]["ts"] > 0

    def test_prometheus_text_emits_openmetrics_exemplar(self):
        text = prometheus_text(self.make_exemplar_registry())
        quantile_lines = [l for l in text.splitlines()
                         if 'quantile="0.99"' in l]
        assert len(quantile_lines) == 1
        assert f'# {{trace_id="{self.TRACE_ID}"}} 250' in quantile_lines[0]

    def test_parse_round_trips_exemplars(self):
        registry = self.make_exemplar_registry()
        parsed = parse_prometheus(prometheus_text(registry))
        entry = parsed["repro_serve_latency_ms"]
        assert entry["type"] == "summary"
        exemplar = entry["exemplars"]['quantile="0.99"']
        assert exemplar["trace_id"] == self.TRACE_ID
        assert exemplar["value"] == 250.0
        assert exemplar["ts"] == pytest.approx(
            registry.snapshot()["serve.latency_ms"]["exemplars"]["p99"]["ts"],
            abs=0.01)
        # Every tracked quantile carries the same linked trace id.
        for key in ('quantile="0.5"', 'quantile="0.95"'):
            assert entry["exemplars"][key]["trace_id"] == self.TRACE_ID

    def test_parse_round_trips_log_bucket_summary(self):
        registry = MetricsRegistry()
        rng = np.random.default_rng(7)
        registry.observe_many("serve.latency_ms",
                              rng.lognormal(1.0, 0.5, size=1000))
        registry.observe("serve.latency_ms", 40.0, exemplar=self.TRACE_ID)
        text = prometheus_text(registry)
        assert "_bucket" not in text
        summary = registry.snapshot()["serve.latency_ms"]
        entry = parse_prometheus(text)["repro_serve_latency_ms"]
        assert entry["type"] == "summary"
        quantiles = [f'quantile="{q:g}"' for q in (0.5, 0.95, 0.99)]
        want = {key: summary[f"p{q}"]
                for key, q in zip(quantiles, ("50", "95", "99"))}
        want.update(sum=summary["sum"], count=summary["count"])
        # Every sample reads back bit-exactly.
        assert entry["samples"] == want
        assert set(entry["exemplars"]) == set(quantiles)
        for key in quantiles:
            assert entry["exemplars"][key]["trace_id"] == self.TRACE_ID
            assert entry["exemplars"][key]["value"] == 40.0

    def test_no_exemplar_no_syntax(self):
        registry = MetricsRegistry()
        registry.observe_many("plain.hist", [1.0, 2.0, 3.0])
        text = prometheus_text(registry)
        assert "trace_id" not in text
        assert "exemplars" not in registry.snapshot()["plain.hist"]
        parsed = parse_prometheus(text)
        assert "exemplars" not in parsed["repro_plain_hist"]
