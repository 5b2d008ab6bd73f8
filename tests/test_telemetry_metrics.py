"""Metrics registry: counters, gauges, log-bucket streaming quantiles."""

import math
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import (DEFAULT_QUANTILES, Counter, Gauge, Histogram,
                             MetricsRegistry, get_registry, use_registry)
from repro.telemetry.metrics import ALPHA


class TestCounterGauge:
    def test_counter_increments(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == pytest.approx(3.5)

    def test_counter_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("c").inc(-1.0)

    def test_counter_reset(self):
        counter = Counter("c")
        counter.inc(5)
        counter.reset()
        assert counter.value == 0.0

    def test_gauge_set_inc(self):
        gauge = Gauge("g")
        gauge.set(10.0)
        gauge.inc(2.0)
        assert gauge.value == pytest.approx(12.0)
        gauge.inc(-5.0)
        assert gauge.value == pytest.approx(7.0)

    def test_counter_thread_safety(self):
        counter = Counter("c")

        def worker():
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 8000


#: Magnitudes from 1e-9 to 1e9 of either sign, and zeros.
_SIGNED = st.builds(lambda m, negative: -m if negative else m,
                    st.floats(min_value=1e-9, max_value=1e9),
                    st.booleans())
_VALUES = st.one_of(_SIGNED, _SIGNED, _SIGNED, st.just(0.0))


def nearest_rank(values, q):
    """The order statistic of rank ceil(q·n) (1-based)."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


class TestHistogram:
    def test_summary_keys(self):
        hist = Histogram("h")
        hist.observe_many([1.0, 2.0, 3.0, 4.0])
        summary = hist.summary()
        assert summary["count"] == 4
        assert summary["sum"] == pytest.approx(10.0)
        assert summary["mean"] == pytest.approx(2.5)
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        for q in DEFAULT_QUANTILES:
            assert f"p{q * 100:g}" in summary

    def test_non_finite_samples_skipped(self):
        hist = Histogram("h")
        hist.observe(float("nan"))
        hist.observe(float("inf"))
        hist.observe(1.0)
        assert hist.count == 1
        assert hist.summary()["max"] == 1.0

    @pytest.mark.parametrize("size", [5, 500])
    def test_observe_many_skips_non_finite(self, size):
        values = np.linspace(-2.0, 3.0, size)
        values[::3] = np.nan
        values[1::5] = np.inf
        values[2::7] = -np.inf
        hist = Histogram("h")
        hist.observe_many(values)
        finite = values[np.isfinite(values)]
        summary = hist.summary()
        assert summary["count"] == finite.size
        assert summary["min"] == finite.min()
        assert summary["max"] == finite.max()
        assert summary["sum"] == pytest.approx(finite.sum())

    def test_quantile_accuracy_vs_numpy(self):
        rng = np.random.default_rng(3)
        samples = np.abs(rng.normal(size=3000))  # timing-like, skewed
        hist = Histogram("h")
        hist.observe_many(samples)
        for q in (0.5, 0.95):
            exact = float(np.quantile(samples, q))
            rank = float((samples <= hist.quantile(q)).mean())
            assert abs(rank - q) < 0.05, (q, exact, hist.quantile(q))

    @given(st.lists(_VALUES, min_size=1, max_size=300))
    @settings(max_examples=200, deadline=None)
    def test_property_relative_error_vs_nearest_rank(self, values):
        """Every estimate is within α·|x| of its order statistic x, at
        any sign or magnitude, through either observe_many path."""
        hist = Histogram("h")
        hist.observe_many(values)
        summary = hist.summary()
        for q in DEFAULT_QUANTILES:
            x = nearest_rank(values, q)
            estimate = hist.quantile(q)
            # 1e-9: float rounding at a bucket edge.
            assert abs(estimate - x) <= ALPHA * abs(x) * (1 + 1e-9), \
                (q, x, estimate)
            assert summary[f"p{q * 100:g}"] == estimate

    @pytest.mark.parametrize("q", [0.5, 0.95, 0.99])
    def test_uniform_stream_accuracy(self, q):
        rng = np.random.default_rng(0)
        samples = rng.uniform(0.0, 1.0, size=5000)
        hist = Histogram("h")
        for x in samples:
            hist.observe(x)
        x = nearest_rank(samples, q)
        assert abs(hist.quantile(q) - x) <= ALPHA * x * (1 + 1e-9)
        # For U(0,1) the value error equals the rank error.
        assert hist.quantile(q) == pytest.approx(q, abs=0.04)

    def test_small_stream_is_exact(self):
        for value in (3.7, -2.5, 0.0, 1e-9, -4e8):
            hist = Histogram("h")
            hist.observe(value)
            for q in (0.01, 0.5, 0.95, 0.99):
                assert hist.quantile(q) == value
            summary = hist.summary()
            assert summary["p50"] == summary["p99"] == value
        hist = Histogram("h")
        for x in (3.0, 1.0, 2.0):
            hist.observe(x)
        assert hist.count == 3
        for q, x in ((0.01, 1.0), (0.5, 2.0), (0.99, 3.0)):
            assert abs(hist.quantile(q) - x) <= ALPHA * x
            assert 1.0 <= hist.quantile(q) <= 3.0

    def test_empty_quantile_is_nan(self):
        hist = Histogram("h")
        assert math.isnan(hist.quantile(0.5))
        assert math.isnan(hist.summary()["p99"])

    def test_invalid_quantile(self):
        empty, full = Histogram("h"), Histogram("h")
        full.observe_many(range(1, 101))
        for hist in (empty, full):
            with pytest.raises(ValueError):
                hist.quantile(0.0)
            with pytest.raises(ValueError):
                hist.quantile(1.0)

    def test_untracked_quantile_raises(self):
        """Only a q outside (0, 1) is untracked and raises; any q inside
        it is answered from the buckets, in the summary or not."""
        hist = Histogram("h")
        hist.observe_many(range(1, 101))
        assert abs(hist.quantile(0.25) - 25.0) <= ALPHA * 25.0
        for q in (-0.5, 1.5):
            with pytest.raises(ValueError):
                hist.quantile(q)

    @given(st.lists(st.one_of(_VALUES, st.sampled_from(
        [math.nan, math.inf, -math.inf])), max_size=100))
    @settings(max_examples=100, deadline=None)
    def test_property_observe_many_matches_observe_loop(self, values):
        batch, loop = Histogram("h"), Histogram("h")
        batch.observe_many(values)
        for value in values:
            loop.observe(value)
        want, got = loop.summary(), batch.summary()
        # Summation order differs between the two paths.
        assert got.pop("sum") == pytest.approx(want.pop("sum"), abs=1e-3)
        assert got.pop("mean") == pytest.approx(want.pop("mean"),
                                                abs=1e-3, nan_ok=True)
        assert got == pytest.approx(want, nan_ok=True, rel=0, abs=0)

    def test_p99_exemplar_is_newest_at_or_above_its_bucket(self):
        hist = Histogram("h")
        hist.observe_many(np.arange(1.0, 1001.0))
        hist.observe(995.0, exemplar="old-high")
        hist.observe(2000.0, exemplar="high")
        hist.observe(500.0, exemplar="middle")
        hist.observe(1.0, exemplar="newest-low")
        exemplars = hist.exemplars()
        # p99 ≈ 990: "newest-low" and "middle" are newer but below it.
        assert exemplars["p99"]["trace_id"] == "high"
        assert exemplars["p99"]["value"] >= hist.quantile(0.99)
        # p50 ≈ 500: "middle" sits in the p50 bucket itself.
        assert exemplars["p50"]["trace_id"] == "middle"
        # A newer exemplar in a bucket replaces the bucket's old one.
        hist.observe(2000.0, exemplar="high-again")
        assert hist.exemplars()["p99"]["trace_id"] == "high-again"
        hist.reset()
        assert hist.exemplars() == {}

    def test_summary_is_one_snapshot_while_observed(self):
        """A scrape racing observe() must not pair a count with a sum
        from another moment."""
        hist = Histogram("h")
        stop = threading.Event()

        def observe():
            while not stop.is_set():
                hist.observe(1.0)

        threads = [threading.Thread(target=observe) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        torn = []
        try:
            for thread in threads:
                thread.start()
            deadline = time.monotonic() + 1.0
            while time.monotonic() < deadline:
                summary = hist.summary()
                if summary["sum"] != summary["count"] \
                        or summary["mean"] != 1.0:
                    torn.append(summary)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10.0)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert hist.count > 0
        assert torn == []

    def test_reset(self):
        hist = Histogram("h")
        hist.observe_many(range(10))
        hist.reset()
        assert hist.count == 0
        assert math.isnan(hist.mean)

    def test_summary_exemplars_are_a_locked_copy(self):
        # summary() must snapshot exemplars under the lock (a /metrics
        # scrape can race observe() inserting new quantile keys) and
        # hand out copies the caller may mutate freely.
        hist = Histogram("h")
        hist.observe(5.0, exemplar="a" * 32)
        summary = hist.summary()
        summary["exemplars"]["p99"]["trace_id"] = "mutated"
        assert hist.exemplars()["p99"]["trace_id"] == "a" * 32


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("a")
        with pytest.raises(TypeError):
            registry.gauge("a")

    def test_convenience_helpers(self):
        registry = MetricsRegistry()
        registry.inc("c", 2)
        registry.set_gauge("g", 4.0)
        registry.observe("h", 1.0)
        registry.observe_many("h", [2.0, 3.0])
        snap = registry.snapshot()
        assert snap["c"] == {"type": "counter", "value": 2.0}
        assert snap["g"]["value"] == 4.0
        assert snap["h"]["count"] == 3

    def test_snapshot_sorted_and_reset(self):
        registry = MetricsRegistry()
        registry.inc("z")
        registry.inc("a")
        assert list(registry.snapshot()) == ["a", "z"]
        registry.reset()
        assert registry.snapshot() == {}

    def test_contains_and_names(self):
        registry = MetricsRegistry()
        registry.inc("x.y")
        assert "x.y" in registry
        assert "nope" not in registry
        assert registry.names() == ["x.y"]

    def test_use_registry_scopes_the_global(self):
        before = get_registry()
        with use_registry() as scoped:
            assert get_registry() is scoped
            get_registry().inc("scoped.only")
        assert get_registry() is before
        assert "scoped.only" not in get_registry()
