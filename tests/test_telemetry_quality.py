"""Streaming quality telemetry: baselines, PSI, drift monitors."""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hd.backend import pack_bipolar, unpack_bipolar
from repro.telemetry import MetricsRegistry, load_alert_rules, quality
from repro.telemetry.alerts import AlertManager
from repro.telemetry.diagnostics import saturation_fraction
from repro.telemetry.quality import (BASELINE_VERSION, DriftMonitor,
                                     QualityBaseline,
                                     population_stability_index)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _observe_per_row(monitor, features, labels=None):
    """Reference window update: fold a batch in one row at a time.

    This is the ring update ``DriftMonitor.observe`` performed before it
    was vectorized; the equivalence property below holds the batch
    update to it.  Only the window state is touched (no gauges).
    """
    features = np.atleast_2d(np.asarray(features, dtype=np.float64))
    bins = monitor.baseline.bin_indices(features)
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64).ravel()
    arange_f = np.arange(monitor.baseline.num_features)
    for i in range(features.shape[0]):
        pos = monitor._pos
        if monitor._size == monitor.window:
            monitor._counts[arange_f, monitor._bin_ring[pos]] -= 1.0
            monitor._feat_sum -= monitor._feat_ring[pos]
            old_label = monitor._label_ring[pos]
            if old_label >= 0:
                if old_label < monitor._label_counts.shape[0]:
                    monitor._label_counts[old_label] -= 1.0
                monitor._labeled -= 1
        monitor._bin_ring[pos] = bins[i]
        monitor._feat_ring[pos] = features[i]
        monitor._counts[arange_f, bins[i]] += 1.0
        monitor._feat_sum += features[i]
        label = int(labels[i]) if labels is not None \
            and i < labels.shape[0] else -1
        monitor._label_ring[pos] = label
        if label >= 0:
            if label < monitor._label_counts.shape[0]:
                monitor._label_counts[label] += 1.0
            monitor._labeled += 1
        monitor._pos = (pos + 1) % monitor.window
        if monitor._size < monitor.window:
            monitor._size += 1


@pytest.fixture()
def baseline():
    rng = _rng(3)
    features = rng.normal(size=(1500, 6))
    labels = rng.integers(0, 4, size=1500)
    return QualityBaseline.from_training(features, labels=labels,
                                         num_classes=4)


class TestPSI:
    def test_identical_distributions_are_zero(self):
        assert population_stability_index([1, 2, 3], [10, 20, 30]) == \
            pytest.approx(0.0)

    def test_shifted_distribution_is_large(self):
        psi = population_stability_index([100, 100, 100],
                                         [300, 10, 10])
        assert psi > 0.25

    def test_symmetric_in_magnitude(self):
        forward = population_stability_index([80, 20], [20, 80])
        backward = population_stability_index([20, 80], [80, 20])
        assert forward == pytest.approx(backward)
        assert forward > 0

    def test_empty_sides_are_zero(self):
        assert population_stability_index([], []) == 0.0
        assert population_stability_index([0, 0], [1, 2]) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape"):
            population_stability_index([1, 2], [1, 2, 3])

    def test_empty_bins_stay_finite(self):
        psi = population_stability_index([100, 0, 0], [0, 0, 100])
        assert np.isfinite(psi) and psi > 1.0


class TestQualityBaseline:
    def test_from_training_shapes(self, baseline):
        assert baseline.num_features == 6
        assert baseline.num_classes == 4
        assert baseline.n_bins == 10
        assert baseline.bin_edges.shape == (6, 9)
        assert baseline.expected.shape == (6, 10)
        # Quantile bins over a continuous sample are ~uniform, and the
        # per-feature proportions sum to one.
        np.testing.assert_allclose(baseline.expected.sum(axis=1), 1.0)
        assert baseline.expected.max() < 0.2
        assert baseline.n_samples == 1500

    def test_priors_from_labels(self):
        features = _rng(0).normal(size=(100, 3))
        labels = np.array([0] * 80 + [1] * 20)
        base = QualityBaseline.from_training(features, labels=labels,
                                             num_classes=3)
        np.testing.assert_allclose(base.class_priors, [0.8, 0.2, 0.0])

    def test_labels_default_to_similarity_argmax(self):
        features = _rng(0).normal(size=(50, 3))
        sims = np.zeros((50, 2))
        sims[:30, 0] = 1.0
        sims[30:, 1] = 1.0
        base = QualityBaseline.from_training(features,
                                             similarities=sims)
        np.testing.assert_allclose(base.class_priors, [0.6, 0.4])
        assert base.margin and base.confidence

    def test_uniform_priors_without_labels(self):
        base = QualityBaseline.from_training(
            _rng(0).normal(size=(40, 2)), num_classes=5)
        np.testing.assert_allclose(base.class_priors, np.full(5, 0.2))

    def test_no_label_source_raises(self):
        with pytest.raises(ValueError, match="class priors"):
            QualityBaseline.from_training(_rng(0).normal(size=(10, 2)))

    def test_empty_training_set_raises(self):
        with pytest.raises(ValueError, match="empty"):
            QualityBaseline.from_training(np.empty((0, 4)),
                                          num_classes=2)

    def test_bin_indices_bounds_and_monotonicity(self, baseline):
        probes = np.array([[-1e9] * 6, [1e9] * 6])
        bins = baseline.bin_indices(probes)
        assert (bins[0] == 0).all()
        assert (bins[1] == baseline.n_bins - 1).all()

    def test_bin_indices_match_broadcast_form_on_non_finite(self,
                                                            baseline):
        rng = _rng(5)
        probes = rng.normal(size=(200, 6))
        specials = np.array([np.nan, np.inf, -np.inf])
        mask = rng.random(probes.shape) < 0.3
        probes[mask] = rng.choice(specials, size=int(mask.sum()))
        probes[:9] = baseline.bin_edges.T  # values tied on every edge
        expected = (probes[:, :, None]
                    >= baseline.bin_edges[None, :, :]).sum(axis=2)
        bins = baseline.bin_indices(probes)
        np.testing.assert_array_equal(bins, expected)
        assert (bins[np.isnan(probes)] == 0).all()
        assert (bins[probes == np.inf] == baseline.n_bins - 1).all()
        assert (bins[probes == -np.inf] == 0).all()

    def test_dict_round_trip(self, baseline):
        data = baseline.to_dict()
        assert data["version"] == BASELINE_VERSION
        back = QualityBaseline.from_dict(data)
        np.testing.assert_allclose(back.feature_mean,
                                   baseline.feature_mean)
        np.testing.assert_allclose(back.bin_edges, baseline.bin_edges)
        np.testing.assert_allclose(back.expected, baseline.expected)
        np.testing.assert_allclose(back.class_priors,
                                   baseline.class_priors)
        assert back.n_samples == baseline.n_samples

    def test_round_trip_survives_json(self, baseline):
        import json
        back = QualityBaseline.from_dict(
            json.loads(json.dumps(baseline.to_dict())))
        np.testing.assert_allclose(back.expected, baseline.expected)

    def test_unsupported_version_raises(self, baseline):
        data = baseline.to_dict()
        data["version"] = BASELINE_VERSION + 1
        with pytest.raises(ValueError, match="version"):
            QualityBaseline.from_dict(data)

    def test_constant_feature_has_safe_std(self):
        features = np.ones((50, 2))
        base = QualityBaseline.from_training(features, num_classes=2)
        assert (base.feature_std > 0).all()

    def test_describe(self, baseline):
        facts = baseline.describe()
        assert facts["features"] == 6 and facts["classes"] == 4


class TestDriftMonitor:
    def _monitor(self, baseline, **kwargs):
        registry = MetricsRegistry()
        kwargs.setdefault("window", 256)
        kwargs.setdefault("min_samples", 64)
        return DriftMonitor(baseline, registry=registry,
                            **kwargs), registry

    def test_clean_traffic_stays_quiet(self, baseline):
        monitor, registry = self._monitor(baseline)
        rng = _rng(7)
        for _ in range(4):
            monitor.observe(rng.normal(size=(64, 6)),
                            labels=rng.integers(0, 4, size=64))
        snap = monitor.snapshot()
        assert snap["feature"]["psi_max"] < 0.25
        assert snap["prediction"]["psi"] < 0.5
        assert registry.get("quality.feature.psi_max").value < 0.25

    def test_covariate_shift_fires_psi_and_zscore(self, baseline):
        monitor, registry = self._monitor(baseline)
        rng = _rng(7)
        for _ in range(4):
            monitor.observe(3.0 + 2.0 * rng.normal(size=(64, 6)))
        snap = monitor.snapshot()
        assert snap["feature"]["psi_max"] > 0.25
        assert snap["feature"]["zscore_max"] > 6.0
        assert registry.get("quality.feature.psi_max").value > 0.25
        top = monitor.top_features(3)
        assert top and top[0]["psi"] >= top[-1]["psi"]

    def test_gauges_zero_below_min_samples(self, baseline):
        monitor, registry = self._monitor(baseline, min_samples=64)
        monitor.observe(3.0 + _rng(0).normal(size=(16, 6)))
        assert registry.get("quality.feature.psi_max").value == 0.0
        assert monitor.snapshot()["feature"]["psi_max"] == 0.0

    def test_label_skew_fires_prediction_psi(self, baseline):
        monitor, _ = self._monitor(baseline)
        rng = _rng(1)
        for _ in range(4):
            monitor.observe(rng.normal(size=(64, 6)),
                            labels=np.zeros(64, dtype=int))
        assert monitor.snapshot()["prediction"]["psi"] > 1.0

    def test_window_eviction_forgets_old_traffic(self, baseline):
        monitor, _ = self._monitor(baseline, window=128)
        rng = _rng(2)
        for _ in range(2):
            monitor.observe(5.0 + rng.normal(size=(64, 6)))
        assert monitor.snapshot()["feature"]["psi_max"] > 0.25
        # Flood the window with clean traffic: the shift must wash out.
        for _ in range(4):
            monitor.observe(rng.normal(size=(64, 6)))
        assert monitor.snapshot()["feature"]["psi_max"] < 0.25
        assert monitor.snapshot()["window"]["size"] == 128

    def test_margin_and_saturation_streams(self, baseline):
        monitor, registry = self._monitor(baseline)
        rng = _rng(3)
        sims = rng.normal(size=(64, 4))
        encoded = np.sign(rng.normal(size=(64, 32)))
        monitor.observe(rng.normal(size=(64, 6)),
                        labels=np.argmax(sims, axis=1),
                        similarities=sims, encoded=encoded)
        assert registry.get("quality.margin").count == 64
        assert registry.get("quality.confidence").count == 64
        snap = monitor.snapshot()
        assert snap["margin"]["live"]["count"] == 64
        assert snap["saturation"] == pytest.approx(0.0)

    @pytest.mark.parametrize("sat_factor", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize("dim", [1, 65, 130])
    def test_packed_words_saturation_without_a_scan(
            self, baseline, monkeypatch, sat_factor, dim):
        """Sign words are bipolar rows: their gauge equals the float
        scan of the unpacked rows, and no scan runs."""
        words = pack_bipolar(np.sign(_rng(5).normal(size=(64, dim))))
        want = saturation_fraction(unpack_bipolar(words, dim), sat_factor)
        monitor, registry = self._monitor(baseline, sat_factor=sat_factor)

        def no_scan(*args, **kwargs):
            raise AssertionError("packed words were scanned")

        monkeypatch.setattr(quality, "saturation_fraction", no_scan)
        for _ in range(2):  # published on every call
            registry.set_gauge("quality.encoded.saturation", -1.0)
            monitor.observe(_rng(0).normal(size=(64, 6)), encoded=words)
            assert registry.get("quality.encoded.saturation").value == want
        assert monitor.snapshot()["saturation"] == want

    def test_feature_count_mismatch_raises(self, baseline):
        monitor, _ = self._monitor(baseline)
        with pytest.raises(ValueError, match="columns"):
            monitor.observe(np.zeros((4, 5)))

    def test_reset_clears_window(self, baseline):
        monitor, _ = self._monitor(baseline)
        monitor.observe(5.0 + _rng(0).normal(size=(128, 6)))
        monitor.reset()
        snap = monitor.snapshot()
        assert snap["samples"] == 0
        assert snap["window"]["size"] == 0
        assert snap["feature"]["psi_max"] == 0.0

    def test_samples_counter_accumulates(self, baseline):
        monitor, registry = self._monitor(baseline)
        monitor.observe(_rng(0).normal(size=(10, 6)))
        monitor.observe(_rng(1).normal(size=(15, 6)))
        assert monitor.samples == 25
        assert registry.get("quality.samples").value == 25

    def test_single_row_observation(self, baseline):
        monitor, _ = self._monitor(baseline, min_samples=1)
        monitor.observe(np.zeros(6))  # 1-D row is promoted to (1, F)
        assert monitor.snapshot()["window"]["size"] == 1

    def test_describe_is_cheap_facts(self, baseline):
        monitor, _ = self._monitor(baseline)
        facts = monitor.describe()
        assert facts["window"] == 256 and facts["samples"] == 0

    def test_non_finite_row_leaves_the_zscore_with_the_window(
            self, baseline):
        monitor, registry = self._monitor(baseline, window=16,
                                          min_samples=16)
        rng = _rng(4)
        poisoned = rng.normal(size=(16, 6))
        poisoned[3, 2] = np.nan
        monitor.observe(poisoned)
        assert np.isnan(monitor.snapshot()["feature"]["zscore_max"])
        for _ in range(10):
            monitor.observe(rng.normal(size=(16, 6)))
        zscore = monitor.snapshot()["feature"]["zscore_max"]
        assert np.isfinite(zscore)
        assert registry.get("quality.feature.zscore_max").value == zscore

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_infinite_rows_leave_the_zscore_with_the_window(self, baseline):
        monitor, _ = self._monitor(baseline, window=8, min_samples=8)
        rng = _rng(6)
        rows = rng.normal(size=(8, 6))
        rows[0, 0], rows[1, 0] = np.inf, -np.inf
        monitor.observe(rows)
        for _ in range(3):
            monitor.observe(rng.normal(size=(3, 6)))
        assert np.isfinite(monitor.snapshot()["feature"]["zscore_max"])


def _window_psi_max(baseline, rows):
    """Reference ``feature.psi_max`` of a window holding ``rows``, from
    the public PSI function, one feature at a time."""
    bins = baseline.bin_indices(rows)
    return max(population_stability_index(
        baseline.expected[f],
        np.bincount(bins[:, f], minlength=baseline.n_bins))
        for f in range(baseline.num_features))


class TestRefreshOnRead:
    """``observe`` only tallies; readers see the window as of the call,
    and the gauges lag it by fewer than ``min_samples`` rows."""

    WINDOW, MIN = 128, 16

    def _stream(self, baseline, rows):
        """Feed ``rows`` one at a time; yield ``(monitor, registry, i,
        reference psi_max of the window after row i)``."""
        registry = MetricsRegistry()
        monitor = DriftMonitor(baseline, window=self.WINDOW,
                               min_samples=self.MIN, registry=registry)
        for i in range(len(rows)):
            monitor.observe(rows[i])
            window = rows[max(0, i + 1 - self.WINDOW):i + 1]
            psi = (_window_psi_max(baseline, window)
                   if len(window) >= self.MIN else 0.0)
            yield monitor, registry, i, psi

    @staticmethod
    def _drifting_rows(n, seed):
        rng = _rng(seed)
        rows = rng.normal(size=(n, 6))
        rows[n // 3:] += np.linspace(0.0, 3.0, n - n // 3)[:, None]
        return rows

    def test_snapshot_is_always_fresh(self, baseline):
        rows = self._drifting_rows(300, seed=8)
        for monitor, _, i, want in self._stream(baseline, rows):
            snap = monitor.snapshot()
            assert snap["samples"] == i + 1
            assert snap["feature"]["psi_max"] == pytest.approx(
                want, rel=1e-9, abs=1e-12)
            top = [entry["psi"] for entry in monitor.top_features(1)]
            assert top == ([] if want == 0.0
                           else [pytest.approx(want, rel=1e-9)])

    def test_gauges_lag_fewer_than_min_samples_rows(self, baseline):
        rows = self._drifting_rows(300, seed=9)
        history = []
        refreshes = 0
        last = None
        for monitor, registry, i, want in self._stream(baseline, rows):
            history.append(want)
            gauge = registry.get("quality.feature.psi_max").value
            if gauge != last:
                refreshes += 1
                last = gauge
            recent = history[max(0, i + 1 - self.MIN):]
            assert any(gauge == pytest.approx(value, rel=1e-9, abs=1e-12)
                       for value in recent), i
        # One refresh per MIN rows, not one per row.
        assert 300 // self.MIN - 2 <= refreshes <= 300 // self.MIN + 1

    def test_single_row_stream_fires_feature_drift_within_a_window(
            self, baseline):
        """check_quality's rule and window (256 rows, 64 to warm up),
        fed single rows: a clean window stays quiet, and a covariate
        shift fires before it has filled the window."""
        rules = load_alert_rules([{"name": "feature-drift",
                                   "metric": "quality.feature.psi_max",
                                   "op": ">", "threshold": 0.25}])
        registry = MetricsRegistry()
        monitor = DriftMonitor(baseline, window=256, min_samples=64,
                               registry=registry)
        alerts = AlertManager(rules, registry=registry)
        rng = _rng(10)
        for row in rng.normal(size=(256, 6)):
            monitor.observe(row)
        alerts.evaluate()
        assert alerts.firing() == []
        for shifted in range(1, 257):
            monitor.observe(3.0 + 2.0 * rng.normal(size=6))
            alerts.evaluate()
            if alerts.firing():
                break
        assert alerts.firing() == ["feature-drift"]
        assert shifted < 256

    def test_concurrent_observe_and_read(self, baseline):
        """Threads observing single rows while others read: no row is
        lost from the tallies, and a last read publishes what it saw."""
        registry = MetricsRegistry()
        monitor = DriftMonitor(baseline, window=self.WINDOW,
                               min_samples=self.MIN, registry=registry)
        rows = self._drifting_rows(4 * 150, seed=12)

        def feed(part):
            for i, row in enumerate(part):
                monitor.observe(row, labels=[i % 4])
                if i % 25 == 0:
                    monitor.snapshot()

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=feed, args=(rows[k::4],))
                       for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(thread.is_alive() for thread in threads)
        assert monitor.samples == 600
        np.testing.assert_array_equal(monitor._counts.sum(axis=1),
                                      self.WINDOW)
        assert monitor._labeled == self.WINDOW
        snap = monitor.snapshot()
        assert registry.get("quality.feature.psi_max").value == \
            snap["feature"]["psi_max"]


@st.composite
def _batch_plans(draw):
    """A window size and a sequence of (rows, label mode, seed) batches."""
    window = draw(st.sampled_from([1, 7, 64, 100]))
    batches = draw(st.lists(
        st.tuples(st.integers(0, 3 * window + 5),
                  st.sampled_from(["none", "short", "full"]),
                  st.integers(0, 2 ** 32 - 1)),
        min_size=1, max_size=6))
    return window, batches


class TestVectorizedObserve:
    """``observe`` folds a batch in one update, equal to the row loop."""

    @pytest.fixture(scope="class")
    def tied_baseline(self):
        # Integer-valued training data: the decile edges repeat and live
        # values below are drawn on them, so ``>=`` ties are exercised.
        rng = _rng(11)
        return QualityBaseline.from_training(
            rng.integers(0, 6, size=(400, 5)).astype(np.float64),
            labels=rng.integers(0, 4, size=400), num_classes=4)

    @staticmethod
    def _batch(baseline, n, mode, seed):
        rng = _rng(seed)
        f = baseline.num_features
        on_edge = baseline.bin_edges[np.arange(f),
                                     rng.integers(0, baseline.n_bins - 1,
                                                  size=(n, f))]
        features = np.where(rng.random((n, f)) < 0.5, on_edge,
                            rng.normal(2.5, 2.0, size=(n, f)))
        # Labels include -1 (unlabeled) and >= k (outside the priors).
        labels = rng.integers(-1, baseline.num_classes + 2, size=n)
        if mode == "none":
            labels = None
        elif mode == "short":
            labels = labels[:int(rng.integers(0, n + 1))]
        return features, labels

    @settings(max_examples=60, deadline=None)
    @given(plan=_batch_plans())
    def test_batch_update_equals_per_row_loop(self, tied_baseline, plan):
        window, batches = plan
        fast = DriftMonitor(tied_baseline, window=window, min_samples=1,
                            registry=MetricsRegistry())
        slow = DriftMonitor(tied_baseline, window=window, min_samples=1,
                            registry=MetricsRegistry())
        for n, mode, seed in batches:
            features, labels = self._batch(tied_baseline, n, mode, seed)
            fast.observe(features, labels=labels)
            _observe_per_row(slow, features, labels=labels)
            for name in ("_counts", "_bin_ring", "_feat_ring",
                         "_label_ring", "_label_counts"):
                np.testing.assert_array_equal(getattr(fast, name),
                                              getattr(slow, name),
                                              err_msg=name)
            assert (fast._labeled, fast._pos, fast._size) == \
                (slow._labeled, slow._pos, slow._size)
            np.testing.assert_allclose(fast._feat_sum, slow._feat_sum,
                                       rtol=1e-9, atol=1e-9)
