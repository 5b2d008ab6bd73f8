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

    @pytest.mark.parametrize("dim", [1, 65, 130])
    def test_packed_words_saturation_without_a_scan(
            self, baseline, monkeypatch, dim):
        """Sign words are bipolar rows: their gauge equals the float
        scan of the unpacked rows, and no scan runs."""
        words = pack_bipolar(np.sign(_rng(5).normal(size=(64, dim))))
        want = saturation_fraction(unpack_bipolar(words, dim))
        monitor, registry = self._monitor(baseline)

        def no_scan(*args, **kwargs):
            raise AssertionError("packed words were scanned")

        monkeypatch.setattr(quality, "saturation_fraction", no_scan)
        for _ in range(2):  # published on every call
            registry.set_gauge("quality.encoded.saturation", -1.0)
            monitor.observe(_rng(0).normal(size=(64, 6)), encoded=words)
            assert registry.get("quality.encoded.saturation").value == want
        assert monitor.snapshot()["saturation"] == want

    def test_window_smaller_than_min_samples_is_refused(self, baseline):
        # Such a window never holds min_samples rows, so its PSI and
        # z-score would read 0 on any stream.
        with pytest.raises(ValueError, match="min_samples 64"):
            DriftMonitor(baseline, window=32)
        with pytest.raises(ValueError, match="min_samples"):
            DriftMonitor(baseline, window=15, min_samples=16)

    def test_feature_count_mismatch_raises(self, baseline):
        monitor, _ = self._monitor(baseline)
        with pytest.raises(ValueError, match="columns"):
            monitor.observe(np.zeros((4, 5)))

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
        """Threads observing single rows while others read: the window
        holds the last rows, each with its own label, and a last read
        publishes what it saw."""
        registry = MetricsRegistry()
        monitor = DriftMonitor(baseline, window=self.WINDOW,
                               min_samples=self.MIN, registry=registry)
        rows = self._drifting_rows(4 * 150, seed=12)
        label_of = {tuple(row): i % 4 for k in range(4)
                    for i, row in enumerate(rows[k::4])}

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
        held = [tuple(row) for row in monitor._feat_ring]
        assert len(set(held)) == self.WINDOW
        assert monitor._label_ring.tolist() == [label_of[row]
                                                for row in held]
        _assert_window(monitor, registry, monitor._feat_ring,
                       monitor._label_ring.tolist())
        snap = monitor.snapshot()
        assert snap["window"]["labeled"] == self.WINDOW
        assert registry.get("quality.feature.psi_max").value == \
            snap["feature"]["psi_max"]


def _reference_window(baseline, rows, labels, min_samples):
    """What ``snapshot()`` reports for a window of ``rows`` served
    ``labels`` (-1 unlabeled), counted anew: bins by the
    broadcast compare, PSI from the public function one feature at a
    time, labels of ``k`` or more left out of the label window."""
    rows = np.asarray(rows, dtype=np.float64).reshape(
        -1, baseline.num_features)
    served = [label for label in labels if label >= 0]
    counts = [served.count(c) for c in range(baseline.num_classes)]
    total = sum(counts)
    psi = np.zeros(baseline.num_features)
    zscore = prediction_psi = 0.0
    if len(rows) >= min_samples:
        bins = (rows[:, :, None] >= baseline.bin_edges[None]).sum(axis=2)
        psi = np.array([population_stability_index(
            baseline.expected[f],
            np.bincount(bins[:, f], minlength=baseline.n_bins))
            for f in range(baseline.num_features)])
        z = (rows.mean(axis=0) - baseline.feature_mean) \
            / (baseline.feature_std / np.sqrt(len(rows)))
        zscore = float(np.abs(z).max())
        if len(served) >= min_samples:
            prediction_psi = population_stability_index(
                baseline.class_priors, counts)
    return {"size": len(rows), "labeled": len(served),
            "label_window": [c / total if total else 0.0 for c in counts],
            "psi": {f: float(v) for f, v in enumerate(psi) if v > 0.0},
            "psi_max": float(psi.max()), "psi_mean": float(psi.mean()),
            "zscore_max": zscore, "prediction_psi": prediction_psi}


def _assert_window(monitor, registry, rows, labels):
    """``monitor.snapshot()`` equals :func:`_reference_window` over
    ``rows``: the PSI rows, prediction PSI and label window exactly, the
    z-score (a sum in another order) to 1e-12 relative."""
    want = _reference_window(monitor.baseline, rows, labels,
                             monitor.min_samples)
    snap = monitor.snapshot()
    window, feature = snap["window"], snap["feature"]
    assert (window["size"], window["labeled"]) == \
        (want["size"], want["labeled"])
    assert snap["prediction"]["window"] == want["label_window"]
    assert snap["prediction"]["psi"] == want["prediction_psi"]
    assert (feature["psi_max"], feature["psi_mean"]) == \
        (want["psi_max"], want["psi_mean"])
    assert feature["zscore_max"] == pytest.approx(
        want["zscore_max"], rel=1e-12, abs=0, nan_ok=True)
    assert [row["psi"] for row in feature["top"]] == \
        sorted(want["psi"].values(), reverse=True)[:5]
    everything = monitor.top_features(monitor.baseline.num_features)
    assert {row["feature"]: row["psi"] for row in everything} \
        == want["psi"]
    assert registry.get("quality.feature.psi_max").value == \
        want["psi_max"]
    assert registry.get("quality.prediction.psi").value == \
        want["prediction_psi"]


@pytest.fixture(scope="module")
def tied_baseline():
    # Integer-valued training data: the decile edges repeat and live
    # values below are drawn on them, so ``>=`` ties are exercised.
    rng = _rng(11)
    return QualityBaseline.from_training(
        rng.integers(0, 6, size=(400, 5)).astype(np.float64),
        labels=rng.integers(0, 4, size=400), num_classes=4)


def _live_batch(baseline, n, mode, seed, poisoned):
    """``n`` live rows, half of their values on a decile edge, and their
    labels: none, a prefix of the rows, or all of them, drawn from -1
    (unlabeled) to k + 1 (outside the priors).  A poisoned batch holds a
    NaN and a +Inf and a -Inf in one column."""
    rng = _rng(seed)
    f = baseline.num_features
    on_edge = baseline.bin_edges[np.arange(f),
                                 rng.integers(0, baseline.n_bins - 1,
                                              size=(n, f))]
    features = np.where(rng.random((n, f)) < 0.5, on_edge,
                        rng.normal(2.5, 2.0, size=(n, f)))
    if poisoned and n:
        rows = rng.integers(0, n, size=3)
        features[rows[0], 0] = np.nan
        features[rows[1], -1] = np.inf
        features[rows[2], -1] = -np.inf
    labels = rng.integers(-1, baseline.num_classes + 2, size=n)
    if mode == "none":
        return features, None
    if mode == "short":
        labels = labels[:int(rng.integers(0, n + 1))]
    return features, labels


@st.composite
def _window_plans(draw):
    """A window, its ``min_samples``, and batches ``(rows, label mode,
    seed, poisoned)``, some longer than the window."""
    window = draw(st.sampled_from([1, 7, 64, 100]))
    min_samples = draw(st.integers(1, window))
    batches = draw(st.lists(
        st.tuples(st.integers(0, 3 * window + 5),
                  st.sampled_from(["none", "short", "full"]),
                  st.integers(0, 2 ** 32 - 1),
                  st.sampled_from([False, False, True])),
        min_size=1, max_size=8))
    return window, min_samples, batches


class TestVectorizedObserve:
    """``observe`` writes a batch in one update, equal to observing its
    rows one at a time."""

    @settings(max_examples=60, deadline=None)
    @given(plan=_window_plans())
    def test_batch_update_equals_per_row_loop(self, tied_baseline, plan):
        window, min_samples, batches = plan
        fast = DriftMonitor(tied_baseline, window=window,
                            min_samples=min_samples,
                            registry=MetricsRegistry())
        slow = DriftMonitor(tied_baseline, window=window,
                            min_samples=min_samples,
                            registry=MetricsRegistry())
        for n, mode, seed, poisoned in batches:
            features, served = _live_batch(tied_baseline, n, mode, seed,
                                           poisoned)
            with np.errstate(invalid="ignore"):
                fast.observe(features, labels=served)
                for i in range(n):
                    label = None if served is None or i >= len(served) \
                        else served[i:i + 1]
                    slow.observe(features[i:i + 1], labels=label)
                for name in ("_bin_ring", "_feat_ring", "_label_ring"):
                    np.testing.assert_array_equal(getattr(fast, name),
                                                  getattr(slow, name),
                                                  err_msg=name)
                assert (fast._pos, fast._size, fast.samples) == \
                    (slow._pos, slow._size, slow.samples)
                np.testing.assert_equal(fast.snapshot(), slow.snapshot())


class TestFoldInvariant:
    """After every batch the monitor's tallies equal a fresh count over
    the last ``window`` rows, and a training column holding NaN has NaN
    at every decile edge."""

    @settings(max_examples=80, deadline=None)
    @given(plan=_window_plans())
    def test_tallies_equal_a_recount_after_every_fold(self, tied_baseline,
                                                      plan):
        # The last ``window`` rows are kept in a plain list here.
        window, min_samples, batches = plan
        registry = MetricsRegistry()
        monitor = DriftMonitor(tied_baseline, window=window,
                               min_samples=min_samples, registry=registry)
        rows, labels = [], []
        for n, mode, seed, poisoned in batches:
            features, served = _live_batch(tied_baseline, n, mode, seed,
                                           poisoned)
            padded = [-1] * n
            if served is not None:
                padded[:len(served)] = served.tolist()
            # +Inf and -Inf in one column of the window sum to NaN.
            with np.errstate(invalid="ignore"):
                monitor.observe(features, labels=served)
                rows = (rows + list(features))[-window:]
                labels = (labels + padded)[-window:]
                _assert_window(monitor, registry, rows, labels)
        assert monitor.samples == sum(n for n, *_ in batches)

    def test_nan_training_column_folds_exactly(self):
        # Every live value of that feature lands in bin 0, as every
        # training value did: the feature shows no shift.
        rng = _rng(5)
        train = rng.normal(size=(200, 3))
        train[7, 1] = np.nan
        baseline = QualityBaseline.from_training(train, num_classes=2)
        assert np.isnan(baseline.bin_edges[1]).all()
        registry = MetricsRegistry()
        monitor = DriftMonitor(baseline, window=40, min_samples=1,
                               registry=registry)
        rows = []
        for count in (16, 16, 16, 5):
            batch = rng.normal(size=(count, 3))
            monitor.observe(batch)
            rows = (rows + list(batch))[-40:]
            _assert_window(monitor, registry, rows, [-1] * len(rows))
        # Feature 1's cells are (1, bin 0), flat index n_bins.
        assert (monitor._bin_ring[:, 1] == baseline.n_bins).all()
        assert 1 not in {row["feature"] for row in monitor.top_features(3)}


class TestBinEdges:
    """A baseline read from a bundle manifest may carry any edges; the
    window's statistics must stay a recount of its rows whatever they
    are."""

    @staticmethod
    def _dict(edges):
        edges = np.asarray(edges, dtype=np.float64)
        f, bins = edges.shape[0], edges.shape[1] + 1
        return {"version": 1, "feature_mean": np.zeros(f).tolist(),
                "feature_std": np.ones(f).tolist(),
                "bin_edges": edges.tolist(),
                "expected": np.full((f, bins), 1.0 / bins).tolist(),
                "class_priors": [0.5, 0.5]}

    @pytest.mark.parametrize("edges", [
        [[1.0, 2.0, np.nan]],
        [[np.nan, np.nan, np.nan]],
        [[1.0, 1.0, 1.0]],
        [[-np.inf, 0.0, np.inf]],
        [[1.0, np.nan, 3.0]],
        [[np.nan, 1.0, 3.0]],
        [[3.0, 1.0, 2.0]],
        [[np.inf, -np.inf, 2.0]],
    ])
    def test_any_edges_fold_exactly(self, edges):
        baseline = QualityBaseline.from_dict(self._dict(edges))
        registry = MetricsRegistry()
        monitor = DriftMonitor(baseline, window=24, min_samples=1,
                               registry=registry)
        values = np.array([-np.inf, -1.0, 0.0, 1.0, 1.5, 2.0, 5.0,
                           np.inf, np.nan])
        rng = _rng(9)
        rows = []
        with np.errstate(invalid="ignore"):
            for count in (12, 12, 12, 2, 30):
                batch = rng.choice(values, size=(count, 1))
                monitor.observe(batch)
                rows = (rows + list(batch))[-24:]
                _assert_window(monitor, registry, rows, [-1] * len(rows))
