"""HD diagnostics: drift/saturation/confusability units, callback wiring,
and the end-to-end smoke-run integration check."""

import json
import math

import numpy as np
import pytest

from repro.learn import MassTrainer, VanillaHD
from repro.telemetry import (DiagnosticsCallback, Tracer, class_drift,
                             confusability_matrix, confusability_summary,
                             encode_non_finite, get_tracer,
                             margin_quantiles, saturation_fraction,
                             set_tracer, stage_breakdown, use_registry)


@pytest.fixture()
def fresh_tracer():
    previous = set_tracer(Tracer())
    yield get_tracer()
    set_tracer(previous)


class TestClassDrift:
    def test_known_values(self):
        prev = np.zeros((2, 4))
        curr = np.array([[3.0, 4.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]])
        drift = class_drift(prev, curr)
        assert drift["per_class"] == [5.0, 0.0]
        assert drift["total"] == pytest.approx(5.0)

    def test_relative_nan_for_zero_previous(self):
        drift = class_drift(np.zeros((2, 4)), np.ones((2, 4)))
        assert math.isnan(drift["relative"])

    def test_relative_normalised(self):
        prev = np.ones((1, 4))
        drift = class_drift(prev, 2 * prev)
        assert drift["relative"] == pytest.approx(1.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="shape mismatch"):
            class_drift(np.zeros((2, 4)), np.zeros((3, 4)))

    def test_no_drift(self):
        matrix = np.random.default_rng(0).standard_normal((3, 8))
        drift = class_drift(matrix, matrix)
        assert drift["total"] == 0.0
        assert drift["relative"] == 0.0


class TestSaturation:
    def test_zero_matrix(self):
        assert saturation_fraction(np.zeros((4, 8))) == 0.0

    def test_empty_matrix(self):
        assert saturation_fraction(np.zeros((0, 8))) == 0.0

    def test_uniform_magnitude_not_saturated(self):
        # Bipolar matrix: every |entry| == RMS, nothing above 3x RMS.
        matrix = np.sign(np.random.default_rng(0).standard_normal((4, 64)))
        assert saturation_fraction(matrix) == 0.0

    def test_spike_detected(self):
        matrix = np.ones((1, 100))
        matrix[0, 0] = 1000.0
        frac = saturation_fraction(matrix, factor=3.0)
        assert frac == pytest.approx(0.01)

    def test_bad_factor_raises(self):
        with pytest.raises(ValueError, match="factor"):
            saturation_fraction(np.ones((2, 2)), factor=0.0)

    @pytest.mark.parametrize("factor", [0.5, 1.0, 3.0])
    def test_matches_the_threshold_pass(self, factor):
        """The early exit returns exactly what the full |m| > limit
        pass (kept here as the reference) returns."""
        def reference(matrix):
            rms = float(np.sqrt(np.mean(np.square(matrix))))
            if rms == 0.0 or not math.isfinite(rms):
                return 0.0
            return float(np.mean(np.abs(matrix) > factor * rms))

        rng = np.random.default_rng(11)
        gaussian = rng.standard_normal((256, 300))
        with_nan = gaussian.copy()
        with_nan[3, 7] = np.nan
        saturated = np.sign(gaussian)
        saturated[:, :4] *= 50.0
        negative_spike = np.ones((8, 50))
        negative_spike[2, 3] = -1000.0
        for matrix in (gaussian, np.sign(gaussian), np.zeros((16, 32)),
                       with_nan, saturated, negative_spike):
            assert saturation_fraction(matrix, factor) == reference(matrix)


class TestConfusability:
    def test_orthogonal_classes(self):
        sims = confusability_matrix(np.eye(3))
        assert np.allclose(sims, np.eye(3))

    def test_identical_classes_fully_confusable(self):
        matrix = np.tile(np.arange(1.0, 5.0), (2, 1))
        summary = confusability_summary(matrix)
        assert summary["off_diag_max"] == pytest.approx(1.0)
        assert summary["most_confusable"] == [0, 1]

    def test_zero_rows_do_not_blow_up(self):
        sims = confusability_matrix(np.zeros((2, 4)))
        assert np.all(np.isfinite(sims))

    def test_single_class_nan_summary(self):
        summary = confusability_summary(np.ones((1, 4)))
        assert math.isnan(summary["off_diag_mean"])
        assert summary["most_confusable"] is None

    def test_most_confusable_pair(self):
        matrix = np.array([[1.0, 0.0, 0.0],
                           [0.0, 1.0, 0.0],
                           [0.1, 0.995, 0.0]])
        summary = confusability_summary(matrix)
        assert sorted(summary["most_confusable"]) == [1, 2]

    def test_mixed_zero_norm_row_stays_finite(self):
        # One untrained (all-zero) prototype among live ones must not
        # poison the summary with NaN/inf.
        matrix = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        summary = confusability_summary(matrix)
        assert math.isfinite(summary["off_diag_mean"])
        assert math.isfinite(summary["off_diag_max"])

    def test_single_class_summary_is_json_safe(self):
        # json.dumps must not choke on the degenerate k=1 summary once
        # NaNs are mapped out the way a JSON summary stores them.
        summary = confusability_summary(np.ones((1, 4)))
        safe = {key: (None if isinstance(value, float)
                      and math.isnan(value) else value)
                for key, value in summary.items()}
        json.dumps(safe)


class TestMarginQuantiles:
    def test_empty_when_absent(self):
        with use_registry():
            assert margin_quantiles() == {}

    def test_populated_from_histogram(self):
        with use_registry() as registry:
            registry.observe_many("train.similarity_margin",
                                  [0.1, 0.2, 0.3, 0.4, 0.5])
            quantiles = margin_quantiles(registry)
        assert quantiles["count"] == 5
        assert quantiles["mean"] == pytest.approx(0.3)
        assert {"p50", "p95", "p99"} <= set(quantiles)

    def test_wrong_kind_ignored(self):
        with use_registry() as registry:
            registry.set_gauge("train.similarity_margin", 1.0)
            assert margin_quantiles(registry) == {}

    def test_empty_histogram_returns_empty(self):
        # A histogram that exists but never sampled any margin must
        # yield {} rather than NaN quantiles.
        with use_registry() as registry:
            registry.histogram("train.similarity_margin")
            assert margin_quantiles(registry) == {}


def make_hv_problem(n=120, dim=128, classes=4, seed=0):
    rng = np.random.default_rng(seed)
    prototypes = np.sign(rng.standard_normal((classes, dim)))
    labels = rng.integers(0, classes, n)
    noise = np.where(rng.random((n, dim)) < 0.2, -1.0, 1.0)
    return prototypes[labels] * noise, labels


class TestDiagnosticsCallback:
    def test_records_one_entry_per_epoch(self, fresh_tracer):
        hvs, labels = make_hv_problem()
        with use_registry() as registry:
            diag = DiagnosticsCallback()
            MassTrainer(4, 128).fit(hvs, labels, epochs=3, batch_size=32,
                                    rng=np.random.default_rng(1),
                                    callbacks=[diag])
            snapshot = registry.snapshot()
        assert len(diag.records) == 3
        assert [r["epoch"] for r in diag.records] == [0, 1, 2]
        first = diag.records[0]
        # Epoch 0 drift is measured against the pre-fit (zero) matrix.
        assert first["drift"]["total"] > 0.0
        assert 0.0 <= first["saturation_fraction"] <= 1.0
        assert "off_diag_max" in first["confusability"]
        assert first["margin"]["count"] > 0
        # Gauges published for dashboards.
        for name in ("hd.drift_total", "hd.saturation_fraction",
                     "hd.confusability_max"):
            assert name in snapshot, name

    def test_drift_shrinks_as_training_converges(self, fresh_tracer):
        hvs, labels = make_hv_problem()
        with use_registry():
            diag = DiagnosticsCallback()
            MassTrainer(4, 128, lr=0.05).fit(
                hvs, labels, epochs=5, batch_size=32,
                rng=np.random.default_rng(1), callbacks=[diag])
        totals = [r["drift"]["total"] for r in diag.records]
        # Later-epoch updates are strictly smaller than the initial
        # zero-to-trained jump.
        assert totals[-1] < totals[0]

    def test_summary_structure_json_safe(self, fresh_tracer):
        hvs, labels = make_hv_problem()
        with use_registry():
            diag = DiagnosticsCallback()
            MassTrainer(4, 128).fit(hvs, labels, epochs=2, batch_size=32,
                                    rng=np.random.default_rng(1),
                                    callbacks=[diag])
        summary = diag.summary()
        assert len(summary["per_epoch"]) == 2
        final = summary["final"]
        for key in ("drift_total", "drift_relative", "saturation_fraction",
                    "confusability", "margin"):
            assert key in final, key
        matrix = summary["confusability_matrix"]
        assert len(matrix) == 4 and len(matrix[0]) == 4
        assert all(m[i][i] == pytest.approx(1.0)
                   for i, m in ((i, matrix) for i in range(4)))
        # Must survive strict-JSON encoding after non-finite tagging.
        json.dumps(encode_non_finite(summary), allow_nan=False)

    def test_no_matrix_no_records(self, fresh_tracer):
        diag = DiagnosticsCallback()  # trainer stays None
        diag.on_fit_start(None, 2)
        diag.on_epoch_end(0, {})
        assert diag.records == []
        assert diag.summary() == {"per_epoch": []}

    def test_works_without_on_fit_start(self, fresh_tracer):
        with use_registry():
            trainer = MassTrainer(3, 32)
            trainer.class_matrix = np.ones((3, 32))
            diag = DiagnosticsCallback(trainer=trainer)
            diag.on_epoch_end(0, {"train_acc": 0.5})
        assert len(diag.records) == 1
        assert diag.records[0]["train_acc"] == 0.5


class TestSmokeRunDiagnostics:
    """Acceptance: one smoke pipeline fit records non-empty stage
    timings and drift diagnostics that survive strict JSON."""

    def test_vanillahd_run_records_stages_and_drift(self, fresh_tracer):
        rng = np.random.default_rng(0)
        images = rng.standard_normal((60, 3, 8, 8)).astype(np.float64)
        labels = rng.integers(0, 3, 60)
        with use_registry():
            pipeline = VanillaHD(num_classes=3, image_size=8, dim=256,
                                 seed=0)
            diag = DiagnosticsCallback()
            pipeline.fit(images, labels, epochs=2, batch_size=32,
                         callbacks=[diag])

        # Non-empty stage timings covering the instrumented stages.
        stages = {row["stage"]: row for row in stage_breakdown(fresh_tracer)}
        assert {"encode", "similarity", "update"} <= set(stages)
        assert all(row["self_s"] >= 0.0 for row in stages.values())
        assert stages["update"]["calls"] >= 1
        # Drift diagnostics present, populated and JSON-safe.
        summary = json.loads(json.dumps(encode_non_finite(diag.summary()),
                                        allow_nan=False))
        assert len(summary["per_epoch"]) == 2
        assert summary["final"]["drift_total"] >= 0.0
        assert 0 <= summary["final"]["saturation_fraction"] <= 1
