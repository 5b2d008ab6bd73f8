"""HD diagnostics: drift/saturation/confusability units, the
matrix-health view, and the end-to-end smoke-run stage check."""

import json
import math

import numpy as np
import pytest

from repro.learn import VanillaHD
from repro.telemetry import (Tracer, class_drift, confusability_matrix,
                             confusability_summary, get_tracer,
                             matrix_health, saturation_fraction, set_tracer,
                             use_registry)


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


class TestMatrixHealth:
    def test_same_shape_reference_gives_drift(self):
        reference = np.ones((3, 8))
        matrix = reference.copy()
        matrix[1, :2] = -1.0
        health = matrix_health(matrix, reference=reference)
        assert health["classes"] == 3
        assert health["drift"] == class_drift(reference, matrix)
        assert health["saturation_fraction"] == saturation_fraction(matrix)
        assert health["confusability"] == confusability_summary(matrix)

    def test_grown_matrix_compares_shared_rows(self):
        reference = np.ones((2, 8))
        matrix = np.vstack([reference, -np.ones((1, 8))])
        health = matrix_health(matrix, reference=reference)
        assert health["classes"] == 3
        assert health["drift"]["per_class"] == [0.0, 0.0]

    def test_no_comparable_reference_no_drift(self):
        assert matrix_health(np.ones((2, 8)))["drift"] is None
        assert matrix_health(np.ones((2, 8)),
                             reference=np.ones((2, 4)))["drift"] is None


class TestSmokeRunDiagnostics:
    """Acceptance: one smoke pipeline fit records non-empty stage
    timings in the global tracer's aggregate."""

    def test_vanillahd_run_records_stages_and_drift(self, fresh_tracer):
        rng = np.random.default_rng(0)
        images = rng.standard_normal((60, 3, 8, 8)).astype(np.float64)
        labels = rng.integers(0, 3, 60)
        with use_registry():
            pipeline = VanillaHD(num_classes=3, image_size=8, dim=256,
                                 seed=0)
            pipeline.fit(images, labels, epochs=2, batch_size=32)

        # Non-empty stage timings covering the instrumented stages.
        stages = fresh_tracer.aggregate()
        assert {"stage.encode", "stage.similarity",
                "stage.update"} <= set(stages)
        assert all(stages[name]["calls"] >= 1 and stages[name]["self_s"] >= 0
                   for name in ("stage.encode", "stage.similarity",
                                "stage.update"))
