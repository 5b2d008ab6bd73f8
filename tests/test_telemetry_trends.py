"""Sparkline trend rendering: report sparklines and per-epoch HD
diagnostics sections."""

import numpy as np

from repro.telemetry import (DiagnosticsCallback, MetricsRegistry, Tracer,
                             diagnostics_section, render_report, sparkline)


class TestSparkline:
    def test_monotone_ramp_uses_full_glyph_range(self):
        line = sparkline([1, 2, 3, 4, 5, 6, 7, 8])
        assert line == "▁▂▃▄▅▆▇█"

    def test_constant_series_is_flat_mid_height(self):
        assert sparkline([5.0, 5.0, 5.0]) == "▅▅▅"

    def test_empty_series(self):
        assert sparkline([]) == ""

    def test_single_point(self):
        assert len(sparkline([3.14])) == 1

    def test_nan_renders_as_gap_without_poisoning_scale(self):
        line = sparkline([1.0, float("nan"), 3.0])
        assert line == "▁·█"

    def test_all_nan(self):
        assert sparkline([float("nan")] * 4) == "····"

    def test_inf_is_a_gap(self):
        line = sparkline([1.0, float("inf"), 2.0])
        assert line[1] == "·"

    def test_width_keeps_newest_points(self):
        # Oldest half descends, newest half ascends: the window must
        # show the ascent only.
        values = list(range(10, 0, -1)) + list(range(10))
        line = sparkline(values, width=10)
        assert len(line) == 10
        assert line == sparkline(list(range(10)))

    def test_width_larger_than_series_is_noop(self):
        assert sparkline([1, 2], width=100) == sparkline([1, 2])

    def test_extremes_map_to_extreme_glyphs(self):
        line = sparkline([0.0, 100.0])
        assert line[0] == "▁" and line[-1] == "█"


class TestDiagnosticsSection:
    @staticmethod
    def _summary(epochs=4):
        return {"per_epoch": [
            {"epoch": e,
             "drift": {"total": 8.0 / (e + 1), "relative": 0.5 / (e + 1)},
             "saturation_fraction": 0.02 * e,
             "confusability": {"off_diag_max": 0.4 - 0.05 * e},
             "margin": {},
             "train_acc": 0.6 + 0.1 * e}
            for e in range(epochs)]}

    def test_empty_returns_none(self):
        assert diagnostics_section({}) is None
        assert diagnostics_section({"per_epoch": []}) is None

    def test_all_signals_render(self):
        table = diagnostics_section(self._summary())
        for signal in ("drift.total", "drift.relative",
                       "saturation_fraction", "confusability.max",
                       "train_acc"):
            assert signal in table
        assert any(g in table for g in "▁▂▃▄▅▆▇█")

    def test_missing_train_acc_drops_row(self):
        summary = self._summary()
        for record in summary["per_epoch"]:
            del record["train_acc"]
        table = diagnostics_section(summary)
        assert "train_acc" not in table
        assert "drift.total" in table

    def test_malformed_records_do_not_raise(self):
        summary = {"per_epoch": [{"epoch": 0}, {"epoch": 1,
                                                "drift": "garbage"}]}
        assert diagnostics_section(summary) is None

    def test_real_callback_summary_renders(self):
        class FakeTrainer:
            class_matrix = np.zeros((3, 16))

        trainer = FakeTrainer()
        registry = MetricsRegistry()
        diag = DiagnosticsCallback(trainer, registry=registry)
        diag.on_fit_start(trainer, total_epochs=2)
        rng = np.random.default_rng(0)
        for epoch in range(2):
            trainer.class_matrix = rng.standard_normal((3, 16))
            diag.on_epoch_end(epoch, {"train_acc": 0.5 + 0.1 * epoch})
        diag.on_fit_end({})
        table = diagnostics_section(diag.summary())
        assert "drift.total" in table and "train_acc" in table


class TestRenderReportWiring:
    def test_sections_present_when_sources_given(self):
        report = render_report(
            registry=MetricsRegistry(), tracer=Tracer(),
            diagnostics=TestDiagnosticsSection._summary())
        assert "## HD diagnostics (per-epoch)" in report

    def test_sections_absent_by_default(self):
        report = render_report(registry=MetricsRegistry(), tracer=Tracer())
        assert "HD diagnostics" not in report

    def test_empty_sources_are_omitted_not_rendered_empty(self):
        report = render_report(
            registry=MetricsRegistry(), tracer=Tracer(),
            diagnostics={"per_epoch": []})
        assert "HD diagnostics" not in report
