"""Telemetry subsystem: metrics, tracing spans, profiling, exporters.

The observability layer for the NSHD reproduction (zero dependencies
beyond numpy + stdlib, importable from every other layer):

* :mod:`~repro.telemetry.metrics` — process-global
  :class:`MetricsRegistry` of counters, gauges and streaming histograms
  (P² quantiles: p50/p95/p99 without storing samples).
* :mod:`~repro.telemetry.tracing` — one nestable :class:`span`
  context manager on one thread-local frame stack, with two outputs: a
  hierarchical aggregate timing tree per :class:`Tracer`, and — inside
  an active request — per-request span records for the
  :mod:`~repro.telemetry.reqtrace` hub (trace contexts, sampling, sinks,
  JSONL export); :func:`clock` is the shared monotonic clock.
* :mod:`~repro.telemetry.profiler` — :class:`Profiler` hooking the
  autograd engine for per-op / per-layer forward+backward time and
  FLOP/MAC estimates; near-zero overhead while disabled.
* :mod:`~repro.telemetry.exporters` — JSONL event log and
  Prometheus-style text exposition (plus parsers for round-tripping;
  NaN/±Inf survive both directions losslessly).
* :mod:`~repro.telemetry.report` — rendered console/markdown run report
  with the extract → manifold → encode → similarity → update stage
  breakdown and the top-k hottest ops.
* :mod:`~repro.telemetry.ledger` — provenance of a measurement: git
  state (:func:`git_info`), environment (:func:`env_fingerprint`) and
  config digests (:func:`config_fingerprint`).
* :mod:`~repro.telemetry.diagnostics` — per-epoch HD model
  introspection (class-hypervector drift, bipolar saturation fraction,
  class-confusability matrix, similarity-margin quantiles) via
  :class:`DiagnosticsCallback` riding the trainer-callback protocol.
* :mod:`~repro.telemetry.quality` — *streaming* model-quality
  monitors for the serving path: a :class:`QualityBaseline` captured
  at bundle-export time (per-feature sketches, class priors, margin
  quantiles) and a rolling-window :class:`DriftMonitor` (PSI/z-score
  feature drift, prediction skew, margin histograms, HV saturation)
  publishing ``quality.*`` metrics behind ``/driftz``.
* :mod:`~repro.telemetry.alerts` — declarative alert rules
  (threshold / absence / burn-rate) over the metrics registry with a
  pending→firing→resolved state machine, for-duration debouncing,
  ``alert.state.*`` gauges and the ``/alertz`` endpoint.

Quickstart::

    from repro import telemetry

    diag = telemetry.DiagnosticsCallback()
    with telemetry.Profiler() as prof:
        nshd.fit(x_train, y_train, epochs=5, callbacks=[diag])
    print(telemetry.render_report(profiler=prof,
                                  diagnostics=diag.summary()))
    telemetry.export_jsonl("run.jsonl", profiler=prof)
"""

from .alerts import (ALERT_KINDS, ALERT_STATES, AlertManager, AlertRule,
                     AlertRuleError, load_alert_rules)
from .diagnostics import (DiagnosticsCallback, class_drift,
                          confusability_matrix, confusability_summary,
                          margin_quantiles, matrix_health,
                          saturation_fraction)
from .exporters import (NONFINITE_KEY, collect_events, decode_non_finite,
                        encode_non_finite, export_jsonl, export_prometheus,
                        parse_prometheus, prometheus_text, read_jsonl,
                        read_trace_jsonl, render_trace_tree,
                        sanitize_metric_name, stitch_traces)
from .flight import (FlightRecorder, RequestLog, disable_request_tracing,
                     enable_request_tracing, get_flight_recorder,
                     get_request_log, tracing_env_options)
from .ledger import config_fingerprint, env_fingerprint, git_info
from .metrics import (DEFAULT_QUANTILES, BurnRateTracker, Counter, Gauge,
                      Histogram, MetricsRegistry, P2Quantile, get_registry,
                      set_registry, use_registry)
from .profiler import (LayerStat, OpStat, Profiler, disabled_overhead_ratio,
                       get_active_profiler)
from .quality import (BASELINE_VERSION, DEFAULT_BINS, DriftMonitor,
                      QualityBaseline, population_stability_index)
from .report import (diagnostics_section, format_table, render_report,
                     sparkline, stage_breakdown)
from .reqtrace import (TRACE_EVENT_TYPE, SpanRecord, TraceContext, TraceHub,
                       TraceJsonlWriter, build_span_tree, get_hub,
                       new_span_id, sample_trace, trace_file_for)
from .tracing import SpanNode, Tracer, clock, get_tracer, set_tracer, span

__all__ = [
    # metrics
    "Counter", "Gauge", "Histogram", "P2Quantile", "MetricsRegistry",
    "BurnRateTracker", "get_registry", "set_registry", "use_registry",
    "DEFAULT_QUANTILES",
    # tracing
    "SpanNode", "Tracer", "span", "get_tracer", "set_tracer", "clock",
    # request tracing
    "TraceContext", "SpanRecord", "TraceHub", "TraceJsonlWriter",
    "get_hub", "sample_trace", "build_span_tree", "trace_file_for",
    "new_span_id", "TRACE_EVENT_TYPE",
    # flight recorder + request log
    "FlightRecorder", "RequestLog", "get_flight_recorder",
    "get_request_log", "enable_request_tracing", "disable_request_tracing",
    "tracing_env_options",
    # profiler
    "OpStat", "LayerStat", "Profiler", "get_active_profiler",
    "disabled_overhead_ratio",
    # exporters
    "collect_events", "export_jsonl", "read_jsonl", "prometheus_text",
    "export_prometheus", "parse_prometheus", "sanitize_metric_name",
    "encode_non_finite", "decode_non_finite", "NONFINITE_KEY",
    "read_trace_jsonl", "stitch_traces", "render_trace_tree",
    # report
    "format_table", "render_report", "stage_breakdown", "sparkline",
    "diagnostics_section",
    # provenance
    "git_info", "env_fingerprint", "config_fingerprint",
    # diagnostics
    "DiagnosticsCallback", "class_drift", "saturation_fraction",
    "confusability_matrix", "confusability_summary", "margin_quantiles",
    "matrix_health",
    # quality (streaming drift monitors)
    "QualityBaseline", "DriftMonitor", "population_stability_index",
    "BASELINE_VERSION", "DEFAULT_BINS",
    # alerts
    "AlertRule", "AlertManager", "AlertRuleError", "load_alert_rules",
    "ALERT_KINDS", "ALERT_STATES",
]
