"""Telemetry subsystem: metrics, tracing spans, exporters, drift monitors.

The observability layer for the NSHD reproduction (zero dependencies
beyond numpy + stdlib, importable from every other layer):

* :mod:`~repro.telemetry.metrics` — process-global
  :class:`MetricsRegistry` of counters, gauges and streaming histograms
  (log-bucket quantiles within 1 % relative error: p50/p95/p99 without
  storing samples).
* :mod:`~repro.telemetry.tracing` — one nestable :class:`span`
  context manager on one thread-local frame stack, with two outputs: a
  hierarchical aggregate timing tree per :class:`Tracer`, and — inside
  an active request — per-request span records for the
  :mod:`~repro.telemetry.reqtrace` hub (trace contexts, sinks, JSONL
  export); :func:`clock` is the shared monotonic clock.
* :mod:`~repro.telemetry.exporters` — Prometheus-style text exposition
  and its parser (every sample, NaN/±Inf included, round-trips
  bit-exactly), the JSONL reader, and cross-process trace stitching.
* :mod:`~repro.telemetry.ledger` — provenance of a measurement: git
  state (:func:`git_info`), environment (:func:`env_fingerprint`) and
  config digests (:func:`config_fingerprint`).
* :mod:`~repro.telemetry.diagnostics` — HD model introspection
  (class-hypervector drift, bipolar saturation fraction,
  class-confusability matrix) behind :func:`matrix_health`, which the
  online promotion gate reads.
* :mod:`~repro.telemetry.quality` — *streaming* model-quality
  monitors for the serving path: a :class:`QualityBaseline` captured
  at bundle-export time (per-feature sketches, class priors, margin
  quantiles) and a rolling-window :class:`DriftMonitor` (PSI/z-score
  feature drift, prediction skew, margin histograms, HV saturation)
  publishing ``quality.*`` metrics behind ``/driftz``.
* :mod:`~repro.telemetry.alerts` — declarative alert rules
  (threshold / absence) over the metrics registry with a
  pending→firing→resolved state machine, for-duration debouncing,
  ``alert.state.*`` gauges and the ``/alertz`` endpoint.

Quickstart — where a training run's time went, per stage::

    from repro import telemetry

    tracer = telemetry.Tracer()
    previous = telemetry.set_tracer(tracer)
    try:
        nshd.fit(x_train, y_train, epochs=5)
    finally:
        telemetry.set_tracer(previous)
    for name, stats in sorted(tracer.aggregate().items()):
        print(f"{name:<24} {stats['calls']:6d} {stats['self_s']:8.3f}s")
    print(telemetry.prometheus_text())

The provenance names are lazy (:mod:`repro._lazy`): the ledger imports
``subprocess`` and ``platform``, which a serving worker never uses.
"""

from .._lazy import lazy_exports
from .alerts import (ALERT_KINDS, ALERT_STATES, AlertManager, AlertRule,
                     AlertRuleError, load_alert_rules)
from .diagnostics import (class_drift, confusability_matrix,
                          confusability_summary, matrix_health,
                          saturation_fraction)
from .exporters import (NONFINITE_KEY, encode_non_finite, non_finite_hook,
                        parse_prometheus, prometheus_text, read_jsonl,
                        read_trace_jsonl, render_trace_tree,
                        sanitize_metric_name, stitch_traces)
from .flight import (FlightRecorder, RequestLog, disable_request_tracing,
                     enable_request_tracing, get_flight_recorder,
                     get_request_log)
from .metrics import (DEFAULT_QUANTILES, Counter, Gauge, Histogram,
                      MetricsRegistry, get_registry, set_registry,
                      use_registry)
from .quality import (BASELINE_VERSION, DEFAULT_BINS, DriftMonitor,
                      QualityBaseline, population_stability_index)
from .reqtrace import (TRACE_EVENT_TYPE, SpanRecord, TraceContext, TraceHub,
                       TraceJsonlWriter, build_span_tree, get_hub,
                       new_span_id, trace_file_for)
from .tracing import SpanNode, Tracer, clock, get_tracer, set_tracer, span

_, __getattr__, __dir__ = lazy_exports(__name__, {
    "ledger": ["git_info", "env_fingerprint", "config_fingerprint"]})

__all__ = [
    # metrics
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "get_registry", "set_registry", "use_registry",
    "DEFAULT_QUANTILES",
    # tracing
    "SpanNode", "Tracer", "span", "get_tracer", "set_tracer", "clock",
    # request tracing
    "TraceContext", "SpanRecord", "TraceHub", "TraceJsonlWriter",
    "get_hub", "build_span_tree", "trace_file_for",
    "new_span_id", "TRACE_EVENT_TYPE",
    # flight recorder + request log
    "FlightRecorder", "RequestLog", "get_flight_recorder",
    "get_request_log", "enable_request_tracing", "disable_request_tracing",
    # exporters
    "read_jsonl", "prometheus_text", "parse_prometheus",
    "sanitize_metric_name", "encode_non_finite", "non_finite_hook",
    "NONFINITE_KEY", "read_trace_jsonl", "stitch_traces",
    "render_trace_tree",
    # provenance
    "git_info", "env_fingerprint", "config_fingerprint",
    # diagnostics
    "class_drift", "saturation_fraction", "confusability_matrix",
    "confusability_summary", "matrix_health",
    # quality (streaming drift monitors)
    "QualityBaseline", "DriftMonitor", "population_stability_index",
    "BASELINE_VERSION", "DEFAULT_BINS",
    # alerts
    "AlertRule", "AlertManager", "AlertRuleError", "load_alert_rules",
    "ALERT_KINDS", "ALERT_STATES",
]
