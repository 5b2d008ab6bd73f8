"""Exporters: JSONL reading, Prometheus-style text, trace stitching.

* **JSONL** — one JSON object per line, tagged with a ``type`` field:
  the request-trace files :class:`~repro.telemetry.TraceJsonlWriter`
  writes.  :func:`read_jsonl` reads any such file back;
  :func:`read_trace_jsonl` and :func:`stitch_traces` rebuild the
  cross-process span trees from them.
* **Prometheus text exposition** — counters and gauges verbatim,
  histograms as Prometheus *summaries* (``name{quantile="0.5"} …`` +
  ``name_sum`` / ``name_count``).  Dotted metric names become
  underscore-separated and get a ``repro_`` prefix.

Both formats round-trip **non-finite** values losslessly: strict JSON has
no NaN/±Inf literal, so :func:`encode_non_finite` maps them to a tagged
object (``{"__nonfinite__": "nan"}``) that :func:`non_finite_hook`
restores while the JSON is parsed; the Prometheus text format has
native ``NaN`` / ``+Inf`` / ``-Inf`` sample values, which are emitted
and parsed verbatim.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List, Optional

from .metrics import MetricsRegistry, get_registry
from .reqtrace import TRACE_EVENT_TYPE, build_span_tree

__all__ = ["read_jsonl", "prometheus_text", "parse_prometheus",
           "sanitize_metric_name", "encode_non_finite", "non_finite_hook",
           "NONFINITE_KEY", "read_trace_jsonl", "stitch_traces",
           "render_trace_tree"]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")

#: Tag key used to encode NaN/±Inf floats in strict-JSON documents.
NONFINITE_KEY = "__nonfinite__"

_NONFINITE_ENCODE = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf}


def sanitize_metric_name(name: str, prefix: str = "repro") -> str:
    """``guard.nan_batches`` → ``repro_guard_nan_batches``."""
    cleaned = _NAME_RE.sub("_", name.replace(".", "_"))
    return f"{prefix}_{cleaned}" if prefix else cleaned


def encode_non_finite(value):
    """Recursively replace NaN/±Inf floats with JSON-safe tagged objects.

    ``nan → {"__nonfinite__": "nan"}``, ``inf → {"__nonfinite__": "inf"}``,
    ``-inf → {"__nonfinite__": "-inf"}``.  Containers (dict/list/tuple)
    are walked; everything else passes through untouched.  The inverse is
    :func:`non_finite_hook`; together they make ``json.dumps(...,
    allow_nan=False)`` safe without losing the sentinel semantics (an
    all-NaN histogram quantile must stay NaN, not become ``null`` or 0).
    """
    if isinstance(value, float):
        if math.isfinite(value):
            return value
        if math.isnan(value):
            return {NONFINITE_KEY: "nan"}
        return {NONFINITE_KEY: "inf" if value > 0 else "-inf"}
    if isinstance(value, dict):
        return {key: encode_non_finite(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_non_finite(item) for item in value]
    return value


def non_finite_hook(obj: Dict[str, object]):
    """``json.loads`` ``object_hook`` that decodes the tags of
    :func:`encode_non_finite` while the document is parsed: a tagged
    object becomes its float, any other object passes through."""
    if len(obj) == 1 and NONFINITE_KEY in obj:
        tag = obj[NONFINITE_KEY]
        try:
            return _NONFINITE_ENCODE[tag]
        except (KeyError, TypeError):
            raise ValueError(
                f"unknown non-finite tag {tag!r} "
                f"(expected one of {sorted(_NONFINITE_ENCODE)})") from None
    return obj


# ----------------------------------------------------------------------
# JSONL
# ----------------------------------------------------------------------
def read_jsonl(path: str) -> List[Dict[str, object]]:
    """Parse a JSONL telemetry file back into event dicts.

    Non-finite values written as tagged objects (see
    :func:`encode_non_finite`) are restored to the original NaN/±Inf
    floats.
    """
    events = []
    with open(path) as handle:
        for line_no, line in enumerate(handle, 1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line, object_hook=non_finite_hook))
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: invalid JSONL line: {exc}") from exc
    return events


# ----------------------------------------------------------------------
# Prometheus text exposition format
# ----------------------------------------------------------------------
def _prom_value(value: object) -> str:
    """Render a sample value so that ``float()`` reads it back bit-exactly.

    ``repr`` is the shortest round-tripping decimal; an integral value
    drops its ``.0`` (``1234567``, not ``1.23457e+06``).  Non-finite
    values use Prometheus' native forms.
    """
    value = float(value)  # type: ignore[arg-type]
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    text = repr(value)
    return text[:-2] if text.endswith(".0") else text


def prometheus_text(registry: Optional[MetricsRegistry] = None) -> str:
    """Render the registry in the Prometheus text exposition format.

    Non-finite values are emitted with the format's native ``NaN`` /
    ``+Inf`` / ``-Inf`` sample syntax (instead of being zeroed or
    dropped), so :func:`parse_prometheus` round-trips them losslessly —
    an empty histogram's quantiles stay NaN rather than vanishing.
    """
    registry = registry if registry is not None else get_registry()
    lines: List[str] = []
    for name, entry in registry.snapshot().items():
        metric = sanitize_metric_name(name)
        kind = entry["type"]
        if kind in ("counter", "gauge"):
            lines.append(f"# TYPE {metric} {kind}")
            lines.append(f"{metric} {_prom_value(entry['value'])}")
        elif kind == "histogram":
            lines.append(f"# TYPE {metric} summary")
            exemplars = entry.get("exemplars") or {}
            for key, value in entry.items():
                if not key.startswith("p") or key == "exemplars":
                    continue
                quantile = float(key[1:]) / 100.0
                line = (f'{metric}{{quantile="{quantile:g}"}} '
                        f"{_prom_value(value)}")
                exemplar = exemplars.get(key)
                if exemplar:
                    # OpenMetrics exemplar syntax:
                    #   value # {trace_id="…"} exemplar_value timestamp
                    line += (f' # {{trace_id="{exemplar["trace_id"]}"}} '
                             f'{_prom_value(exemplar["value"])} '
                             f'{float(exemplar.get("ts", 0.0)):.3f}')
                lines.append(line)
            lines.append(f"{metric}_sum {_prom_value(entry.get('sum', 0.0))}")
            lines.append(
                f"{metric}_count {_prom_value(entry.get('count', 0))}")
    return "\n".join(lines) + ("\n" if lines else "")


_SAMPLE_RE = re.compile(
    r'^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)'
    r'(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>[^\s#]+)'
    r'(?:\s+#\s+\{(?P<ex_labels>[^}]*)\}\s+(?P<ex_value>[^\s]+)'
    r'(?:\s+(?P<ex_ts>[^\s]+))?)?$')

_EX_TRACE_RE = re.compile(r'trace_id="(?P<trace_id>[^"]*)"')


def parse_prometheus(text: str) -> Dict[str, Dict[str, object]]:
    """Parse Prometheus exposition text back into a nested dict.

    Returns ``{metric_name: {"type": str, "samples": {labels: value}}}``
    where ``labels`` is the raw label string ("" when absent).  Supports
    exactly the subset :func:`prometheus_text` emits — enough for
    round-trip tests and for diffing two runs' metric files.
    """
    out: Dict[str, Dict[str, object]] = {}
    for line_no, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                out.setdefault(parts[2], {"type": parts[3], "samples": {}})
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ValueError(f"line {line_no}: unparseable sample {line!r}")
        name = match.group("name")
        # _sum/_count samples belong to their parent summary metric.
        base = name
        for suffix in ("_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in out:
                base = name[:-len(suffix)]
                break
        entry = out.setdefault(base, {"type": "untyped", "samples": {}})
        key = match.group("labels") or ""
        if base != name:
            key = name[len(base) + 1:]  # "sum" / "count"
        entry["samples"][key] = float(match.group("value"))
        if match.group("ex_labels") is not None:
            trace = _EX_TRACE_RE.search(match.group("ex_labels"))
            exemplar = {
                "trace_id": trace.group("trace_id") if trace else "",
                "value": float(match.group("ex_value")),
            }
            if match.group("ex_ts"):
                exemplar["ts"] = float(match.group("ex_ts"))
            entry.setdefault("exemplars", {})[key] = exemplar
    return out


# ----------------------------------------------------------------------
# Cross-process trace stitching
# ----------------------------------------------------------------------
def read_trace_jsonl(*paths: str) -> List[Dict[str, object]]:
    """Load per-request span events from one or more trace JSONL files.

    Each file is one process's :class:`~repro.telemetry.TraceJsonlWriter`
    output (router, workers, …); non-span lines are ignored so the
    files can share a directory with other telemetry exports.
    """
    events: List[Dict[str, object]] = []
    for path in paths:
        events.extend(event for event in read_jsonl(path)
                      if event.get("type") == TRACE_EVENT_TYPE)
    return events


def stitch_traces(events: List[Dict[str, object]]
                  ) -> Dict[str, Dict[str, object]]:
    """Reassemble cross-process span trees from flat span events.

    Groups by ``trace_id`` and joins spans across processes on
    ``parent_id`` (the router's attempt span id travels to the worker
    in the ``traceparent`` header, so the worker's root nests under
    it).  Returns ``{trace_id: summary}`` where each summary carries:

    * ``roots`` — nested span trees (exactly one for a fully stitched
      trace; more means a hop's file is missing → ``complete=False``);
    * ``services`` — every process that contributed spans;
    * ``duration_s`` / ``status`` — taken from the root span;
    * ``span_count`` and the flat ``spans`` themselves.
    """
    by_trace: Dict[str, List[Dict[str, object]]] = {}
    for event in events:
        by_trace.setdefault(str(event["trace_id"]), []).append(event)
    out: Dict[str, Dict[str, object]] = {}
    for trace_id, spans in by_trace.items():
        roots = build_span_tree(spans)
        starts = [float(s.get("start_ts", 0.0)) for s in spans]
        ends = [float(s.get("start_ts", 0.0))
                + float(s.get("duration_s", 0.0)) for s in spans]
        if len(roots) == 1:
            root = roots[0]["span"]
            duration = float(root.get("duration_s", 0.0))
            status = str(root.get("status", "ok"))
        else:
            duration = max(ends) - min(starts) if spans else 0.0
            status = ("error" if any(s.get("status") == "error"
                                     for s in spans) else "ok")
        out[trace_id] = {
            "trace_id": trace_id,
            "roots": roots,
            "complete": len(roots) == 1,
            "span_count": len(spans),
            "services": sorted({str(s.get("service", ""))
                                for s in spans}),
            "duration_s": duration,
            "status": status,
            "spans": spans,
        }
    return out


def render_trace_tree(roots: List[Dict[str, object]]) -> str:
    """ASCII rendering of stitched span trees (debugging / reports),
    12 levels deep at most."""
    lines: List[str] = []

    def emit(node: Dict[str, object], depth: int) -> None:
        if depth > 12:
            return
        span_event = node["span"]
        name = span_event.get("name", "?")
        service = span_event.get("service", "")
        duration_ms = 1000.0 * float(span_event.get("duration_s", 0.0))
        status = span_event.get("status", "ok")
        suffix = "" if status == "ok" else f"  !{status}"
        attrs = span_event.get("attrs") or {}
        attr_text = (" " + " ".join(f"{k}={v}" for k, v in
                                    sorted(attrs.items()))
                     if attrs else "")
        lines.append(f"{'  ' * depth}{name} [{service}] "
                     f"{duration_ms:9.3f}ms{suffix}{attr_text}")
        for child in node["children"]:
            emit(child, depth + 1)

    for root in roots:
        emit(root, 0)
    if not lines:
        lines.append("(no spans)")
    return "\n".join(lines)
