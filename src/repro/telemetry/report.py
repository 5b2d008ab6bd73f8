"""Rendered run reports: console/markdown view of one profiled run.

Pulls the three telemetry sources together — metrics registry, span
tree, profiler — into a single markdown document with:

* a stage-level wall-time breakdown (``stage.*`` spans, *self* time so
  nested stages never double-count);
* the top-k hottest autograd ops (forward + backward time, FLOPs);
* per-layer forward costs;
* a metrics summary table (counters, gauges, histogram quantiles);
* per-epoch HD drift / saturation trends from
  ``DiagnosticsCallback.summary()`` when diagnostics are passed;
* the raw span tree for drill-down.

``scripts/profile_run.py`` prints this to the console and writes it next
to the JSONL/Prometheus exports.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

from .metrics import MetricsRegistry, get_registry
from .tracing import Tracer, get_tracer

__all__ = ["format_table", "stage_breakdown", "sparkline",
           "diagnostics_section", "render_report"]

#: Canonical pipeline stage order for the breakdown table (paper Fig. 5's
#: extract → manifold → encode → similarity → update decomposition).
STAGE_ORDER = ("stage.extract", "stage.manifold", "stage.encode",
               "stage.similarity", "stage.update")


def format_table(headers: Sequence[str],
                 rows: Sequence[Sequence[object]]) -> str:
    """Render a GitHub-markdown table with right-aligned numeric columns."""
    rendered = [[_cell(value) for value in row] for row in rows]
    widths = [max(len(str(h)), *(len(r[i]) for r in rendered))
              if rendered else len(str(h))
              for i, h in enumerate(headers)]
    numeric = [all(_is_numeric(row[i]) for row in rows) if rows else False
               for i in range(len(headers))]

    def line(cells: Sequence[str]) -> str:
        parts = []
        for i, cell in enumerate(cells):
            parts.append(cell.rjust(widths[i]) if numeric[i]
                         else cell.ljust(widths[i]))
        return "| " + " | ".join(parts) + " |"

    sep = "|" + "|".join(
        ("-" * (w + 1) + ":") if numeric[i] else ("-" * (w + 2))
        for i, w in enumerate(widths)) + "|"
    out = [line([str(h) for h in headers]), sep]
    out.extend(line(row) for row in rendered)
    return "\n".join(out)


def _is_numeric(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _cell(value: object) -> str:
    if isinstance(value, float):
        if math.isnan(value):
            return "-"
        if value != 0 and abs(value) < 1e-3:
            return f"{value:.2e}"
        return f"{value:.4f}" if abs(value) < 100 else f"{value:,.1f}"
    return str(value)


def _nested_stage_total(node) -> float:
    """Total time of the *nearest* ``stage.*`` descendants of ``node``.

    Non-stage children are traversed transparently so e.g. the
    ``hd.encode.*`` span nested inside ``stage.encode`` rolls up into its
    enclosing stage rather than hollowing it out, while a stage nested in
    a stage (``stage.similarity`` inside ``stage.update``) is subtracted
    exactly once.
    """
    total = 0.0
    for child in node.children.values():
        if child.name.startswith("stage."):
            total += child.total_s
        else:
            total += _nested_stage_total(child)
    return total


def stage_breakdown(tracer: Optional[Tracer] = None
                    ) -> List[Dict[str, object]]:
    """Per-stage wall-time table data from the ``stage.*`` spans.

    Uses stage-relative *self* time: each stage's time minus the time of
    stages nested inside it (non-stage helper spans stay attributed to
    their enclosing stage), so e.g. ``stage.similarity`` nested inside
    ``stage.update`` is counted once.  Percentages are of the sum of all
    stage self-times.
    """
    tracer = tracer if tracer is not None else get_tracer()
    stages: Dict[str, Dict[str, float]] = {}
    stack = list(tracer.root.children.values())
    while stack:
        node = stack.pop()
        if node.name.startswith("stage."):
            entry = stages.setdefault(node.name, {
                "calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0})
            entry["calls"] += node.calls
            entry["total_s"] += node.total_s
            entry["self_s"] += node.total_s - _nested_stage_total(node)
            entry["bytes"] += node.bytes
        stack.extend(node.children.values())
    total = sum(stats["self_s"] for stats in stages.values()) or 1.0
    ordered = [name for name in STAGE_ORDER if name in stages]
    ordered += sorted(name for name in stages if name not in STAGE_ORDER)
    rows = []
    for name in ordered:
        stats = stages[name]
        rows.append({
            "stage": name[len("stage."):],
            "calls": int(stats["calls"]),
            "self_s": stats["self_s"],
            "total_s": stats["total_s"],
            "share": stats["self_s"] / total,
            "bytes": int(stats["bytes"]),
        })
    return rows


#: Glyph ramp for :func:`sparkline` (eight block heights).
_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"

#: Placeholder glyph for non-finite points inside a sparkline.
_SPARK_GAP = "·"


def sparkline(values: Sequence[float], width: Optional[int] = None) -> str:
    """Render a numeric series as a unicode block sparkline.

    The series is min-max scaled onto the eight block glyphs ``▁..█``;
    non-finite points render as ``·`` without poisoning the scale, and a
    constant series renders flat at mid-height (no fake trend).  When
    ``width`` is given only the **newest** ``width`` points are drawn —
    the report cares about where a series is heading, not its ancient
    history.
    """
    vals = [float(v) for v in values]
    if width is not None and width > 0 and len(vals) > width:
        vals = vals[-width:]
    if not vals:
        return ""
    finite = [v for v in vals if math.isfinite(v)]
    if not finite:
        return _SPARK_GAP * len(vals)
    lo, hi = min(finite), max(finite)
    span = hi - lo
    out = []
    for v in vals:
        if not math.isfinite(v):
            out.append(_SPARK_GAP)
        elif span <= 0.0:
            out.append(_SPARK_BLOCKS[len(_SPARK_BLOCKS) // 2])
        else:
            idx = int((v - lo) / span * (len(_SPARK_BLOCKS) - 1) + 0.5)
            out.append(_SPARK_BLOCKS[idx])
    return "".join(out)


def diagnostics_section(diagnostics: Dict[str, object],
                        width: int = 32) -> Optional[str]:
    """Per-epoch HD drift / saturation sparkline table.

    Takes a ``DiagnosticsCallback.summary()`` dict and renders one row
    per tracked signal over ``per_epoch``: class-matrix drift (total and
    relative), saturation fraction, max off-diagonal confusability and
    train accuracy.  Returns ``None`` when there are no per-epoch
    records (e.g. a bare predict-only run).
    """
    per_epoch = list(diagnostics.get("per_epoch") or [])
    if not per_epoch:
        return None

    def _get(extract) -> List[float]:
        out = []
        for record in per_epoch:
            try:
                value = extract(record)
            except (KeyError, TypeError):
                value = None
            out.append(float(value) if isinstance(value, (int, float))
                       and not isinstance(value, bool) else math.nan)
        return out

    signals = [
        ("drift.total", _get(lambda r: r["drift"]["total"])),
        ("drift.relative", _get(lambda r: r["drift"]["relative"])),
        ("saturation_fraction", _get(lambda r: r["saturation_fraction"])),
        ("confusability.max",
         _get(lambda r: r["confusability"]["off_diag_max"])),
        ("train_acc", _get(lambda r: r.get("train_acc"))),
    ]
    rows: List[List[object]] = []
    for name, series in signals:
        if all(math.isnan(v) for v in series):
            continue
        finite = [v for v in series if math.isfinite(v)]
        rows.append([name, len(series),
                     finite[0] if finite else math.nan,
                     finite[-1] if finite else math.nan,
                     sparkline(series, width)])
    if not rows:
        return None
    return format_table(["signal", "epochs", "first", "last", "trend"],
                        rows)


def render_report(registry: Optional[MetricsRegistry] = None,
                  tracer: Optional[Tracer] = None,
                  profiler=None,
                  top_k: int = 10,
                  title: str = "Telemetry run report",
                  diagnostics: Optional[Dict[str, object]] = None) -> str:
    """Assemble the full markdown run report.

    ``diagnostics`` (a ``DiagnosticsCallback.summary()`` dict) adds the
    per-epoch HD drift/saturation trend section; it is omitted from the
    document when empty.
    """
    registry = registry if registry is not None else get_registry()
    tracer = tracer if tracer is not None else get_tracer()
    sections: List[str] = [f"# {title}", ""]

    # ------------------------------------------------------------------
    stages = stage_breakdown(tracer)
    sections.append("## Stage-level time breakdown")
    sections.append("")
    if stages:
        sections.append(format_table(
            ["stage", "calls", "self_s", "total_s", "share", "MB"],
            [[s["stage"], s["calls"], s["self_s"], s["total_s"],
              f"{100 * s['share']:.1f}%", s["bytes"] / 1e6]
             for s in stages]))
    else:
        sections.append("(no `stage.*` spans recorded)")
    sections.append("")

    # ------------------------------------------------------------------
    if profiler is not None:
        sections += [f"## Top-{top_k} hottest autograd ops", "",
                     profiler.format_top_ops(top_k), ""]
        if profiler.layers:
            sections += ["## Per-layer forward cost", "",
                         profiler.format_top_layers(top_k), ""]

    # ------------------------------------------------------------------
    snapshot = registry.snapshot()
    if snapshot:
        sections.append("## Metrics")
        sections.append("")
        rows = []
        for name, entry in snapshot.items():
            if entry["type"] in ("counter", "gauge"):
                rows.append([name, entry["type"], entry["value"], "-", "-",
                             "-"])
            else:
                rows.append([name, "histogram", entry.get("mean", math.nan),
                             entry.get("p50", math.nan),
                             entry.get("p95", math.nan),
                             int(entry.get("count", 0))])
        sections.append(format_table(
            ["metric", "type", "value/mean", "p50", "p95", "count"], rows))
        sections.append("")

    # ------------------------------------------------------------------
    if diagnostics is not None:
        diag = diagnostics_section(diagnostics)
        if diag is not None:
            sections.append("## HD diagnostics (per-epoch)")
            sections.append("")
            sections.append(diag)
            sections.append("")

    # ------------------------------------------------------------------
    sections.append("## Span tree")
    sections.append("")
    sections.append("```")
    sections.append(tracer.render())
    sections.append("```")
    sections.append("")
    return "\n".join(sections)
