"""Per-request distributed tracing: trace contexts, span records, hub.

The aggregate span tree answers "where does the wall time go *on
average*" — it collapses every request into one tree of totals.  The
per-request output of the same spans answers "where did the time of
*this specific request* go", across process boundaries.  Both come
from :class:`~repro.telemetry.tracing.span`, whose frames live on one
per-thread stack in :mod:`~repro.telemetry.tracing`; this module holds
the request side around it, the substrate for the serving fleet's
end-to-end tracing (router → worker → micro-batcher → stage graph):

* :class:`TraceContext` — a W3C ``traceparent``-compatible identity
  (32-hex trace id, 16-hex span id) that the router mints
  at the front door and forwards to the routed worker, so one request
  is one trace id end to end, including across failover retries.
* :class:`SpanRecord` — one *completed* span occurrence with wall-clock
  start (``time.time``, comparable across processes), duration, status,
  and free-form attributes.
* :class:`TraceHub` — the process-global collector: configuration,
  request-root frames (:meth:`TraceHub.trace`) and adopted
  contexts (:meth:`TraceHub.activate`, so spans opened on a worker
  thread parent correctly), pluggable span sinks (JSONL writer, flight
  recorder) and trace-end sinks (fired when a request-root span
  closes).
* :class:`TraceJsonlWriter` — append-only per-process JSONL sink for
  every recorded span; :func:`repro.telemetry.stitch_traces` reassembles
  the cross-process span trees from several processes' files.

Everything here is stdlib-only.  The hub is dormant by default: with
``HUB.enabled`` False a span pays one attribute check for its request
output (gated <5% on the serving hot path by ``scripts/check_trace.sh``),
and :meth:`TraceHub.trace` still yields a usable context — requests
always get an id to echo even when nothing is recorded.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from contextlib import nullcontext
from typing import Any, Callable, ContextManager, Dict, List, Optional

__all__ = [
    "TraceContext", "SpanRecord", "TraceHub", "TraceJsonlWriter",
    "get_hub", "build_span_tree", "trace_file_for",
    "new_span_id", "TRACE_EVENT_TYPE",
]

#: ``type`` discriminator of per-request span events in JSONL files
#: (distinct from the aggregate tracer's ``"span"`` tree nodes).
TRACE_EVENT_TYPE = "trace_span"

_TRACEPARENT_RE = re.compile(
    r"^(?P<version>[0-9a-f]{2})-(?P<trace_id>[0-9a-f]{32})-"
    r"(?P<span_id>[0-9a-f]{16})-(?P<flags>[0-9a-f]{2})$")


def _rand_hex(nbytes: int) -> str:
    return os.urandom(nbytes).hex()


def new_span_id() -> str:
    """A fresh 16-hex span/batch id (also used to tag coalesced batches)."""
    return _rand_hex(8)


class TraceContext:
    """W3C trace-context identity of one span position in one trace."""

    __slots__ = ("trace_id", "span_id")

    def __init__(self, trace_id: str, span_id: str):
        self.trace_id = trace_id
        self.span_id = span_id

    # ------------------------------------------------------------------
    @classmethod
    def mint(cls) -> "TraceContext":
        """A brand-new trace (random 128-bit trace id, 64-bit span id)."""
        return cls(_rand_hex(16), _rand_hex(8))

    def child(self) -> "TraceContext":
        """Same trace, fresh span id (the propagated parent of a hop)."""
        return TraceContext(self.trace_id, _rand_hex(8))

    # ------------------------------------------------------------------
    def to_traceparent(self) -> str:
        """``00-<trace_id>-<span_id>-01`` (W3C traceparent).

        The flags are always ``01``: a traced process records every
        request, so there is no sampling decision to propagate.
        """
        return f"00-{self.trace_id}-{self.span_id}-01"

    @classmethod
    def parse(cls, header: Optional[str]) -> Optional["TraceContext"]:
        """Parse a ``traceparent`` header; ``None`` when absent/invalid.

        Malformed headers are *ignored* rather than rejected — a bad
        client header must never fail the request, the receiver just
        mints a fresh trace.  Per the W3C spec, version ``ff`` and
        all-zero ids are invalid.  The flags field must be two hex
        digits but is not acted on.
        """
        if not header:
            return None
        match = _TRACEPARENT_RE.match(header.strip().lower())
        if match is None:
            return None
        if match.group("version") == "ff":
            return None
        trace_id = match.group("trace_id")
        span_id = match.group("span_id")
        if set(trace_id) == {"0"} or set(span_id) == {"0"}:
            return None
        return cls(trace_id, span_id)

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        return (isinstance(other, TraceContext)
                and self.trace_id == other.trace_id
                and self.span_id == other.span_id)

    def __hash__(self) -> int:
        return hash((self.trace_id, self.span_id))

    def __repr__(self) -> str:
        return f"TraceContext({self.trace_id[:8]}…/{self.span_id})"


class SpanRecord:
    """One completed span occurrence (immutable once emitted)."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "service",
                 "start_ts", "duration_s", "status", "error", "attrs")

    def __init__(self, name: str, trace_id: str, span_id: str,
                 parent_id: str = "", service: str = "",
                 start_ts: float = 0.0, duration_s: float = 0.0,
                 status: str = "ok", error: Optional[str] = None,
                 attrs: Optional[Dict[str, Any]] = None):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.service = service
        self.start_ts = float(start_ts)
        self.duration_s = float(duration_s)
        self.status = status
        self.error = error
        self.attrs = attrs or {}

    def to_event(self) -> Dict[str, Any]:
        event: Dict[str, Any] = {
            "type": TRACE_EVENT_TYPE,
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "service": self.service,
            "start_ts": self.start_ts,
            "duration_s": self.duration_s,
            "status": self.status,
        }
        if self.error:
            event["error"] = self.error
        if self.attrs:
            event["attrs"] = self.attrs
        return event

    def __repr__(self) -> str:
        return (f"SpanRecord({self.name}, trace={self.trace_id[:8]}…, "
                f"{self.duration_s * 1000:.2f}ms, {self.status})")


class TraceHub:
    """Process-global request-trace collector (one per process).

    Disabled by default; :func:`repro.telemetry.enable_request_tracing`
    configures the singleton in place (service name, sinks)
    so module-level references cached by hot paths stay valid.
    """

    def __init__(self):
        self.enabled = False
        self.service = "proc"
        self._sink_lock = threading.Lock()
        self._span_sinks: List[Callable[[SpanRecord], None]] = []
        self._trace_sinks: List[Callable[[SpanRecord], None]] = []

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def configure(self, service: Optional[str] = None,
                  enabled: Optional[bool] = None) -> "TraceHub":
        if service is not None:
            self.service = str(service)
        if enabled is not None:
            self.enabled = bool(enabled)
        return self

    def add_span_sink(self, sink: Callable[[SpanRecord], None]) -> None:
        with self._sink_lock:
            self._span_sinks.append(sink)

    def add_trace_sink(self, sink: Callable[[SpanRecord], None]) -> None:
        """``sink(root_record)`` fires when a request-root span closes."""
        with self._sink_lock:
            self._trace_sinks.append(sink)

    def clear_sinks(self) -> None:
        with self._sink_lock:
            self._span_sinks = []
            self._trace_sinks = []

    def reset(self) -> None:
        """Back to the dormant default state (tests / run boundaries)."""
        self.enabled = False
        self.service = "proc"
        self.clear_sinks()

    # ------------------------------------------------------------------
    # Request frames (on the one span stack of :mod:`.tracing`)
    # ------------------------------------------------------------------
    def current(self) -> Optional[TraceContext]:
        """The calling thread's innermost active context (None while the
        hub is dormant or outside any request)."""
        return _tracing._current_context() if self.enabled else None

    def activate(self, ctx: Optional[TraceContext]) -> ContextManager:
        """Adopt ``ctx`` as the calling thread's current context.

        This is how a batcher worker thread picks up the submitting
        request's context so engine/stage spans land in its trace.
        ``None`` adopts nothing.
        """
        if ctx is None:
            return nullcontext()
        return _tracing._context_frame(ctx)

    def trace(self, name: str, parent: Optional[TraceContext] = None,
              attrs: Optional[Dict[str, Any]] = None) -> "_tracing.span":
        """Open a request-root span (fires trace-end sinks on close).

        Works with the hub disabled too: the returned span still carries
        a minted (unrecorded) :class:`TraceContext`, so servers can echo
        a request id unconditionally.
        """
        ctx = parent.child() if parent is not None else TraceContext.mint()
        return _tracing._context_frame(
            ctx, name, parent.span_id if parent is not None else "", attrs)

    def record_span(self, name: str, parent: TraceContext,
                    start_ts: float, duration_s: float,
                    attrs: Optional[Dict[str, Any]] = None,
                    status: str = "ok",
                    error: Optional[str] = None) -> Optional[SpanRecord]:
        """Emit a *pre-timed* span (e.g. queue wait measured elsewhere)."""
        if not self.enabled:
            return None
        ctx = parent.child()
        record = SpanRecord(
            name=name, trace_id=ctx.trace_id, span_id=ctx.span_id,
            parent_id=parent.span_id, service=self.service,
            start_ts=start_ts, duration_s=duration_s, status=status,
            error=error, attrs=attrs)
        self.emit(record)
        return record

    def event(self, name: str,
              attrs: Optional[Dict[str, Any]] = None) -> None:
        """Zero-duration annotation under the thread's current context."""
        if not self.enabled:
            return
        parent = self.current()
        if parent is None:
            return
        self.record_span(name, parent, time.time(), 0.0, attrs)

    def emit(self, record: SpanRecord) -> None:
        with self._sink_lock:
            sinks = list(self._span_sinks)
        for sink in sinks:
            try:
                sink(record)
            except Exception:
                pass  # a broken sink must never fail the request

    def _end_trace(self, root: SpanRecord) -> None:
        with self._sink_lock:
            sinks = list(self._trace_sinks)
        for sink in sinks:
            try:
                sink(root)
            except Exception:
                pass

    def __repr__(self) -> str:
        return (f"TraceHub(service={self.service!r}, "
                f"enabled={self.enabled})")


# ----------------------------------------------------------------------
# Process-global hub
# ----------------------------------------------------------------------
#: The process singleton; configured in place, never swapped, so hot
#: paths can cache a module-level reference.
HUB = TraceHub()


def get_hub() -> TraceHub:
    """The process-global request-trace hub."""
    return HUB


# ----------------------------------------------------------------------
# JSONL sink
# ----------------------------------------------------------------------
def trace_file_for(trace_dir: str, service: str) -> str:
    """Per-process trace file path: ``trace-<service>-<pid>.jsonl``."""
    safe = re.sub(r"[^a-zA-Z0-9_.-]", "-", service) or "proc"
    return os.path.join(trace_dir, f"trace-{safe}-{os.getpid()}.jsonl")


class TraceJsonlWriter:
    """Span sink appending every span to a JSONL file (thread-safe).

    One line per completed span, flushed immediately — a crashed worker
    loses at most the span being written, and the stitcher can read the
    file while the process is still serving.
    """

    def __init__(self, path: str):
        self.path = path
        self._lock = threading.Lock()
        self._handle = None
        self.written = 0

    def __call__(self, record: SpanRecord) -> None:
        line = json.dumps(record.to_event(), sort_keys=True)
        with self._lock:
            if self._handle is None:
                directory = os.path.dirname(self.path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                self._handle = open(self.path, "a")
            self._handle.write(line + "\n")
            self._handle.flush()
            self.written += 1

    def close(self) -> None:
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None


# ----------------------------------------------------------------------
# Span-tree assembly (shared by the flight recorder and the stitcher)
# ----------------------------------------------------------------------
def build_span_tree(events: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Nest flat span events of ONE trace into parent → children trees.

    Returns the list of root nodes (spans whose parent is absent from
    ``events`` — usually exactly one per trace), each
    ``{"span": event, "children": [...]}`` with children ordered by
    start time.  Spans arriving from different processes join on
    ``parent_id``; an orphan (its parent's process never flushed)
    becomes its own root rather than being dropped.
    """
    nodes = {event["span_id"]: {"span": event, "children": []}
             for event in events}
    roots: List[Dict[str, Any]] = []
    for node in nodes.values():
        parent = nodes.get(node["span"].get("parent_id") or "")
        if parent is None or parent is node:
            roots.append(node)
        else:
            parent["children"].append(node)
    for node in nodes.values():
        node["children"].sort(key=lambda n: n["span"].get("start_ts", 0.0))
    roots.sort(key=lambda n: n["span"].get("start_ts", 0.0))
    return roots


# The span stack lives in tracing.py, which imports HUB from this module;
# imported last so either module can be imported first.
from . import tracing as _tracing  # noqa: E402
