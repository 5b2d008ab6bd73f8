"""Flight recorder + structured request log for the serving path.

JSONL trace export writes every span to disk for offline stitching; the
flight recorder answers the production question — "show me the request
that was slow / failed five seconds ago" — from bounded memory:

* :class:`FlightRecorder` buffers every in-flight trace's spans in
  bounded memory and, when the request-root span closes, *retains* the
  full span set for (a) every error request and (b) the slowest-N
  requests seen so far (min-heap eviction by root duration).  Everything
  else is dropped immediately, so memory stays bounded regardless of
  traffic.  Served by the ``/tracez`` debug endpoint on the server and
  router.
* :class:`RequestLog` is a bounded ring of one structured record per
  request (trace id, path, status, latency, outcome) — cheap enough to
  stay on even with span recording disabled.  Served by ``/requestz``.

:func:`enable_request_tracing` / :func:`disable_request_tracing` wire
both into the process :class:`~repro.telemetry.reqtrace.TraceHub`
singleton together with the optional JSONL writer.
"""

from __future__ import annotations

import heapq
import os
import threading
import time
from collections import deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from .reqtrace import (HUB, SpanRecord, TraceJsonlWriter, build_span_tree,
                       trace_file_for)

__all__ = ["FlightRecorder", "RequestLog", "get_flight_recorder",
           "get_request_log", "enable_request_tracing",
           "disable_request_tracing"]

#: In-flight traces a recorder buffers; the oldest is dropped first.
MAX_ACTIVE = 1024
#: Spans buffered per trace; later ones are counted and dropped.
MAX_SPANS_PER_TRACE = 256


class RequestLog:
    """Bounded ring of structured per-request records (thread-safe).

    Always on — appending a dict to a deque is cheap enough that the
    request log works even with span recording disabled, which keeps
    ``/requestz`` useful (with trace ids for correlation) at zero
    tracing overhead.
    """

    def __init__(self, maxlen: int = 512):
        self.maxlen = int(maxlen)
        self._ring: Deque[Dict[str, Any]] = deque(maxlen=self.maxlen)
        self._lock = threading.Lock()
        self.appended = 0

    def append(self, **record: Any) -> None:
        record.setdefault("ts", time.time())
        with self._lock:
            self._ring.append(record)
            self.appended += 1

    def snapshot(self, limit: Optional[int] = None,
                 trace_id: Optional[str] = None,
                 errors_only: bool = False) -> List[Dict[str, Any]]:
        """Newest-first copy, optionally filtered."""
        with self._lock:
            records = list(self._ring)
        records.reverse()
        if trace_id is not None:
            records = [r for r in records
                       if r.get("trace_id") == trace_id]
        if errors_only:
            records = [r for r in records
                       if int(r.get("status", 0)) >= 400 or r.get("error")]
        if limit is not None:
            records = records[:int(limit)]
        return records

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring)


class FlightRecorder:
    """Retain full span sets for the slowest-N and all error requests.

    Plugs into the hub as both a span sink (buffer in-flight spans by
    trace id) and a trace sink (decide retention when the root closes).
    All bounds are hard: at most :data:`MAX_ACTIVE` in-flight traces
    are buffered (oldest dropped first), at most
    :data:`MAX_SPANS_PER_TRACE` spans each, at most ``slowest`` +
    ``errors`` retained traces.
    """

    def __init__(self, slowest: int = 16, errors: int = 64):
        self.slowest = int(slowest)
        self.errors = int(errors)
        self._lock = threading.Lock()
        self._active: "Dict[str, List[SpanRecord]]" = {}
        # Min-heap of (duration, seq, trace_id): the fastest retained
        # "slow" trace is evicted first.
        self._slow_heap: List[Tuple[float, int, str]] = []
        self._error_ring: Deque[str] = deque()
        self._retained: Dict[str, Dict[str, Any]] = {}
        self._seq = 0
        self.stats: Dict[str, int] = {
            "traces_seen": 0, "spans_seen": 0, "spans_dropped": 0,
            "active_dropped": 0, "evicted": 0,
        }

    # ------------------------------------------------------------------
    # Hub sinks
    # ------------------------------------------------------------------
    def on_span(self, record: SpanRecord) -> None:
        with self._lock:
            self.stats["spans_seen"] += 1
            spans = self._active.get(record.trace_id)
            if spans is None:
                if len(self._active) >= MAX_ACTIVE:
                    # Drop the oldest in-flight trace (dict is
                    # insertion-ordered) — likely leaked or huge.
                    oldest = next(iter(self._active))
                    del self._active[oldest]
                    self.stats["active_dropped"] += 1
                spans = self._active[record.trace_id] = []
            if len(spans) < MAX_SPANS_PER_TRACE:
                spans.append(record)
            else:
                self.stats["spans_dropped"] += 1

    def on_trace_end(self, root: SpanRecord) -> None:
        with self._lock:
            self.stats["traces_seen"] += 1
            spans = self._active.pop(root.trace_id, [])
            prior = self._retained.get(root.trace_id)
            if prior is not None:
                # Multi-segment trace inside ONE process: an embedded
                # worker's request root closes before the router's root
                # for the same trace — merge the earlier segment's
                # spans instead of overwriting them.
                spans = prior["spans"] + spans
            if not any(s.span_id == root.span_id for s in spans):
                spans.append(root)
            reasons = set()
            if root.status == "error":
                reasons.add("error")
            if self.slowest > 0:
                if len(self._slow_heap) < self.slowest:
                    reasons.add("slow")
                elif root.duration_s > self._slow_heap[0][0]:
                    reasons.add("slow")
            prior_reasons = prior["reasons"] if prior is not None \
                else set()
            if not reasons and not prior_reasons:
                return
            # Register ring/heap bookkeeping only for reasons this
            # trace did not already hold, so a re-ended trace is never
            # double-counted against the retention budgets.
            new_reasons = reasons - prior_reasons
            self._retained[root.trace_id] = {
                "trace_id": root.trace_id, "root": root, "spans": spans,
                "reasons": reasons | prior_reasons,
            }
            if "error" in new_reasons:
                self._error_ring.append(root.trace_id)
                if len(self._error_ring) > self.errors:
                    self._drop_reason(self._error_ring.popleft(), "error")
            if "slow" in new_reasons:
                self._seq += 1
                heapq.heappush(self._slow_heap,
                               (root.duration_s, self._seq, root.trace_id))
                if len(self._slow_heap) > self.slowest:
                    _, _, evicted = heapq.heappop(self._slow_heap)
                    self._drop_reason(evicted, "slow")
            elif "slow" in prior_reasons:
                # Multi-segment re-end: the router's (longer) root closed
                # after the embedded worker's — re-key the heap entry so
                # eviction order reflects the true root duration.
                for i, (dur, seq, tid) in enumerate(self._slow_heap):
                    if tid == root.trace_id:
                        if root.duration_s > dur:
                            self._slow_heap[i] = (
                                root.duration_s, seq, tid)
                            heapq.heapify(self._slow_heap)
                        break

    def _drop_reason(self, trace_id: str, reason: str) -> None:
        entry = self._retained.get(trace_id)
        if entry is None:
            return
        entry["reasons"].discard(reason)
        if not entry["reasons"]:
            del self._retained[trace_id]
            self.stats["evicted"] += 1

    # ------------------------------------------------------------------
    # Introspection (the /tracez endpoint)
    # ------------------------------------------------------------------
    def lookup(self, trace_id: str) -> Optional[Dict[str, Any]]:
        """Full retained trace as JSON-ready dict (None if not retained)."""
        with self._lock:
            entry = self._retained.get(trace_id)
            if entry is None:
                return None
            events = [span.to_event() for span in entry["spans"]]
            reasons = sorted(entry["reasons"])
        return {
            "trace_id": trace_id,
            "retained_for": reasons,
            "spans": events,
            "tree": build_span_tree(events),
        }

    def snapshot(self) -> Dict[str, Any]:
        """Summary of everything retained (slowest first)."""
        with self._lock:
            entries = []
            for entry in self._retained.values():
                root = entry["root"]
                entries.append({
                    "trace_id": entry["trace_id"],
                    "name": root.name,
                    "duration_ms": root.duration_s * 1000.0,
                    "status": root.status,
                    "error": root.error,
                    "start_ts": root.start_ts,
                    "spans": len(entry["spans"]),
                    "retained_for": sorted(entry["reasons"]),
                })
            active = len(self._active)
            stats = dict(self.stats)
        entries.sort(key=lambda e: -e["duration_ms"])
        return {"retained": entries, "active_traces": active,
                "stats": stats,
                "limits": {"slowest": self.slowest, "errors": self.errors,
                           "max_active": MAX_ACTIVE,
                           "max_spans_per_trace": MAX_SPANS_PER_TRACE}}

    def retained_ids(self) -> List[str]:
        with self._lock:
            return list(self._retained)

    def clear(self) -> None:
        with self._lock:
            self._active.clear()
            self._slow_heap = []
            self._error_ring.clear()
            self._retained.clear()
            self._seq = 0
            for key in self.stats:
                self.stats[key] = 0

    def __repr__(self) -> str:
        return (f"FlightRecorder(retained={len(self._retained)}, "
                f"active={len(self._active)}, stats={self.stats})")


# ----------------------------------------------------------------------
# Process singletons + wiring
# ----------------------------------------------------------------------
_FLIGHT = FlightRecorder()
_REQUEST_LOG = RequestLog()
_WRITER: Optional[TraceJsonlWriter] = None


def get_flight_recorder() -> FlightRecorder:
    """The process-global flight recorder behind ``/tracez``."""
    return _FLIGHT


def get_request_log() -> RequestLog:
    """The process-global request log behind ``/requestz``."""
    return _REQUEST_LOG


def enable_request_tracing(service: str,
                           trace_dir: Optional[str] = None) -> FlightRecorder:
    """Turn on request tracing for this process.

    Configures the hub singleton (service name), wires the flight
    recorder as span + trace sink, and — when ``trace_dir`` is given —
    a per-process JSONL writer for every span.  It clears previously
    retained traces and sinks, so repeated calls (tests, benchmark
    phases) never double-register.
    """
    global _WRITER
    hub = HUB
    if _WRITER is not None:
        _WRITER.close()
        _WRITER = None
    hub.clear_sinks()
    _FLIGHT.clear()
    hub.configure(service=service, enabled=True)
    hub.add_span_sink(_FLIGHT.on_span)
    hub.add_trace_sink(_FLIGHT.on_trace_end)
    if trace_dir:
        os.makedirs(trace_dir, exist_ok=True)
        _WRITER = TraceJsonlWriter(trace_file_for(trace_dir, service))
        hub.add_span_sink(_WRITER)
    return _FLIGHT


def disable_request_tracing() -> None:
    """Back to the dormant default (flushes + closes the JSONL writer)."""
    global _WRITER
    HUB.configure(enabled=False)
    HUB.clear_sinks()
    if _WRITER is not None:
        _WRITER.close()
        _WRITER = None

