"""Tracing spans: where does the wall time go, overall and per request?

``with span("stage.encode", nbytes=batch.nbytes): ...`` pushes a frame
onto the calling thread's span stack (the only span stack in the
package).  Closing the frame feeds two outputs:

* the **aggregate tree** of a :class:`Tracer` (process-global by
  default): wall time, call count and bytes per tree position, shared by
  all threads.  Nested / reentrant spans become children, so the tree
  mirrors the dynamic call structure::

      pipeline.fit
        epoch
          stage.manifold
          stage.encode
            hd.encode.random_projection
          stage.update
            stage.similarity

  Every node knows its *self time* (total minus children);
  :meth:`Tracer.aggregate` sums it per span name, so nested stages never
  double-count.
* a per-request :class:`~repro.telemetry.reqtrace.SpanRecord`, sent to
  the request-trace hub's sinks when the hub is enabled and the thread
  is inside a request (``HUB.trace`` / ``HUB.activate`` frames).

``span(..., aggregate=False)`` keeps only the second output.  A frame's
tree parent is the innermost open frame of the *same* tracer, so a
private tracer's spans interleaved with the global tracer's still build
their own tree.

The clock is :func:`time.perf_counter`, exported as :func:`clock` so
other modules (e.g. per-epoch timing in the pipelines' ``history``)
share one monotonic time source with the spans.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Dict, List, Optional

from .reqtrace import HUB as _HUB
from .reqtrace import SpanRecord, TraceContext

__all__ = ["SpanNode", "Tracer", "span", "get_tracer", "set_tracer",
           "clock"]

#: Monotonic clock shared by spans and the per-epoch history timings.
clock = time.perf_counter


class SpanNode:
    """Aggregated statistics of one position in the span tree."""

    __slots__ = ("name", "parent", "children", "calls", "total_s", "bytes")

    def __init__(self, name: str, parent: Optional["SpanNode"] = None):
        self.name = name
        self.parent = parent
        self.children: Dict[str, SpanNode] = {}
        self.calls = 0
        self.total_s = 0.0
        self.bytes = 0

    def child(self, name: str) -> "SpanNode":
        node = self.children.get(name)
        if node is None:
            node = SpanNode(name, parent=self)
            self.children[name] = node
        return node

    @property
    def self_s(self) -> float:
        """Wall time spent in this span excluding child spans."""
        return self.total_s - sum(c.total_s for c in self.children.values())

    @property
    def path(self) -> str:
        parts: List[str] = []
        node: Optional[SpanNode] = self
        while node is not None and node.parent is not None:
            parts.append(node.name)
            node = node.parent
        return "/".join(reversed(parts))

    def __repr__(self) -> str:
        return (f"SpanNode({self.path or '<root>'}, calls={self.calls}, "
                f"total={self.total_s:.4f}s)")


class Tracer:
    """Owner of one aggregate span tree.

    All threads share the tree; open spans live on each thread's own
    frame stack, so concurrent spans from worker threads land as
    siblings without interleaving.  Tree mutation happens under a single
    lock — spans are batch-scale (milliseconds), so the
    microsecond-scale lock is noise.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.root = SpanNode("<root>")
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Drop the tree.  Open spans finish into the old tree; spans
        opened after the reset land under the new root."""
        with self._lock:
            self.root = SpanNode("<root>")

    def aggregate(self) -> Dict[str, Dict[str, float]]:
        """Collapse the tree by span *name* across all positions.

        Returns ``{name: {"calls", "total_s", "self_s", "bytes"}}`` —
        ``self_s`` sums each node's own time minus its children, so the
        values of disjoint stages add up to (at most) the root total even
        when stages nest.
        """
        out: Dict[str, Dict[str, float]] = {}
        stack = list(self.root.children.values())
        while stack:
            node = stack.pop()
            entry = out.setdefault(node.name, {
                "calls": 0, "total_s": 0.0, "self_s": 0.0, "bytes": 0})
            entry["calls"] += node.calls
            entry["total_s"] += node.total_s
            entry["self_s"] += node.self_s
            entry["bytes"] += node.bytes
            stack.extend(node.children.values())
        return out

    def __repr__(self) -> str:
        return (f"Tracer(enabled={self.enabled}, "
                f"top_spans={sorted(self.root.children)})")


class _Frames(threading.local):
    """The calling thread's stack of open :class:`span` frames."""

    def __init__(self):
        self.frames: List[span] = []


_LOCAL = _Frames()


def _current_context() -> Optional[TraceContext]:
    """The innermost request context on the calling thread's stack."""
    for frame in reversed(_LOCAL.frames):
        if frame.ctx is not None:
            return frame.ctx
    return None


class span:
    """Nestable, reentrant timing context manager.

    Parameters
    ----------
    name:
        Span label; repeated entries at the same tree position aggregate.
    nbytes:
        Bytes processed inside the span, added on exit (more can be
        attached mid-span via :meth:`add_bytes`).
    tracer:
        Defaults to the process-global tracer.
    attrs:
        Free-form attributes of the per-request record; the aggregate
        tree ignores them.
    aggregate:
        ``False`` leaves the aggregate tree alone: the span is recorded
        only into the active request trace (per-request detail, such as
        the serving path's stage spans, that the aggregate's stage
        accounting must not absorb).

    Inside an active request (hub enabled), :attr:`ctx` is the span's
    own trace context, and :meth:`annotate` / :meth:`set_error` shape
    its record.  With the hub dormant and nothing to aggregate (disabled
    tracer or ``aggregate=False``) the span pushes no frame at all.
    """

    __slots__ = ("name", "nbytes", "tracer", "attrs", "aggregate", "ctx",
                 "parent_id", "status", "error", "_root", "_node", "_t0",
                 "_start_ts", "_ends_trace")

    def __init__(self, name: str, nbytes: int = 0,
                 tracer: Optional[Tracer] = None,
                 attrs: Optional[Dict[str, Any]] = None,
                 aggregate: bool = True):
        self.name = name
        self.nbytes = int(nbytes)
        self.tracer = tracer
        self.attrs = attrs
        self.aggregate = aggregate
        self.ctx: Optional[TraceContext] = None

    def add_bytes(self, nbytes: int) -> None:
        self.nbytes += int(nbytes)

    def annotate(self, **attrs: Any) -> None:
        """Add attributes to the request record (the ``attrs`` dict the
        span was built with is never mutated)."""
        self.attrs = {**self.attrs, **attrs} if self.attrs else attrs

    def set_error(self, error: str) -> None:
        self.status = "error"
        self.error = str(error)

    @property
    def trace_id(self) -> Optional[str]:
        return self.ctx.trace_id if self.ctx is not None else None

    # ------------------------------------------------------------------
    def __enter__(self) -> "span":
        tracer = self.tracer or _GLOBAL_TRACER
        if self.aggregate and tracer.enabled:
            frames = _LOCAL.frames
            # Tree parent: the innermost open frame of this tracer's tree.
            root = parent = tracer.root
            if frames:
                for frame in reversed(frames):
                    if frame._root is root:
                        parent = frame._node
                        break
            with tracer._lock:
                self._node = parent.child(self.name)
            self._root = root
            self.tracer = tracer
            if _HUB.enabled:
                self._open_request()
        elif _HUB.enabled and self._open_request():
            frames = _LOCAL.frames
            self._root = self._node = None
        else:
            return self
        frames.append(self)
        self._t0 = clock()
        return self

    def _open_request(self) -> bool:
        """Take this frame's request identity: its given context (the
        frames of ``HUB.trace`` / ``HUB.activate``), else a child of the
        innermost enclosing one.  False outside any request."""
        given = self.ctx is not None
        if not given:
            parent = _current_context()
            if parent is None:
                return False
            self.ctx = parent.child()
            self.parent_id = parent.span_id
        self._ends_trace = given  # a named given context is a request root
        self.status, self.error = "ok", None
        self._start_ts = time.time()
        return True

    def __exit__(self, exc_type, exc, tb) -> None:
        frames = _LOCAL.frames
        if self not in frames:
            return  # never pushed: nothing to record
        elapsed = clock() - self._t0
        # Pop back past this frame even if inner spans leaked.
        while frames.pop() is not self:
            pass
        node = self._node
        if node is not None:
            with self.tracer._lock:
                node.calls += 1
                node.total_s += elapsed
                node.bytes += self.nbytes
        if self.ctx is not None and self.name is not None:
            self._emit(elapsed, exc)

    def _emit(self, elapsed: float, exc: Optional[BaseException]) -> None:
        if exc is not None and self.status == "ok":
            self.set_error(f"{type(exc).__name__}: {exc}")
        ctx = self.ctx
        record = SpanRecord(
            name=self.name, trace_id=ctx.trace_id, span_id=ctx.span_id,
            parent_id=self.parent_id, service=_HUB.service,
            start_ts=self._start_ts, duration_s=elapsed,
            status=self.status, error=self.error,
            attrs=dict(self.attrs) if self.attrs else None)
        _HUB.emit(record)
        if self._ends_trace:
            _HUB._end_trace(record)


def _context_frame(ctx: TraceContext, name: Optional[str] = None,
                   parent_id: str = "",
                   attrs: Optional[Dict[str, Any]] = None) -> span:
    """A request-only frame around a *given* context.

    Named, it is a request-root span (``HUB.trace``) that also fires the
    hub's trace-end sinks on close; nameless, it only makes ``ctx`` the
    thread's current context (``HUB.activate``) and records nothing.
    Either pushes a frame only while the hub is enabled.
    """
    frame = span(name, attrs=attrs, aggregate=False)
    frame.ctx = ctx
    frame.parent_id = parent_id
    return frame


# ----------------------------------------------------------------------
# Process-global tracer
# ----------------------------------------------------------------------
_GLOBAL_TRACER = Tracer(enabled=True)


def get_tracer() -> Tracer:
    """The process-global tracer used by the built-in instrumentation."""
    return _GLOBAL_TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the global tracer; returns the previous one."""
    global _GLOBAL_TRACER
    previous = _GLOBAL_TRACER
    _GLOBAL_TRACER = tracer
    return previous
