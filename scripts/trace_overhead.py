"""Dormant request-tracing overhead probe for the tracing gates.

:func:`disabled_request_trace_overhead` times ``repro.telemetry``'s
``span`` — one frame stack, aggregate tree plus per-request output —
with the request-trace hub dormant, against :class:`AggregateOnlySpan`,
a span that only builds the aggregate tree (what ``span`` did before
request tracing existed).  The ratio is the cost the request side adds
to every span on the serving hot path while tracing is off.

Imported by ``scripts/check_trace.py`` (gate: best of 3 below 1.05).
"""

import threading
from typing import Optional

from repro.telemetry import Tracer, clock, get_hub, get_tracer, span

_LOCAL = threading.local()


def _stack(tracer: Tracer) -> list:
    stack = getattr(_LOCAL, "stack", None)
    if stack is None:
        stack = _LOCAL.stack = [tracer.root]
    return stack


class AggregateOnlySpan:
    """Reference span: aggregate tree only, no request-trace output.

    Keeps its own per-thread node stack seeded with the tracer's root,
    so it serves one tracer per thread — the probe's.
    """

    __slots__ = ("name", "nbytes", "tracer", "_node", "_t0")

    def __init__(self, name: str, nbytes: int = 0,
                 tracer: Optional[Tracer] = None):
        self.name = name
        self.nbytes = int(nbytes)
        self.tracer = tracer
        self._node = None

    def __enter__(self) -> "AggregateOnlySpan":
        tracer = self.tracer or get_tracer()
        if not tracer.enabled:
            self._node = None
            return self
        self.tracer = tracer
        stack = _stack(tracer)
        with tracer._lock:
            node = stack[-1].child(self.name)
        stack.append(node)
        self._node = node
        self._t0 = clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        node = self._node
        if node is None:
            return
        elapsed = clock() - self._t0
        tracer = self.tracer
        stack = _stack(tracer)
        while stack[-1] is not node and len(stack) > 1:
            stack.pop()
        if stack[-1] is node:
            stack.pop()
        with tracer._lock:
            node.calls += 1
            node.total_s += elapsed
            node.bytes += self.nbytes
        self._node = None


def disabled_request_trace_overhead(iters: int = 20000,
                                    repeats: int = 5) -> float:
    """Span cost with the hub dormant relative to the reference span.

    Times ``iters`` empty ``with span(...)`` bodies (aggregate tracer
    enabled — the realistic serving configuration) against the same
    loop over :class:`AggregateOnlySpan`, with the request-trace hub
    forced dormant.  The two loops' repeats are *interleaved* so both
    sample the same scheduler/frequency noise, and the min over repeats
    is taken per class — noise can only inflate a timing, never deflate
    it.
    """
    tracer = Tracer(enabled=True)
    hub = get_hub()

    def time_once(span_cls) -> float:
        t0 = clock()
        for _ in range(iters):
            with span_cls("overhead.probe", tracer=tracer):
                pass
        return clock() - t0

    was_enabled = hub.enabled
    hub.enabled = False
    try:
        time_once(span)  # warmup (bytecode/alloc caches)
        time_once(AggregateOnlySpan)
        unified = reference = float("inf")
        for _ in range(repeats):
            unified = min(unified, time_once(span))
            reference = min(reference, time_once(AggregateOnlySpan))
    finally:
        hub.enabled = was_enabled
    return unified / reference if reference > 0 else 1.0
