"""Dynamic micro-batching: coalesce concurrent requests into one GEMM.

HD inference is dominated by two matrix products (projection, class
similarity); a single-sample call wastes almost all of the BLAS / bit-op
throughput.  :class:`MicroBatcher` closes that gap for a serving
process with a **dispatch-when-idle** rule: a request that finds no
batch in flight is dispatched at once, so a lone request never waits
for co-travellers that are not coming.  Requests arriving while a batch
runs queue up under a condition variable and leave together as the next
batch — when the running batch finishes, when ``max_batch_size`` are
waiting, or when the oldest has waited ``max_latency_ms``, whichever
comes first.  Load itself sets the batch size: the longer a batch takes,
the more requests the next one carries.  numpy's GEMM and bitwise
kernels release the GIL, so a small worker pool overlaps batches.

Degradation is explicit rather than emergent:

* an optional :class:`repro.reliability.LoadShedder` rejects new
  requests with :class:`~repro.reliability.OverloadShedError` once queue
  depth crosses its high watermark (hysteresis; HTTP 503 upstream);
* each request carries a deadline — expired requests are *skipped* by
  the workers (their submitter gets
  :class:`~repro.reliability.DeadlineExceededError`, HTTP 504) instead
  of wasting batch slots on answers nobody is waiting for.

``shutdown()`` drains the queue gracefully: no new submits are
admitted, queued requests are answered, then the workers exit.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

import numpy as np

from ..reliability.degrade import (DeadlineExceededError, LoadShedder,
                                   OverloadShedError)
from ..telemetry import clock, get_registry, new_span_id, span
from ..telemetry.reqtrace import HUB as _HUB
from ..telemetry.reqtrace import TraceContext

__all__ = ["MicroBatcher"]


class _Request:
    """One pending sample: features in, ``(label, meta)`` | error out.

    ``trace_ctx`` (the submitter's request-trace context) rides along so
    the dispatching worker thread can record the queue-wait and batch
    spans into the *request's* trace; ``request_id`` (its trace id) is
    attached to deadline/shed errors so a coalesced batch's failure
    names the affected request.
    """

    __slots__ = ("features", "event", "result", "error", "deadline",
                 "enqueued_at", "enqueued_ts", "trace_ctx", "request_id")

    def __init__(self, features: np.ndarray, deadline: Optional[float],
                 trace_ctx: Optional[TraceContext] = None):
        self.features = features
        self.event = threading.Event()
        self.result: Optional[Tuple[int, Any]] = None
        self.error: Optional[BaseException] = None
        self.deadline = deadline
        self.enqueued_at = clock()
        self.enqueued_ts = time.time()
        self.trace_ctx = trace_ctx
        self.request_id = (trace_ctx.trace_id if trace_ctx is not None
                           else None)

    def finish(self, result: Optional[Tuple[int, Any]],
               error: Optional[BaseException] = None) -> None:
        self.result = result
        self.error = error
        self.event.set()


class MicroBatcher:
    """Coalesce concurrent predict calls into engine-sized batches.

    A worker dispatches the queue at once whenever no batch is in
    flight; otherwise the queue waits for a batch to finish, for
    ``max_batch_size`` requests, or for ``max_latency_ms``, whichever
    comes first (the in-flight count lives under the queue's condition
    variable, and a finishing batch wakes a waiting worker).

    Parameters
    ----------
    predict_fn:
        ``(n, F) -> (labels, meta)`` batch classifier: ``(n,)`` labels
        plus whatever names the engine snapshot that computed them
        (hot reload swaps engines *between* batches, not within one).
        Every row's result is ``(label, meta)``.  Any other return
        fails that batch's requests with :class:`TypeError`.
    max_batch_size:
        Largest batch a worker takes in one bite.
    max_latency_ms:
        Longest the *oldest* queued request waits, while a batch is in
        flight, before a free worker dispatches it alongside that batch.
        An idle batcher never waits: the first request dispatches at
        once.
    workers:
        Worker-thread count; >1 overlaps batches (BLAS releases the GIL).
    shedder:
        Optional admission controller; ``None`` admits everything.
    default_timeout_s:
        Per-request deadline used when :meth:`submit` gets no explicit
        ``timeout_s``; ``None`` means wait forever.  Must be > 0.
    model_label:
        Name under which this batcher's shed/deadline rejections are
        counted (``serve.batcher.{shed,deadline}.model.<label>``) and
        attached to degradation errors; defaults to ``"default"``.
    """

    def __init__(self,
                 predict_fn: Callable[[np.ndarray], Tuple[np.ndarray, Any]],
                 max_batch_size: int = 32, max_latency_ms: float = 5.0,
                 workers: int = 2, shedder: Optional[LoadShedder] = None,
                 default_timeout_s: Optional[float] = None,
                 model_label: Optional[str] = None):
        if max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if max_latency_ms < 0:
            raise ValueError("max_latency_ms must be >= 0")
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if default_timeout_s is not None and not default_timeout_s > 0:
            # 0, a negative value or NaN would expire every request.
            raise ValueError(f"default_timeout_s must be > 0 or None, "
                             f"got {default_timeout_s}")
        self.predict_fn = predict_fn
        self.max_batch_size = int(max_batch_size)
        self.max_latency_s = float(max_latency_ms) / 1000.0
        self.shedder = shedder
        self.default_timeout_s = default_timeout_s
        self.model_label = model_label or "default"
        safe_label = re.sub(r"[^0-9A-Za-z_]", "_", self.model_label)
        self._shed_metric = f"serve.batcher.shed.model.{safe_label}"
        self._deadline_metric = f"serve.batcher.deadline.model.{safe_label}"
        self._queue: Deque[_Request] = deque()
        self._cv = threading.Condition()
        self._inflight = 0  # batches taken but not finished (under _cv)
        self._stopping = False
        self._stopped = threading.Event()
        self.stats: Dict[str, int] = {
            "submitted": 0, "completed": 0, "batches": 0,
            "shed": 0, "expired": 0, "errors": 0,
        }
        self._workers = [
            threading.Thread(target=self._worker_loop,
                             name=f"microbatcher-{i}", daemon=True)
            for i in range(int(workers))
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------------
    @property
    def depth(self) -> int:
        """Current queue depth (approximate outside the lock)."""
        return len(self._queue)

    def _shed_error(self, message: str,
                    request_id: Optional[str] = None) -> OverloadShedError:
        get_registry().inc(self._shed_metric)
        return OverloadShedError(message, request_id=request_id,
                                 model=self.model_label)

    def _deadline_error(self, message: str,
                        request_id: Optional[str] = None,
                        ) -> DeadlineExceededError:
        get_registry().inc(self._deadline_metric)
        return DeadlineExceededError(message, request_id=request_id,
                                     model=self.model_label)

    def _expire(self, request: _Request, message: str) -> None:
        """Answer a queued request whose deadline passed (caller holds
        ``_cv``).  One its submitter gave up on (deadline ``-inf``) was
        counted and answered then, so it is dropped silently."""
        if request.deadline != float("-inf"):
            self.stats["expired"] += 1
            request.finish(None, self._deadline_error(
                message, request_id=request.request_id))

    def submit(self, rows: np.ndarray,
               timeout_s: Optional[float] = None,
               trace_ctx: Optional[TraceContext] = None
               ) -> List[Tuple[int, Any]]:
        """Blocking predict for an ``(n, F)`` block or one ``(F,)`` row.

        All rows enter the queue under one lock acquisition, so the
        workers can coalesce them into full batches (and with rows of
        other concurrent submitters) at once.  Returns one
        ``(label, meta)`` pair per row, ``meta`` being what
        ``predict_fn`` returned beside the labels of that row's batch.

        Raises :class:`OverloadShedError` when admission control rejects
        the block, :class:`DeadlineExceededError` when the deadline
        passes before a worker answers, and re-raises any engine error;
        the first per-row error is raised after all rows settled.
        ``trace_ctx`` (defaulting to the thread's active request trace)
        lets the dispatching worker record queue/batch spans into the
        submitter's trace; all rows share it (one HTTP request → one
        trace, however the rows get batched).
        """
        if timeout_s is None:
            timeout_s = self.default_timeout_s
        if trace_ctx is None:
            trace_ctx = _HUB.current()
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        deadline = (clock() + timeout_s) if timeout_s is not None else None
        requests = [_Request(row.reshape(-1), deadline, trace_ctx)
                    for row in rows]
        with self._cv:
            if self._stopping:
                raise RuntimeError("MicroBatcher is shut down")
            if (self.shedder is not None
                    and not self.shedder.admit(len(self._queue))):
                self.stats["shed"] += len(requests)
                raise self._shed_error(
                    f"queue depth {len(self._queue)} over high watermark "
                    f"{self.shedder.high_watermark}",
                    request_id=requests[0].request_id)
            self.stats["submitted"] += len(requests)
            self._queue.extend(requests)
            self._cv.notify_all()

        first_error: Optional[BaseException] = None
        for request in requests:
            remaining = ((deadline - clock()) if deadline is not None
                         else None)
            if request.event.wait(remaining):
                error = request.error
            else:
                with self._cv:
                    # Unless a worker answered since the wait ended, the
                    # expiry is counted here, once; marked dead, the
                    # request is then dropped by the worker silently.
                    answered = request.event.is_set()
                    if not answered:
                        request.deadline = float("-inf")
                        self.stats["expired"] += 1
                error = request.error if answered else self._deadline_error(
                    f"request expired after {timeout_s:.3f}s",
                    request_id=request.request_id)
            first_error = first_error or error
        if first_error is not None:
            raise first_error
        return [request.result for request in requests]

    # ------------------------------------------------------------------
    def _take_batch(self) -> Optional[List[_Request]]:
        """Block until a dispatchable batch exists (or shutdown drains).

        Dispatch condition: no batch in flight, or ``max_batch_size``
        waiting, or the oldest request has aged ``max_latency_s``, or
        the batcher is draining.  The caller owns the returned batch's
        in-flight count and must release it (see :meth:`_worker_loop`).
        """
        with self._cv:
            while True:
                now = clock()
                # Drop requests that already expired while queued.
                while self._queue and self._queue[0].deadline is not None \
                        and self._queue[0].deadline <= now:
                    self._expire(self._queue.popleft(),
                                 "request expired in queue")
                if self._queue:
                    oldest = self._queue[0].enqueued_at
                    if (self._inflight == 0
                            or len(self._queue) >= self.max_batch_size
                            or now - oldest >= self.max_latency_s
                            or self._stopping):
                        batch = []
                        for _ in range(min(len(self._queue),
                                           self.max_batch_size)):
                            request = self._queue.popleft()
                            if (request.deadline is None
                                    or request.deadline > now):
                                batch.append(request)
                            else:
                                self._expire(
                                    request,
                                    "request expired before dispatch")
                        if batch:
                            self._inflight += 1
                            return batch
                        continue
                    self._cv.wait(self.max_latency_s - (now - oldest))
                    continue
                if self._stopping:
                    return None
                self._cv.wait()

    def _record_follower_dispatch(self, traced: List[_Request],
                                  dispatch_ts: float, duration_s: float,
                                  batch_attrs: Optional[dict],
                                  error_text: Optional[str]) -> None:
        """Mirror the lead's dispatch span into co-batched traces.

        Only the lead member's context is active during the dispatch, so
        the other traced members get a pre-timed ``serve.batcher.dispatch``
        span naming the lead — their trace still shows when and with whom
        the request was coalesced.
        """
        if len(traced) < 2:
            return
        hub = _HUB
        attrs = dict(batch_attrs or {})
        attrs["lead"] = traced[0].request_id
        status = "error" if error_text else "ok"
        for request in traced[1:]:
            hub.record_span("serve.batcher.dispatch", request.trace_ctx,
                            start_ts=dispatch_ts, duration_s=duration_s,
                            attrs=attrs, status=status, error=error_text)

    def _worker_loop(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                return
            try:
                self._run_batch(batch)
            finally:
                with self._cv:
                    self._inflight -= 1
                    # An idle batcher dispatches at once: wake a worker
                    # for whatever queued while this batch ran.
                    self._cv.notify()

    def _run_batch(self, live: List[_Request]) -> None:
        registry = get_registry()
        wait_ms = 1000.0 * (clock() - live[0].enqueued_at)
        registry.observe("serve.batcher.batch_size", float(len(live)))
        registry.observe("serve.batcher.queue_wait_ms", wait_ms)
        # Request tracing: every traced member gets a queue-wait
        # span; the *lead* member's context is activated around the
        # dispatch so the engine/stage spans land in its trace, and
        # the other members get pre-timed copies of the dispatch
        # span linked to the shared batch id.
        hub = _HUB
        traced: List[_Request] = []
        if hub.enabled:
            # One span set per *trace* — a multi-row submit puts
            # several requests with the same context in one batch.
            seen_traces = set()
            for request in live:
                ctx = request.trace_ctx
                if ctx is not None and ctx.trace_id not in seen_traces:
                    seen_traces.add(ctx.trace_id)
                    traced.append(request)
        batch_attrs = None
        dispatch_ts = 0.0
        if traced:
            batch_id = new_span_id()
            now_perf, dispatch_ts = clock(), time.time()
            batch_attrs = {"batch_id": batch_id,
                           "batch_size": len(live),
                           "members": [r.request_id for r in traced]}
            for request in traced:
                hub.record_span(
                    "serve.batcher.queue", request.trace_ctx,
                    start_ts=request.enqueued_ts,
                    duration_s=now_perf - request.enqueued_at,
                    attrs={"batch_id": batch_id})
        t0 = clock()
        error_text: Optional[str] = None
        try:
            # Rows of different widths cannot stack: that batch fails its
            # own requests below, and the worker lives on.
            stacked = np.stack([r.features for r in live])
            with hub.activate(traced[0].trace_ctx if traced else None), \
                    span("serve.batcher.dispatch",
                         nbytes=int(stacked.nbytes), attrs=batch_attrs):
                result = self.predict_fn(stacked)
            # Never unpack anything else: a 2-row label array would
            # unpack as a pair.
            if not (isinstance(result, tuple) and len(result) == 2):
                raise TypeError(
                    f"predict_fn must return (labels, meta), got "
                    f"{type(result).__name__}")
            labels, meta = result
        except BaseException as exc:  # surfaced per request
            error_text = f"{type(exc).__name__}: {exc}"
            self._record_follower_dispatch(traced, dispatch_ts,
                                           clock() - t0, batch_attrs,
                                           error_text)
            with self._cv:
                self.stats["errors"] += len(live)
            for request in live:
                request.finish(None, exc)
            return
        self._record_follower_dispatch(traced, dispatch_ts,
                                       clock() - t0, batch_attrs,
                                       error_text)
        with self._cv:
            self.stats["batches"] += 1
            self.stats["completed"] += len(live)
        registry.inc("serve.batcher.completed", len(live))
        for request, label in zip(live, labels):
            request.finish((int(label), meta))

    # ------------------------------------------------------------------
    def shutdown(self) -> None:
        """Drain the queue, answer every pending request, stop workers
        (waiting up to 10 s for each)."""
        with self._cv:
            if self._stopping:
                return
            self._stopping = True
            self._cv.notify_all()
        for thread in self._workers:
            thread.join(10.0)
        self._stopped.set()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:
        return (f"MicroBatcher(batch={self.max_batch_size}, "
                f"latency_ms={self.max_latency_s * 1000:.1f}, "
                f"workers={len(self._workers)}, depth={self.depth}, "
                f"stats={self.stats})")
