"""Request tracing substrate: traceparent, hub, sinks, span trees."""

import json
import sys
import threading
import time

import pytest

from repro.telemetry import (FlightRecorder, RequestLog, SpanRecord,
                             TraceContext, TraceJsonlWriter,
                             build_span_tree, get_hub, new_span_id,
                             read_trace_jsonl, span,
                             stitch_traces, trace_file_for)
from repro.telemetry.tracing import _LOCAL

HUB = get_hub()


@pytest.fixture
def hub():
    """The process singleton, reset to dormant around each test."""
    HUB.reset()
    yield HUB
    HUB.reset()


@pytest.fixture
def enabled_hub(hub):
    """Hub enabled with a list-capturing span sink and trace sink."""
    spans, roots = [], []
    hub.configure(service="test-svc", enabled=True)
    hub.add_span_sink(spans.append)
    hub.add_trace_sink(roots.append)
    return hub, spans, roots


class TestTraceContext:
    def test_mint_shape(self):
        ctx = TraceContext.mint()
        assert len(ctx.trace_id) == 32
        assert len(ctx.span_id) == 16
        int(ctx.trace_id, 16), int(ctx.span_id, 16)
        assert ctx.trace_id != TraceContext.mint().trace_id

    def test_traceparent_round_trip(self):
        ctx = TraceContext.mint()
        header = ctx.to_traceparent()
        assert header.startswith("00-")
        assert header.endswith("-01")
        assert TraceContext.parse(header) == ctx
        # The flags are validated but not acted on.
        assert TraceContext.parse(header[:-2] + "00") == ctx

    def test_parse_accepts_uppercase_and_whitespace(self):
        ctx = TraceContext.mint()
        header = "  " + ctx.to_traceparent().upper() + " "
        assert TraceContext.parse(header) == ctx

    @pytest.mark.parametrize("header", [
        None, "", "garbage",
        "00-abc-def-01",                                    # short ids
        "00-" + "g" * 32 + "-" + "1" * 16 + "-01",          # non-hex
        "ff-" + "1" * 32 + "-" + "2" * 16 + "-01",          # version ff
        "00-" + "0" * 32 + "-" + "2" * 16 + "-01",          # zero trace
        "00-" + "1" * 32 + "-" + "0" * 16 + "-01",          # zero span
        "00-" + "1" * 32 + "-" + "2" * 16,                  # no flags
    ])
    def test_parse_rejects_invalid(self, header):
        assert TraceContext.parse(header) is None

    def test_child_keeps_trace_id(self):
        ctx = TraceContext.mint()
        child = ctx.child()
        assert child.trace_id == ctx.trace_id
        assert child.span_id != ctx.span_id

    def test_new_span_id(self):
        assert len(new_span_id()) == 16
        assert new_span_id() != new_span_id()


class TestHubLifecycle:
    def test_dormant_trace_still_yields_context(self, hub):
        spans = []
        hub.add_span_sink(spans.append)
        with hub.trace("req") as trace:
            assert len(trace.trace_id) == 32
            assert hub.current() is None
        assert spans == []
        assert hub.current() is None

    def test_root_and_children_parentage(self, enabled_hub):
        hub, spans, roots = enabled_hub
        with hub.trace("server.request") as trace:
            assert hub.current() is trace.ctx
            with span("inner.a", aggregate=False):
                with span("inner.b", aggregate=False):
                    pass
        by_name = {s.name: s for s in spans}
        assert set(by_name) == {"server.request", "inner.a", "inner.b"}
        root = by_name["server.request"]
        assert root.parent_id == ""
        assert by_name["inner.a"].parent_id == root.span_id
        assert (by_name["inner.b"].parent_id
                == by_name["inner.a"].span_id)
        assert {s.trace_id for s in spans} == {trace.trace_id}
        assert {s.service for s in spans} == {"test-svc"}
        assert roots and roots[0] is root

    def test_repeated_traces_leave_no_stack_residue(self, enabled_hub):
        # Regression: the root trace must pop its frame off the
        # thread-local stack on exit — server threads are long-lived
        # (keep-alive, persistent router→worker connections) and would
        # otherwise leak one frame per request, with late spans
        # attaching to dead traces.  Holds when the request fails, too.
        hub, spans, roots = enabled_hub
        for _ in range(5):
            with hub.trace("req"):
                with span("stage.x", aggregate=False):
                    pass
        for _ in range(5):
            with pytest.raises(RuntimeError):
                with hub.trace("req") as trace:
                    with hub.activate(trace.ctx):
                        with span("stage.x"):
                            raise RuntimeError("boom")
        assert _LOCAL.frames == []
        assert hub.current() is None
        assert len(roots) == 10
        assert [r.status for r in roots] == ["ok"] * 5 + ["error"] * 5
        assert sum(s.name == "stage.x" for s in spans) == 10

    def test_parent_propagation_across_hops(self, enabled_hub):
        hub, spans, _ = enabled_hub
        upstream = TraceContext.mint()
        with hub.trace("server.request", parent=upstream) as trace:
            assert trace.trace_id == upstream.trace_id
        root = spans[-1]
        assert root.parent_id == upstream.span_id
        assert root.trace_id == upstream.trace_id

    def test_exception_marks_error(self, enabled_hub):
        hub, spans, roots = enabled_hub
        with pytest.raises(ValueError):
            with hub.trace("req"):
                with span("child", aggregate=False):
                    raise ValueError("boom")
        child, root = spans
        assert child.status == "error" and "boom" in child.error
        assert root.status == "error"
        assert roots[0].status == "error"

    def test_set_error_and_annotate(self, enabled_hub):
        hub, spans, _ = enabled_hub
        with hub.trace("req") as trace:
            trace.annotate(status=503, path="/predict")
            trace.set_error("shed")
        root = spans[-1]
        assert root.status == "error" and root.error == "shed"
        assert root.attrs == {"status": 503, "path": "/predict"}

    def test_record_span_pretimed_and_event(self, enabled_hub):
        hub, spans, _ = enabled_hub
        with hub.trace("req") as trace:
            hub.record_span("queue.wait", trace.ctx, start_ts=123.0,
                            duration_s=0.25, attrs={"batch": "b1"})
            hub.event("breaker_skip", {"worker": "w0"})
        by_name = {s.name: s for s in spans}
        queued = by_name["queue.wait"]
        assert queued.start_ts == 123.0
        assert queued.duration_s == 0.25
        assert queued.parent_id == trace.ctx.span_id
        assert by_name["breaker_skip"].duration_s == 0.0

    def test_activate_adopts_context_on_other_thread(self, enabled_hub):
        hub, spans, _ = enabled_hub
        seen = {}

        def worker(ctx):
            with hub.activate(ctx):
                seen["current"] = hub.current()
                with span("batch.dispatch", aggregate=False):
                    pass
            seen["after"] = hub.current()

        with hub.trace("req") as trace:
            thread = threading.Thread(target=worker, args=(trace.ctx,))
            thread.start()
            thread.join()
        assert seen["current"] is trace.ctx
        assert seen["after"] is None
        dispatch = next(s for s in spans if s.name == "batch.dispatch")
        assert dispatch.trace_id == trace.trace_id
        assert dispatch.parent_id == trace.ctx.span_id

    def test_concurrent_requests_stay_in_their_own_traces(self,
                                                         enabled_hub):
        # One frame stack per thread carries both outputs: under rapid
        # thread switching every record still parents inside its own
        # trace, and every thread's stack ends empty.
        hub, spans, roots = enabled_hub
        leftovers = []
        start = threading.Barrier(4)

        def worker():
            start.wait(timeout=10)
            for _ in range(100):
                with hub.trace("req"):
                    with span("outer"):
                        time.sleep(0)  # release the GIL mid-request
                        with span("inner", aggregate=False):
                            pass
            leftovers.append(list(_LOCAL.frames))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert leftovers == [[]] * 4
        assert len(roots) == 400 and len(spans) == 1200
        by_id = {s.span_id: s for s in spans}
        for record in spans:
            if record.name != "req":
                parent = by_id[record.parent_id]
                assert parent.trace_id == record.trace_id
                assert parent.name == {"outer": "req",
                                       "inner": "outer"}[record.name]

    def test_request_span_without_active_request(self, enabled_hub):
        hub, spans, _ = enabled_hub
        with span("orphan", aggregate=False) as handle:
            assert handle.ctx is None
        assert spans == []
        assert _LOCAL.frames == []

    def test_broken_sink_never_fails_the_request(self, enabled_hub):
        hub, spans, _ = enabled_hub

        def bad_sink(record):
            raise RuntimeError("sink broke")

        hub.add_span_sink(bad_sink)
        with hub.trace("req"):
            pass
        assert [s.name for s in spans] == ["req"]


class TestSpanTree:
    def events(self):
        mk = SpanRecord
        return [
            mk("root", "t1", "a" * 16, "", start_ts=1.0).to_event(),
            mk("child", "t1", "b" * 16, "a" * 16,
               start_ts=3.0).to_event(),
            mk("first", "t1", "c" * 16, "a" * 16,
               start_ts=2.0).to_event(),
        ]

    def test_nesting_and_ordering(self):
        roots = build_span_tree(self.events())
        assert len(roots) == 1
        children = [n["span"]["name"] for n in roots[0]["children"]]
        assert children == ["first", "child"]

    def test_orphan_becomes_root(self):
        events = self.events()[1:]  # drop the parent
        roots = build_span_tree(events)
        assert {r["span"]["name"] for r in roots} == {"first", "child"}


class TestJsonlWriter:
    def test_writes_every_record_and_flushes(self, tmp_path):
        path = trace_file_for(str(tmp_path), "svc/1")
        assert "trace-svc-1-" in path
        writer = TraceJsonlWriter(path)
        writer(SpanRecord("first", "t1", "a" * 16))
        writer(SpanRecord("second", "t2", "b" * 16))
        # Readable while the handle is still open (crash forensics).
        lines = [json.loads(line)
                 for line in open(path).read().splitlines()]
        assert [e["name"] for e in lines] == ["first", "second"]
        writer.close()
        assert writer.written == 2

    def test_stitch_two_process_files(self, tmp_path):
        """Router file + worker file → one complete stitched tree."""
        trace = TraceContext.mint()
        attempt = trace.child()
        router = TraceJsonlWriter(str(tmp_path / "router.jsonl"))
        router(SpanRecord("router.request", trace.trace_id,
                          trace.span_id, "", service="router",
                          start_ts=1.0, duration_s=1.0))
        router(SpanRecord("router.attempt", trace.trace_id,
                          attempt.span_id, trace.span_id,
                          service="router", start_ts=1.1,
                          duration_s=0.8))
        worker = TraceJsonlWriter(str(tmp_path / "worker.jsonl"))
        server_span = attempt.child()
        worker(SpanRecord("server.request", trace.trace_id,
                          server_span.span_id, attempt.span_id,
                          service="worker-1", start_ts=1.2,
                          duration_s=0.5))
        router.close()
        worker.close()

        events = read_trace_jsonl(str(tmp_path / "router.jsonl"),
                                  str(tmp_path / "worker.jsonl"))
        stitched = stitch_traces(events)
        assert set(stitched) == {trace.trace_id}
        entry = stitched[trace.trace_id]
        assert entry["complete"]
        assert entry["span_count"] == 3
        assert entry["services"] == ["router", "worker-1"]
        assert entry["duration_s"] == 1.0
        tree = entry["roots"][0]
        assert tree["span"]["name"] == "router.request"
        assert (tree["children"][0]["children"][0]["span"]["name"]
                == "server.request")


class TestFlightRecorder:
    def feed(self, recorder, name, duration_s, status="ok"):
        ctx = TraceContext.mint()
        record = SpanRecord(name, ctx.trace_id, ctx.span_id, "",
                            duration_s=duration_s, status=status)
        recorder.on_span(record)
        recorder.on_trace_end(record)
        return ctx.trace_id

    def test_retains_slowest_n_with_eviction(self):
        recorder = FlightRecorder(slowest=2, errors=8)
        slow = self.feed(recorder, "req", 3.0)
        slower = self.feed(recorder, "req", 4.0)
        fast = self.feed(recorder, "req", 0.1)
        mid = self.feed(recorder, "req", 3.5)  # evicts `slow`
        retained = set(recorder.retained_ids())
        assert retained == {slower, mid}
        assert recorder.lookup(fast) is None
        found = recorder.lookup(slower)
        assert found["retained_for"] == ["slow"]
        assert found["tree"][0]["span"]["name"] == "req"

    def feed_segment(self, recorder, trace_id, duration_s):
        record = SpanRecord("req", trace_id, new_span_id(), "",
                            duration_s=duration_s)
        recorder.on_span(record)
        recorder.on_trace_end(record)

    def test_reended_root_rekeys_slow_heap(self):
        # Regression: when the router root of a co-located trace closes
        # after the embedded worker's root with a longer duration, the
        # slow-heap entry must be re-keyed to the true root duration —
        # otherwise the trace is evicted as if it were still short.
        recorder = FlightRecorder(slowest=2, errors=8)
        merged = "ab" * 16
        self.feed_segment(recorder, merged, 0.01)  # worker segment
        other = self.feed(recorder, "req", 0.02)
        self.feed_segment(recorder, merged, 0.10)  # router root re-ends
        third = self.feed(recorder, "req", 0.05)   # must evict `other`
        assert set(recorder.retained_ids()) == {merged, third}
        assert recorder.lookup(other) is None

    def test_errors_always_retained(self):
        recorder = FlightRecorder(slowest=1, errors=4)
        self.feed(recorder, "req", 9.0)
        err = self.feed(recorder, "req", 0.001, status="error")
        found = recorder.lookup(err)
        assert found is not None
        assert found["retained_for"] == ["error"]

    def test_error_ring_is_bounded(self):
        recorder = FlightRecorder(slowest=1, errors=2)
        self.feed(recorder, "req", 9.0)  # pins the slowest-1 slot
        ids = [self.feed(recorder, "req", 0.001, status="error")
               for _ in range(4)]
        assert recorder.lookup(ids[0]) is None
        assert recorder.lookup(ids[-1]) is not None

    def test_hub_integration_via_enable(self, hub, tmp_path):
        from repro.telemetry import (disable_request_tracing,
                                     enable_request_tracing,
                                     get_flight_recorder)
        enable_request_tracing(service="t", trace_dir=str(tmp_path))
        try:
            with hub.trace("req") as trace:
                with span("inner", aggregate=False):
                    pass
            # The recorder and the JSONL export both see the trace.
            found = get_flight_recorder().lookup(trace.trace_id)
            assert found is not None
            assert {s["name"] for s in found["spans"]} \
                == {"req", "inner"}
            exported = read_trace_jsonl(
                *map(str, tmp_path.glob("trace-*.jsonl")))
            assert {e["name"] for e in exported} == {"req", "inner"}
        finally:
            disable_request_tracing()


class TestRequestLog:
    def test_ring_filters_and_count(self):
        log = RequestLog(maxlen=4)
        for i in range(6):
            log.append(path="/predict", status=200 if i % 2 else 500,
                       trace_id=f"t{i}", latency_ms=float(i))
        assert log.appended == 6
        assert len(log) == 4
        newest = log.snapshot(limit=1)[0]
        assert newest["trace_id"] == "t5"
        errors = log.snapshot(errors_only=True)
        assert {r["trace_id"] for r in errors} == {"t2", "t4"}
        assert log.snapshot(trace_id="t3")[0]["status"] == 200
