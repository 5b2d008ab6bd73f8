"""Tracing spans: tree structure, self time, reentrancy, threads."""

import threading
import time

import pytest

from repro.telemetry import SpanNode, Tracer, set_tracer, span
from repro.telemetry.tracing import _LOCAL


def sleep_span(tracer, name, seconds=0.0):
    with span(name, tracer=tracer):
        if seconds:
            time.sleep(seconds)


class TestSpanTree:
    def test_nesting_builds_tree(self):
        tracer = Tracer()
        with span("outer", tracer=tracer):
            with span("inner", tracer=tracer):
                pass
            with span("inner", tracer=tracer):
                pass
        outer = tracer.root.children["outer"]
        assert outer.calls == 1
        inner = outer.children["inner"]
        assert inner.calls == 2
        assert inner.path == "outer/inner"

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        with span("outer", tracer=tracer):
            time.sleep(0.01)
            with span("inner", tracer=tracer):
                time.sleep(0.02)
        outer = tracer.root.children["outer"]
        inner = outer.children["inner"]
        assert outer.total_s >= inner.total_s
        assert outer.self_s == pytest.approx(
            outer.total_s - inner.total_s)
        assert outer.self_s >= 0.0

    def test_reentrant_same_name_nests(self):
        tracer = Tracer()
        with span("stage.update", tracer=tracer):
            with span("stage.update", tracer=tracer):
                pass
        top = tracer.root.children["stage.update"]
        assert top.calls == 1
        assert top.children["stage.update"].calls == 1

    def test_bytes_accounting(self):
        tracer = Tracer()
        with span("io", nbytes=100, tracer=tracer) as s:
            s.add_bytes(50)
        assert tracer.root.children["io"].bytes == 150

    def test_exception_still_closes_span(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with span("boom", tracer=tracer):
                raise RuntimeError("x")
        node = tracer.root.children["boom"]
        assert node.calls == 1
        # The stack popped back to empty: the next span is top-level.
        assert _LOCAL.frames == []
        sleep_span(tracer, "after")
        assert set(tracer.root.children) == {"boom", "after"}

    def test_disabled_tracer_is_noop(self):
        tracer = Tracer(enabled=False)
        with span("nothing", tracer=tracer):
            pass
        assert tracer.root.children == {}

    def test_reset_drops_tree(self):
        tracer = Tracer()
        sleep_span(tracer, "a")
        tracer.reset()
        assert tracer.root.children == {}

    def test_spans_opened_after_reset_land_under_new_root(self):
        tracer = Tracer()
        with span("outer", tracer=tracer):
            tracer.reset()
            sleep_span(tracer, "inner")
        assert set(tracer.root.children) == {"inner"}

    def test_interleaved_tracers_build_separate_trees(self):
        # A private tracer's spans around and inside global-tracer spans
        # (how the benchmark's wrappers time the program) nest only
        # under their own tracer's frames.
        private, global_tracer = Tracer(), Tracer()
        previous = set_tracer(global_tracer)
        try:
            with span("outer", tracer=private):
                with span("global"):
                    with span("inner", tracer=private):
                        pass
        finally:
            set_tracer(previous)
        assert set(private.root.children) == {"outer"}
        assert set(private.root.children["outer"].children) == {"inner"}
        assert set(global_tracer.root.children) == {"global"}
        assert global_tracer.root.children["global"].children == {}
        assert set(private.aggregate()) == {"outer", "inner"}


class TestAggregation:
    def test_aggregate_collapses_by_name(self):
        tracer = Tracer()
        with span("stage.update", tracer=tracer):
            sleep_span(tracer, "stage.similarity")
        sleep_span(tracer, "stage.similarity")
        agg = tracer.aggregate()
        assert agg["stage.similarity"]["calls"] == 2
        assert agg["stage.update"]["calls"] == 1
        # Self times of disjoint positions sum to at most the wall total.
        total = sum(entry["self_s"] for entry in agg.values())
        root_total = sum(c.total_s for c in tracer.root.children.values())
        assert total <= root_total + 1e-9


class TestThreading:
    def test_worker_threads_get_own_stacks(self):
        tracer = Tracer()
        errors = []

        def worker(tag):
            try:
                for _ in range(50):
                    with span(f"worker.{tag}", tracer=tracer):
                        with span("inner", tracer=tracer):
                            pass
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i % 2,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # Both worker span names sit directly under the shared root, each
        # with its own nested child — no cross-thread interleaving.
        assert set(tracer.root.children) == {"worker.0", "worker.1"}
        for name, node in tracer.root.children.items():
            assert node.calls == 100
            assert node.children["inner"].calls == 100

    def test_span_node_repr(self):
        root = SpanNode("<root>")
        node = root.child("x")
        node.calls = 1
        node.total_s = 0.5
        assert "x" in repr(node)
        assert "<root>" in repr(root)
