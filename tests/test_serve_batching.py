"""Micro-batcher: coalescing, deadlines, shedding, graceful shutdown."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.reliability import (DeadlineExceededError, LoadShedder,
                               OverloadShedError)
from repro.serve import MicroBatcher
from repro.telemetry import use_registry


def argmax_fn(batch):
    """Deterministic stand-in classifier: argmax of each row."""
    return np.asarray(batch).argmax(axis=1), None


def labels_of(results):
    return [label for label, _ in results]


class RecordingFn:
    """predict_fn that records every dispatched batch size."""

    def __init__(self, delay_s=0.0):
        self.batch_sizes = []
        self.delay_s = delay_s
        self._lock = threading.Lock()

    def __call__(self, batch):
        with self._lock:
            self.batch_sizes.append(len(batch))
        if self.delay_s:
            time.sleep(self.delay_s)
        return argmax_fn(batch)


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(ValueError, match="max_batch_size"):
            MicroBatcher(argmax_fn, max_batch_size=0)
        with pytest.raises(ValueError, match="max_latency_ms"):
            MicroBatcher(argmax_fn, max_latency_ms=-1)
        with pytest.raises(ValueError, match="workers"):
            MicroBatcher(argmax_fn, workers=0)

    @pytest.mark.parametrize("timeout_s", [0, -1.0, float("nan")])
    def test_nonpositive_default_timeout_rejected(self, timeout_s):
        # It would expire every request that names no deadline.
        with pytest.raises(ValueError, match="default_timeout_s"):
            MicroBatcher(argmax_fn, default_timeout_s=timeout_s)


class TestCoalescing:
    def test_submit_coalesces_block_into_batches(self):
        fn = RecordingFn()
        rng = np.random.default_rng(0)
        features = rng.standard_normal((64, 8))
        with MicroBatcher(fn, max_batch_size=16, max_latency_ms=50.0,
                          workers=1) as batcher:
            labels = labels_of(batcher.submit(features))
        np.testing.assert_array_equal(labels, argmax_fn(features)[0])
        assert max(fn.batch_sizes) > 1, "no coalescing happened"
        assert all(size <= 16 for size in fn.batch_sizes)
        assert batcher.stats["completed"] == 64
        assert batcher.stats["batches"] == len(fn.batch_sizes)

    def test_partial_batch_flushes_on_latency(self):
        """A lone request must not wait for a full batch forever."""
        fn = RecordingFn()
        with MicroBatcher(fn, max_batch_size=1024, max_latency_ms=5.0,
                          workers=1) as batcher:
            t0 = time.monotonic()
            [(label, _)] = batcher.submit(np.array([0.0, 3.0, 1.0]))
            elapsed = time.monotonic() - t0
        assert label == 1
        assert elapsed < 2.0, "latency flush did not fire"

    def test_lone_submit_dispatches_at_once(self):
        """An idle batcher does not wait out ``max_latency_ms``."""
        with MicroBatcher(argmax_fn, max_latency_ms=500.0,
                          workers=1) as batcher:
            t0 = time.monotonic()
            [(label, _)] = batcher.submit(np.array([0.0, 3.0, 1.0]))
            elapsed = time.monotonic() - t0
        assert label == 1
        assert elapsed < 0.1, f"idle dispatch took {elapsed:.3f}s"

    def test_requests_queued_in_flight_leave_as_one_batch(self):
        fn = RecordingFn(delay_s=0.05)
        rng = np.random.default_rng(4)
        features = rng.standard_normal((5, 6))
        with MicroBatcher(fn, max_batch_size=16, max_latency_ms=1000.0,
                          workers=2) as batcher:
            threads = [threading.Thread(target=batcher.submit, args=(row,))
                       for row in features]
            # The lead finds the batcher idle and leaves alone (well
            # inside the 1 s window); the rest queue during its 50 ms
            # in flight.
            threads[0].start()
            deadline = time.monotonic() + 0.5
            while not fn.batch_sizes and time.monotonic() < deadline:
                time.sleep(0.001)
            for thread in threads[1:]:
                thread.start()
            for thread in threads:
                thread.join(5.0)
        assert not any(thread.is_alive() for thread in threads)
        assert fn.batch_sizes[0] == 1
        assert max(fn.batch_sizes[1:]) > 1, fn.batch_sizes
        assert sum(fn.batch_sizes) == len(features)

    def test_idle_again_after_contention(self):
        """After a storm of concurrent submits on more workers than
        cores, a lone request still dispatches at once: a lost update of
        the in-flight count would leave it waiting out the 500 ms cap."""
        fn = RecordingFn(delay_s=0.001)
        rng = np.random.default_rng(5)
        features = rng.standard_normal((64, 6))
        results = [None] * len(features)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with MicroBatcher(fn, max_batch_size=4, max_latency_ms=500.0,
                              workers=4) as batcher:
                def submit(i):
                    [(results[i], _)] = batcher.submit(features[i])
                threads = [threading.Thread(target=submit, args=(i,))
                           for i in range(len(features))]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(10.0)
                assert not any(thread.is_alive() for thread in threads)
                t0 = time.monotonic()
                batcher.submit(features[0])
                elapsed = time.monotonic() - t0
        finally:
            sys.setswitchinterval(interval)
        assert results == [int(v) for v in argmax_fn(features)[0]]
        assert elapsed < 0.1, f"idle dispatch took {elapsed:.3f}s"

    def test_concurrent_submits_are_correct(self):
        fn = RecordingFn(delay_s=0.002)
        rng = np.random.default_rng(1)
        features = rng.standard_normal((40, 6))
        results = {}
        with MicroBatcher(fn, max_batch_size=8, max_latency_ms=5.0,
                          workers=2) as batcher:
            def worker(i):
                [(results[i], _)] = batcher.submit(features[i])
            threads = [threading.Thread(target=worker, args=(i,))
                       for i in range(len(features))]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        expected, _ = argmax_fn(features)
        for i in range(len(features)):
            assert results[i] == expected[i]


class TestDegradation:
    def test_deadline_exceeded(self):
        gate = threading.Event()

        def stalled(batch):
            gate.wait(5.0)
            return argmax_fn(batch)

        batcher = MicroBatcher(stalled, max_batch_size=4,
                               max_latency_ms=1.0, workers=1)
        try:
            # First request occupies the single worker at the gate...
            filler = threading.Thread(
                target=lambda: batcher.submit(np.ones(3), timeout_s=10.0))
            filler.start()
            time.sleep(0.05)
            # ...so this one expires in the queue.
            with pytest.raises(DeadlineExceededError):
                batcher.submit(np.ones(3), timeout_s=0.05)
            assert batcher.stats["expired"] >= 1
        finally:
            gate.set()
            filler.join()
            batcher.shutdown()

    def test_one_expired_request_is_counted_once(self):
        """The submitter that gives up on a queued request answers and
        counts it; the worker that reaches it later drops it silently."""
        gate = threading.Event()

        def stalled(batch):
            gate.wait(5.0)
            return argmax_fn(batch)

        with use_registry() as registry:
            batcher = MicroBatcher(stalled, max_batch_size=4,
                                   max_latency_ms=1.0, workers=1)
            filler = threading.Thread(
                target=lambda: batcher.submit(np.ones(3), timeout_s=10.0))
            try:
                filler.start()
                time.sleep(0.05)
                with pytest.raises(DeadlineExceededError):
                    batcher.submit(np.ones(3), timeout_s=0.05)
            finally:
                gate.set()
                filler.join()
                batcher.shutdown()
        assert batcher.stats["expired"] == 1
        assert registry.counter(
            "serve.batcher.deadline.model.default").value == 1

    def test_overload_sheds(self):
        gate = threading.Event()

        def stalled(batch):
            gate.wait(5.0)
            return argmax_fn(batch)

        shed = []
        batcher = MicroBatcher(stalled, max_batch_size=4,
                               max_latency_ms=1.0, workers=1,
                               shedder=LoadShedder(1),
                               default_timeout_s=10.0)
        try:
            def submit_one(i):
                try:
                    batcher.submit(np.ones(3))
                except OverloadShedError:
                    shed.append(i)
            threads = [threading.Thread(target=submit_one, args=(i,))
                       for i in range(6)]
            for t in threads:
                t.start()
                time.sleep(0.02)
            gate.set()
            for t in threads:
                t.join()
        finally:
            gate.set()
            batcher.shutdown()
        assert shed, "watermark-1 queue never shed under a stalled worker"
        assert batcher.stats["shed"] == len(shed)

    def test_mixed_width_batch_fails_its_members_only(self):
        """Rows of different widths coalesced into one batch cannot be
        stacked: their submitters get the error, and the single worker
        survives to answer the next request."""
        gate = threading.Event()

        def gated(batch):
            gate.wait(5.0)
            return argmax_fn(batch)

        def wait_for(predicate):
            deadline = time.monotonic() + 5.0
            while not predicate():
                assert time.monotonic() < deadline, "condition never held"
                time.sleep(0.001)

        errors = {}

        def submit(width):
            try:
                batcher.submit(np.ones(width))
            except Exception as exc:
                errors[width] = exc

        with MicroBatcher(gated, max_batch_size=8, max_latency_ms=1000.0,
                          workers=1, default_timeout_s=3.0) as batcher:
            # The lead occupies the worker at the gate; the 4- and 3-wide
            # rows queue behind it and leave as one batch.
            lead = threading.Thread(target=batcher.submit,
                                    args=(np.ones(4),))
            lead.start()
            wait_for(lambda: batcher.stats["submitted"] == 1
                     and batcher.depth == 0)
            threads = [threading.Thread(target=submit, args=(width,))
                       for width in (4, 3)]
            for thread in threads:
                thread.start()
            wait_for(lambda: batcher.depth == 2)
            gate.set()
            for thread in [lead] + threads:
                thread.join(5.0)
            assert not any(t.is_alive() for t in [lead] + threads)
            assert sorted(errors) == [3, 4]
            assert all(isinstance(exc, ValueError)
                       for exc in errors.values()), errors
            assert batcher.submit(np.array([0.0, 3.0, 1.0])) == [(1, None)]

    def test_bare_label_return_fails_its_batch_only(self):
        """``predict_fn`` must return ``(labels, meta)``: a bare label
        array (whose two rows would unpack as a pair) fails every
        request of its batch with TypeError, and the next batch is
        still served."""
        bare = [True]

        def predict(batch):
            labels, meta = argmax_fn(batch)
            return labels if bare[0] else (labels, meta)

        with MicroBatcher(predict, max_batch_size=8, max_latency_ms=1000.0,
                          workers=1, default_timeout_s=3.0) as batcher:
            with pytest.raises(TypeError, match=r"\(labels, meta\)"):
                batcher.submit(np.eye(2))
            assert batcher.stats["errors"] == 2
            bare[0] = False
            assert batcher.submit(np.array([0.0, 3.0, 1.0])) == [(1, None)]

    def test_engine_error_propagates_to_submitter(self):
        def broken(batch):
            raise RuntimeError("engine on fire")

        with MicroBatcher(broken, max_latency_ms=1.0) as batcher:
            with pytest.raises(RuntimeError, match="engine on fire"):
                batcher.submit(np.ones(3))
            assert batcher.stats["errors"] >= 1


class TestShutdown:
    def test_drains_pending_requests(self):
        fn = RecordingFn(delay_s=0.005)
        batcher = MicroBatcher(fn, max_batch_size=8,
                               max_latency_ms=1000.0, workers=1)
        rng = np.random.default_rng(3)
        features = rng.standard_normal((4, 5))
        results = []
        threads = [threading.Thread(
            target=lambda row=row: results.extend(
                labels_of(batcher.submit(row))))
            for row in features]
        for t in threads:
            t.start()
        time.sleep(0.05)
        batcher.shutdown()  # must answer the queued requests, not drop them
        for t in threads:
            t.join(5.0)
        assert sorted(results) == sorted(int(v)
                                         for v in argmax_fn(features)[0])

    def test_submit_after_shutdown_raises(self):
        batcher = MicroBatcher(argmax_fn)
        batcher.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            batcher.submit(np.ones(3))

    def test_shutdown_idempotent(self):
        batcher = MicroBatcher(argmax_fn)
        batcher.shutdown()
        batcher.shutdown()
        assert "MicroBatcher" in repr(batcher)
