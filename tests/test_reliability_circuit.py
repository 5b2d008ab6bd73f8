"""Circuit breaker: state machine, thresholds, half-open probing."""

import itertools

import pytest

from repro.reliability import CircuitBreaker
from repro.reliability.circuit import CLOSED, HALF_OPEN, OPEN
from repro.telemetry import get_registry

_IDS = itertools.count()


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, seconds):
        self.t += seconds


def make_breaker(**overrides):
    options = dict(name=f"test{next(_IDS)}", failure_threshold=3,
                   error_rate_threshold=0.5, window=10, min_requests=4,
                   recovery_timeout_s=5.0, half_open_probes=2,
                   clock=FakeClock())
    options.update(overrides)
    breaker = CircuitBreaker(**options)
    breaker.clock = options["clock"]  # test handle to the fake clock
    return breaker


class TestClosed:
    def test_starts_closed_and_allows(self):
        breaker = make_breaker()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_successes_keep_it_closed(self):
        breaker = make_breaker()
        for _ in range(50):
            assert breaker.allow()
            breaker.record_success()
        assert breaker.state == CLOSED

    def test_consecutive_failures_open(self):
        breaker = make_breaker(failure_threshold=3)
        breaker.record_failure()
        breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_interleaved_success_resets_consecutive_count(self):
        breaker = make_breaker(failure_threshold=3, min_requests=100)
        for _ in range(5):
            breaker.record_failure()
            breaker.record_failure()
            breaker.record_success()
        assert breaker.state == CLOSED

    def test_error_rate_opens_despite_interleaved_successes(self):
        breaker = make_breaker(failure_threshold=100, window=10,
                               min_requests=10, error_rate_threshold=0.5)
        # Alternate success/failure: never 100 consecutive, but the
        # rolling window hits 50% errors at min_requests outcomes.
        for _ in range(5):
            breaker.record_success()
            breaker.record_failure()
        assert breaker.state == OPEN

    def test_error_rate_needs_min_requests(self):
        breaker = make_breaker(failure_threshold=100, min_requests=8,
                               error_rate_threshold=0.25)
        for _ in range(3):
            breaker.record_failure()
            breaker.record_success()
        assert breaker.state == CLOSED  # only 6 outcomes observed


class TestOpenAndHalfOpen:
    def tripped(self, **overrides):
        breaker = make_breaker(**overrides)
        for _ in range(breaker.failure_threshold):
            breaker.record_failure()
        assert breaker.state == OPEN
        return breaker

    def test_open_rejects_until_recovery_timeout(self):
        breaker = self.tripped(recovery_timeout_s=5.0)
        assert not breaker.allow()
        breaker.clock.advance(4.9)
        assert not breaker.allow()
        breaker.clock.advance(0.2)
        assert breaker.state == HALF_OPEN
        assert breaker.allow()

    def test_half_open_admits_limited_probes(self):
        breaker = self.tripped(half_open_probes=2)
        breaker.clock.advance(5.1)
        assert breaker.allow()
        assert breaker.allow()
        assert not breaker.allow()  # probe budget spent

    def test_half_open_success_quota_closes(self):
        breaker = self.tripped(half_open_probes=2)
        breaker.clock.advance(5.1)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == HALF_OPEN
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_half_open_failure_reopens_immediately(self):
        breaker = self.tripped()
        breaker.clock.advance(5.1)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()
        # The recovery timer restarted from the reopen.
        breaker.clock.advance(5.1)
        assert breaker.state == HALF_OPEN

    def test_close_after_recovery_clears_failure_history(self):
        breaker = self.tripped(half_open_probes=1)
        breaker.clock.advance(5.1)
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED
        # One more failure must not instantly re-open (history reset).
        breaker.record_failure()
        assert breaker.state == CLOSED


class TestCallAndIntrospection:
    def test_reset_restores_closed(self):
        breaker = make_breaker(failure_threshold=1)
        breaker.record_failure()
        assert breaker.state == OPEN
        breaker.reset()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_describe_and_stats(self):
        breaker = make_breaker(failure_threshold=2)
        breaker.record_success()
        breaker.record_failure()
        breaker.record_failure()
        facts = breaker.describe()
        assert facts["state"] == OPEN
        assert facts["stats"]["opens"] == 1
        assert facts["stats"]["failures"] == 2
        assert facts["stats"]["successes"] == 1
        assert 0.0 < facts["error_rate"] <= 1.0

    def test_error_rate_property(self):
        breaker = make_breaker(failure_threshold=100, min_requests=100)
        for _ in range(3):
            breaker.record_success()
        breaker.record_failure()
        assert breaker.describe()["error_rate"] == pytest.approx(0.25)

    def test_transition_metrics_emitted(self):
        names = ("circuit.w0.open", "circuit.w0.half_open",
                 "circuit.w0.closed")
        registry = get_registry()
        before = [registry.counter(name).value for name in names]
        breaker = make_breaker(name="w0", failure_threshold=1,
                               half_open_probes=1)
        breaker.record_failure()
        breaker.clock.advance(5.1)
        assert breaker.allow()
        breaker.record_success()
        # open → half_open → closed: one transition into each state.
        assert [registry.counter(name).value - old for name, old
                in zip(names, before)] == [1, 1, 1]

    def test_rejected_probe_counts(self):
        breaker = make_breaker(failure_threshold=1)
        breaker.record_failure()
        assert not breaker.allow()
        assert breaker.stats["rejected"] == 1

    def test_invalid_options_raise(self):
        with pytest.raises(ValueError):
            make_breaker(failure_threshold=0)
        with pytest.raises(ValueError):
            make_breaker(error_rate_threshold=1.5)
        with pytest.raises(ValueError):
            make_breaker(window=0)
