"""Alert rules engine: predicates, state machine, TOML loading."""

import pytest

from repro.telemetry import (AlertManager, AlertRule, AlertRuleError,
                             MetricsRegistry, load_alert_rules)


def rule(**kwargs):
    kwargs.setdefault("name", "r")
    kwargs.setdefault("metric", "m")
    return AlertRule(**kwargs)


def manager(rules, registry):
    mgr = AlertManager(rules, registry=registry)
    now = {"t": 0.0}
    mgr._clock = lambda: now["t"]
    return mgr, now


class TestAlertRule:
    def test_defaults(self):
        r = rule()
        assert r.kind == "threshold" and r.op == ">" and r.for_s == 0.0

    @pytest.mark.parametrize("bad", [
        {"name": ""},
        {"metric": ""},
        {"kind": "nope"},
        {"op": "~"},
        {"for_s": -1.0},
        # A NaN comparison never holds and an infinite dwell never
        # elapses: each would load a rule that cannot fire.
        {"threshold": float("nan")},
        {"for_s": float("nan")},
        {"for_s": float("inf")},
    ])
    def test_invalid_rule_raises(self, bad):
        with pytest.raises(AlertRuleError):
            rule(**bad)

    def test_threshold_on_gauge(self):
        registry = MetricsRegistry()
        registry.set_gauge("m", 2.0)
        assert rule(threshold=1.0).evaluate(registry) == (True, 2.0)
        assert rule(threshold=3.0).evaluate(registry) == (False, 2.0)

    def test_threshold_on_histogram_field(self):
        registry = MetricsRegistry()
        registry.observe_many("m", [1.0] * 99 + [100.0])
        holds, value = rule(value_field="p50",
                            threshold=50.0).evaluate(registry)
        assert not holds and value < 50.0
        holds, _ = rule(value_field="max",
                        threshold=50.0).evaluate(registry)
        assert holds

    def test_threshold_missing_metric_does_not_hold(self):
        holds, value = rule(threshold=0.0).evaluate(MetricsRegistry())
        assert not holds and value is None

    def test_threshold_ops(self):
        registry = MetricsRegistry()
        registry.set_gauge("m", 5.0)
        assert rule(op="==", threshold=5.0).evaluate(registry)[0]
        assert rule(op="!=", threshold=4.0).evaluate(registry)[0]
        assert rule(op="<=", threshold=5.0).evaluate(registry)[0]
        assert not rule(op="<", threshold=5.0).evaluate(registry)[0]

    def test_absence_fires_on_missing_and_empty(self):
        registry = MetricsRegistry()
        assert rule(kind="absence").evaluate(registry)[0]
        registry.histogram("m")  # exists but never sampled
        assert rule(kind="absence").evaluate(registry)[0]
        registry.observe("m", 1.0)
        assert not rule(kind="absence").evaluate(registry)[0]

    def test_absence_ok_for_counter(self):
        registry = MetricsRegistry()
        registry.inc("m")
        assert not rule(kind="absence").evaluate(registry)[0]

    def test_to_dict_round_trips_through_loader(self):
        r = rule(name="a", threshold=0.5, for_s=2.0, severity="page")
        (back,) = load_alert_rules([r.to_dict()])
        assert back == r


class TestLoadAlertRules:
    def test_field_alias(self):
        (r,) = load_alert_rules([{"name": "a", "metric": "m",
                                  "field": "p99", "threshold": 10}])
        assert r.value_field == "p99" and r.threshold == 10.0

    def test_unknown_key_raises(self):
        with pytest.raises(AlertRuleError, match="unknown"):
            load_alert_rules([{"name": "a", "metric": "m",
                               "treshold": 1}])

    def test_duplicate_names_raise(self):
        rows = [{"name": "a", "metric": "m"},
                {"name": "a", "metric": "n"}]
        with pytest.raises(AlertRuleError, match="duplicate"):
            load_alert_rules(rows)

    def test_non_table_row_raises(self):
        with pytest.raises(AlertRuleError, match="table"):
            load_alert_rules(["oops"])

    def test_empty_input_is_empty(self):
        assert load_alert_rules([]) == []
        assert load_alert_rules(None) == []


class TestStateMachine:
    def test_immediate_fire_without_debounce(self):
        registry = MetricsRegistry()
        mgr, _ = manager([rule(threshold=1.0)], registry)
        registry.set_gauge("m", 2.0)
        events = mgr.evaluate()
        assert [(e["from"], e["to"]) for e in events] == \
            [("inactive", "firing")]
        assert mgr.firing() == ["r"]
        assert registry.get("alert.state.r").value == 2.0
        assert registry.get("alert.transitions.firing").value == 1

    def test_for_duration_debounces(self):
        registry = MetricsRegistry()
        mgr, now = manager([rule(threshold=1.0, for_s=5.0)], registry)
        registry.set_gauge("m", 2.0)
        mgr.evaluate()
        assert mgr.state("r") == "pending"
        assert registry.get("alert.state.r").value == 1.0
        now["t"] = 4.0
        mgr.evaluate()
        assert mgr.state("r") == "pending"   # not held long enough
        now["t"] = 5.0
        mgr.evaluate()
        assert mgr.state("r") == "firing"

    def test_blip_returns_to_inactive(self):
        registry = MetricsRegistry()
        mgr, now = manager([rule(threshold=1.0, for_s=5.0)], registry)
        registry.set_gauge("m", 2.0)
        mgr.evaluate()
        registry.set_gauge("m", 0.0)   # condition clears while pending
        now["t"] = 1.0
        mgr.evaluate()
        assert mgr.state("r") == "inactive"
        assert "alert.transitions.firing" not in registry

    def test_firing_resolves_then_refires(self):
        registry = MetricsRegistry()
        mgr, now = manager([rule(threshold=1.0)], registry)
        registry.set_gauge("m", 2.0)
        mgr.evaluate()
        registry.set_gauge("m", 0.0)
        now["t"] = 1.0
        mgr.evaluate()
        assert mgr.state("r") == "resolved"
        assert registry.get("alert.state.r").value == 0.0
        assert registry.get("alert.transitions.resolved").value == 1
        registry.set_gauge("m", 2.0)
        now["t"] = 2.0
        mgr.evaluate()
        assert mgr.state("r") == "firing"
        status = mgr.snapshot()["rules"][0]
        assert status["fire_count"] == 2

    def test_resolved_is_sticky_while_clear(self):
        registry = MetricsRegistry()
        mgr, now = manager([rule(threshold=1.0)], registry)
        registry.set_gauge("m", 2.0)
        mgr.evaluate()
        registry.set_gauge("m", 0.0)
        now["t"] = 1.0
        mgr.evaluate()
        now["t"] = 100.0
        mgr.evaluate()
        assert mgr.state("r") == "resolved"


class TestAlertManager:
    def test_duplicate_rule_names_raise(self):
        with pytest.raises(AlertRuleError, match="duplicate"):
            AlertManager([rule(), rule()])

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        mgr, _ = manager([rule(threshold=1.0),
                          rule(name="gone", metric="missing",
                               kind="absence")], registry)
        registry.set_gauge("m", 5.0)
        mgr.evaluate()
        snap = mgr.snapshot()
        assert snap["enabled"] and snap["evaluations"] == 1
        assert snap["firing"] == ["gone", "r"]
        assert {s["rule"]["name"] for s in snap["rules"]} == \
            {"r", "gone"}
        assert snap["transitions"][-1]["to"] == "firing"

    def test_transition_history_is_bounded(self):
        registry = MetricsRegistry()
        mgr, now = manager([rule(threshold=1.0)], registry)
        mgr.HISTORY = 4
        for i in range(10):
            registry.set_gauge("m", 2.0 if i % 2 == 0 else 0.0)
            now["t"] = float(i)
            mgr.evaluate()
        assert len(mgr.snapshot()["transitions"]) <= 4

    def test_background_evaluator_thread(self):
        import time
        registry = MetricsRegistry()
        registry.set_gauge("m", 2.0)
        mgr = AlertManager([rule(threshold=1.0)], registry=registry)
        mgr.start(interval_s=0.02)
        try:
            deadline = time.monotonic() + 2.0
            while not mgr.firing() and time.monotonic() < deadline:
                time.sleep(0.01)
            assert mgr.firing() == ["r"]
            with pytest.raises(RuntimeError, match="already"):
                mgr.start(interval_s=0.02)
        finally:
            mgr.stop()
        assert mgr._thread is None

    def test_evaluator_crash_is_counted_and_the_thread_lives(self):
        import time
        registry = MetricsRegistry()
        mgr = AlertManager([rule()], registry=registry)
        calls = []

        def crash_once():
            calls.append(len(calls))
            if len(calls) == 1:
                raise RuntimeError("evaluator bug")

        mgr.evaluate = crash_once
        mgr.start(interval_s=0.01)
        try:
            deadline = time.monotonic() + 2.0
            while len(calls) < 3 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            mgr.stop()
        assert len(calls) >= 3  # the crash did not end the loop
        assert registry.counter("alert.evaluator_errors").value == 1

    def test_invalid_interval_raises(self):
        mgr = AlertManager([rule()], registry=MetricsRegistry())
        with pytest.raises(ValueError, match="interval"):
            mgr.start(interval_s=0.0)
