"""Declarative alerting over the metrics registry.

A tiny Prometheus-shaped rules engine for the serving path: rules are
pure data (name + predicate over one :class:`~repro.telemetry.metrics.
MetricsRegistry` metric + a *for*-duration), evaluation is a
side-effect-free sweep, and state is an explicit machine —

    ``inactive`` → (condition holds) → ``pending``
    ``pending``  → (held for ``for_s``) → ``firing``
    ``firing``   → (condition clears)  → ``resolved``
    ``resolved`` → (condition holds again) → ``pending``

so a one-sample blip never pages (for-duration debouncing) and a
resolved alert stays visible in ``/alertz`` until the next incident.

Two predicate kinds cover the serving dashboards:

* ``threshold`` — compare a metric value (gauge/counter ``value``, or
  any histogram summary field such as ``p99``) against a bound:
  ``quality.feature.psi_max > 0.25``, ``serve.latency_ms.p99 > 50``.
* ``absence`` — fire when a metric a healthy process must publish is
  missing from the registry (or has never received a sample): a worker
  that stops reporting ``quality.samples`` is itself an incident.

The manager republishes every rule's state as a Prometheus-visible
gauge ``alert.state.<rule>`` (0 = inactive/resolved, 1 = pending,
2 = firing) plus ``alert.transitions.firing`` / ``alert.transitions.
resolved`` counters, and serves a JSON snapshot on ``/alertz``.  Rules
are TOML-configurable through the serve CLI config (``[[alerts.rules]]``
tables — see :func:`load_alert_rules` and ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

import math
import operator
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from .metrics import MetricsRegistry, get_registry

__all__ = ["AlertRule", "AlertRuleError", "AlertManager",
           "load_alert_rules", "ALERT_KINDS", "ALERT_STATES"]

ALERT_KINDS = ("threshold", "absence")
ALERT_STATES = ("inactive", "pending", "firing", "resolved")

#: ``alert.state.<rule>`` gauge encoding (resolved reads as 0 so a
#: Prometheus ``alert_state > 0`` query means "needs attention now").
_STATE_GAUGE = {"inactive": 0.0, "pending": 1.0, "firing": 2.0,
                "resolved": 0.0}

_OPS: Dict[str, Callable[[float, float], bool]] = {
    ">": operator.gt, ">=": operator.ge,
    "<": operator.lt, "<=": operator.le,
    "==": operator.eq, "!=": operator.ne,
}


class AlertRuleError(ValueError):
    """An alert rule is malformed (bad kind/op/field/duration)."""


@dataclass(frozen=True)
class AlertRule:
    """One declarative alerting rule (pure data; see module docs).

    ``metric`` names the registry metric; ``value_field`` selects a
    histogram summary field (``value``/``mean``/``p50``/``p95``/
    ``p99``/...); ``for_s`` is the pending dwell before firing.
    """

    name: str
    metric: str
    kind: str = "threshold"
    op: str = ">"
    threshold: float = 0.0
    value_field: str = "value"
    for_s: float = 0.0
    severity: str = "warning"
    description: str = ""
    labels: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.name or not str(self.name).strip():
            raise AlertRuleError("alert rule needs a non-empty name")
        if not self.metric:
            raise AlertRuleError(
                f"alert rule {self.name!r} needs a metric")
        if self.kind not in ALERT_KINDS:
            raise AlertRuleError(
                f"alert rule {self.name!r} has unknown kind "
                f"{self.kind!r} (expected one of {ALERT_KINDS})")
        if self.op not in _OPS:
            raise AlertRuleError(
                f"alert rule {self.name!r} has unknown op {self.op!r} "
                f"(expected one of {sorted(_OPS)})")
        # NaN compares false against everything and an infinite dwell
        # never elapses: either would load a rule that can never fire.
        if not math.isfinite(self.threshold):
            raise AlertRuleError(
                f"alert rule {self.name!r} needs a finite threshold, "
                f"got {self.threshold}")
        if not (math.isfinite(self.for_s) and self.for_s >= 0):
            raise AlertRuleError(
                f"alert rule {self.name!r} needs a finite for_s >= 0, "
                f"got {self.for_s}")

    # ------------------------------------------------------------------
    def evaluate(self, registry: MetricsRegistry) -> tuple:
        """``(condition_holds, observed_value)`` against a registry.

        Never raises on missing/NaN data: a threshold rule over a
        metric that does not exist yet simply does not hold (absence
        is its own kind, deliberately opt-in).
        """
        if self.kind == "absence":
            if self.metric not in registry:
                return True, None
            count = self._sample_count(registry, self.metric)
            return count == 0, count
        value = self._read(registry)
        if value is None or math.isnan(value):
            return False, value
        return _OPS[self.op](value, self.threshold), value

    def _read(self, registry: MetricsRegistry) -> Optional[float]:
        if self.metric not in registry:
            return None
        value = registry.get(self.metric).summary().get(self.value_field)
        if not isinstance(value, (int, float)):
            return None
        return float(value)

    @staticmethod
    def _sample_count(registry: MetricsRegistry, name: str) -> float:
        metric = registry.get(name)
        if getattr(metric, "kind", None) == "histogram":
            return float(metric.count)
        return 1.0  # counters/gauges exist ⇒ something published them

    def to_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "metric": self.metric,
                "kind": self.kind, "op": self.op,
                "threshold": self.threshold,
                "value_field": self.value_field, "for_s": self.for_s,
                "severity": self.severity,
                "description": self.description,
                "labels": dict(self.labels)}


def load_alert_rules(rows: List[Dict[str, Any]]) -> List[AlertRule]:
    """``[[alerts.rules]]`` TOML tables → validated :class:`AlertRule`s.

    Each row maps 1:1 onto the dataclass fields (``field`` is accepted
    as an alias of ``value_field`` to read naturally in TOML).  Unknown
    keys and duplicate names raise :class:`AlertRuleError` so config
    typos fail at startup, not silently at page time.
    """
    known = {"name", "metric", "kind", "op", "threshold", "value_field",
             "field", "for_s", "severity", "description", "labels"}
    rules: List[AlertRule] = []
    seen = set()
    for row in rows or []:
        if not isinstance(row, dict):
            raise AlertRuleError(
                f"alert rule must be a table, got {type(row).__name__}")
        unknown = set(row) - known
        if unknown:
            raise AlertRuleError(
                f"alert rule {row.get('name', '?')!r} has unknown "
                f"key(s) {sorted(unknown)}")
        data = dict(row)
        if "field" in data:
            data["value_field"] = data.pop("field")
        if "threshold" in data:
            data["threshold"] = float(data["threshold"])
        if "for_s" in data:
            data["for_s"] = float(data["for_s"])
        rule = AlertRule(**data)
        if rule.name in seen:
            raise AlertRuleError(f"duplicate alert rule {rule.name!r}")
        seen.add(rule.name)
        rules.append(rule)
    return rules


class _RuleState:
    """Mutable evaluation state of one rule."""

    __slots__ = ("rule", "state", "since", "pending_since", "fired_at",
                 "resolved_at", "fire_count", "last_value")

    def __init__(self, rule: AlertRule):
        self.rule = rule
        self.state = "inactive"
        self.since: Optional[float] = None
        self.pending_since: Optional[float] = None
        self.fired_at: Optional[float] = None
        self.resolved_at: Optional[float] = None
        self.fire_count = 0
        self.last_value: Optional[float] = None

    def snapshot(self) -> Dict[str, Any]:
        return {"rule": self.rule.to_dict(), "state": self.state,
                "since": self.since, "fired_at": self.fired_at,
                "resolved_at": self.resolved_at,
                "fire_count": self.fire_count,
                "last_value": self.last_value}


class AlertManager:
    """Evaluate alert rules against a registry; track state machines.

    Call :meth:`evaluate` on demand (the ``/alertz`` handler does) or
    :meth:`start` a background evaluator thread (the model server
    does).  Transition events are returned from :meth:`evaluate` and
    kept in a bounded recent-history ring (the last
    :data:`HISTORY` events) for the snapshot.
    """

    #: Transition events the snapshot keeps.
    HISTORY = 64

    def __init__(self, rules: List[AlertRule],
                 registry: Optional[MetricsRegistry] = None):
        names = [rule.name for rule in rules]
        if len(names) != len(set(names)):
            raise AlertRuleError("duplicate alert rule names")
        self.rules = list(rules)
        self.registry = registry
        self._clock = time.monotonic
        self._states = {rule.name: _RuleState(rule) for rule in rules}
        self._history: List[Dict[str, Any]] = []
        self.evaluations = 0
        self.last_evaluated_at: Optional[float] = None
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()

    # ------------------------------------------------------------------
    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None \
            else get_registry()

    def evaluate(self, now: Optional[float] = None) -> List[Dict[str, Any]]:
        """One sweep over every rule; returns the transition events.

        Each event is ``{"rule", "from", "to", "value", "at"}``.  The
        ``alert.state.<rule>`` gauges are refreshed whether or not
        anything transitioned.
        """
        now = self._clock() if now is None else float(now)
        registry = self._registry()
        transitions: List[Dict[str, Any]] = []
        with self._lock:
            self.evaluations += 1
            self.last_evaluated_at = now
            for status in self._states.values():
                condition, value = status.rule.evaluate(registry)
                status.last_value = value
                before = status.state
                if condition:
                    if status.state in ("inactive", "resolved"):
                        status.state = "pending"
                        status.pending_since = now
                        status.since = now
                    if status.state == "pending" and \
                            now - status.pending_since \
                            >= status.rule.for_s:
                        status.state = "firing"
                        status.fired_at = now
                        status.fire_count += 1
                        registry.inc("alert.transitions.firing")
                else:
                    if status.state == "firing":
                        status.state = "resolved"
                        status.resolved_at = now
                        status.since = now
                        registry.inc("alert.transitions.resolved")
                    elif status.state == "pending":
                        status.state = "inactive"
                        status.since = now
                if status.state != before:
                    transitions.append(
                        {"rule": status.rule.name, "from": before,
                         "to": status.state, "value": value, "at": now})
                registry.set_gauge(f"alert.state.{status.rule.name}",
                                   _STATE_GAUGE[status.state])
            self._history.extend(transitions)
            if len(self._history) > self.HISTORY:
                self._history = self._history[-self.HISTORY:]
        return transitions

    # ------------------------------------------------------------------
    def state(self, name: str) -> str:
        with self._lock:
            return self._states[name].state

    def firing(self) -> List[str]:
        with self._lock:
            return sorted(name for name, status in self._states.items()
                          if status.state == "firing")

    def snapshot(self) -> Dict[str, Any]:
        """``/alertz`` payload."""
        with self._lock:
            rules = [self._states[rule.name].snapshot()
                     for rule in self.rules]
            history = list(self._history)
            return {
                "enabled": True,
                "rules": rules,
                "firing": sorted(
                    status["rule"]["name"] for status in rules
                    if status["state"] == "firing"),
                "evaluations": self.evaluations,
                "last_evaluated_at": self.last_evaluated_at,
                "transitions": history,
            }

    # ------------------------------------------------------------------
    def start(self, interval_s: float = 1.0) -> "AlertManager":
        """Evaluate periodically on a daemon thread (fluent)."""
        if self._thread is not None:
            raise RuntimeError("alert evaluator already running")
        if interval_s <= 0:
            raise ValueError("interval_s must be > 0")
        self._stop.clear()

        def _loop() -> None:
            while not self._stop.wait(interval_s):
                try:
                    self.evaluate()
                except Exception:
                    # An evaluator crash must never take the serving
                    # process down; the next tick tries again.
                    self._registry().inc("alert.evaluator_errors")

        self._thread = threading.Thread(target=_loop,
                                        name="alert-evaluator",
                                        daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __repr__(self) -> str:
        return (f"AlertManager({len(self.rules)} rules, "
                f"firing={self.firing()})")
