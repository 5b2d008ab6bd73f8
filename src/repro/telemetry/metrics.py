"""Process-global metrics: counters, gauges, streaming histograms.

The registry is the numeric backbone of the observability layer: every
subsystem (guards, trainers, HD encoders, the server) publishes into
one process-global :class:`MetricsRegistry` so a single exporter call can
snapshot the whole run.  Everything here is numpy + stdlib only — the
telemetry layer must be importable from every other layer of the code
base without creating import cycles.

Histograms estimate p50/p95/p99 *without storing samples* from fixed
log buckets, in the style of DDSketch (Masson et al., VLDB 2019): ``x ≠ 0``
counts in bucket ``ceil(log_γ |x|)`` of its sign, ``γ = (1 + α)/(1 − α)``,
and zero in a bucket of its own, so every estimate is within ``α·|x|``
(α = 1 %) of the order statistic ``x`` it stands for, at any magnitude.
``observe_many`` folds an array with one ``np.log`` and one ``np.unique``.
"""

from __future__ import annotations

import contextlib
import math
import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "get_registry", "set_registry", "use_registry",
    "DEFAULT_QUANTILES", "ALPHA",
]

#: Quantiles every :class:`Histogram` summary reports.
DEFAULT_QUANTILES: Tuple[float, ...] = (0.5, 0.95, 0.99)

#: Relative accuracy of every :class:`Histogram` quantile estimate.
ALPHA = 0.01
_GAMMA = (1.0 + ALPHA) / (1.0 - ALPHA)
_INV_LOG_GAMMA = 1.0 / math.log(_GAMMA)
#: A bucket's *ordinal* is ``_OFFSET + ceil(log_γ x)`` for ``x > 0``, its
#: negation for ``x < 0`` and 0 for zero.  ``|ceil(log_γ |x|)|`` stays
#: below 37,300 for every finite double, subnormals included, so the
#: ordinals sort in the order of the values they hold.
_OFFSET = 1 << 16
#: ``observe_many`` of fewer values loops over ``observe``: below this
#: size the vector fold's fixed NumPy-call cost exceeds the scalar path.
_FOLD_MIN_VALUES = 32


def _ordinal(value: float) -> int:
    """Bucket ordinal of one finite value."""
    if value == 0.0:
        return 0
    index = math.ceil(math.log(abs(value)) * _INV_LOG_GAMMA) + _OFFSET
    return index if value > 0.0 else -index


def _ordinals(values: np.ndarray) -> np.ndarray:
    """Bucket ordinals of an array of finite values."""
    with np.errstate(divide="ignore"):
        index = np.ceil(np.log(np.abs(values)) * _INV_LOG_GAMMA) + _OFFSET
    return np.where(values == 0.0, 0.0,
                    np.copysign(index, values)).astype(np.int64)


def _bucket_value(ordinal: int) -> float:
    """The value a bucket reports: ``(1 + α)·γ^(i−1)`` for the bucket
    ``(γ^(i−1), γ^i]``, within ``α`` of everything it holds.  It is
    built from the lower edge, which lies below a value the bucket
    holds, so the power never overflows."""
    if ordinal == 0:
        return 0.0
    value = (1.0 + ALPHA) * _GAMMA ** (abs(ordinal) - _OFFSET - 1)
    return value if ordinal > 0 else -value


class Counter:
    """Monotonically increasing counter (thread-safe)."""

    kind = "counter"
    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase; use a Gauge")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def summary(self) -> Dict[str, float]:
        return {"value": self._value}

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A value that can go up and down (thread-safe)."""

    kind = "gauge"
    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def summary(self) -> Dict[str, float]:
        return {"value": self._value}

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self._value})"


class Histogram:
    """Streaming summary: exact count/sum/min/max + log-bucket quantiles.

    The estimate of ``q`` is the value of the bucket holding the order
    statistic of rank ``ceil(q·count)``, clamped to ``[min, max]`` (so a
    lone sample is exact).  Non-finite samples are skipped.

    Observations may carry an **exemplar** trace id
    (``observe(12.3, exemplar="4bf9…")``, OpenMetrics-style).  Each bucket
    keeps its newest exemplar ``{value, trace_id, ts}``; a quantile
    reports the newest one at or above its bucket — so the P99 of
    ``serve.latency_ms`` points at a real recent trace at least as slow,
    which a debugger can look up in the flight recorder.  Exemplars only
    appear in :meth:`summary` (and downstream exporters) when at least
    one was recorded, keeping train-time metric snapshots byte-identical.
    """

    kind = "histogram"
    __slots__ = ("name", "count", "sum", "min", "max", "_buckets",
                 "_exemplars", "_lock")

    def __init__(self, name: str):
        self.name = name
        self._lock = threading.Lock()
        self.reset()

    def observe(self, value: float,
                exemplar: Optional[str] = None) -> None:
        value = float(value)
        if not math.isfinite(value):
            return
        ordinal = _ordinal(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if value < self.min:
                self.min = value
            if value > self.max:
                self.max = value
            self._buckets[ordinal] = self._buckets.get(ordinal, 0) + 1
            if exemplar:
                # Re-insert, so the dict's order is the order of recency.
                self._exemplars.pop(ordinal, None)
                self._exemplars[ordinal] = {
                    "value": value, "trace_id": str(exemplar),
                    "ts": time.time()}

    def observe_many(self, values: Sequence[float]) -> None:
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.size < _FOLD_MIN_VALUES:
            for value in values.tolist():
                self.observe(value)
            return
        values = values[np.isfinite(values)]
        if not values.size:
            return
        ordinals, counts = np.unique(_ordinals(values), return_counts=True)
        total = float(values.sum())
        low, high = float(values.min()), float(values.max())
        with self._lock:
            self.count += int(values.size)
            self.sum += total
            self.min = min(self.min, low)
            self.max = max(self.max, high)
            buckets = self._buckets
            for ordinal, n in zip(ordinals.tolist(), counts.tolist()):
                buckets[ordinal] = buckets.get(ordinal, 0) + n

    def _estimates_locked(self, quantiles: Sequence[float]
                          ) -> List[Tuple[float, int]]:
        """``(estimate, bucket ordinal)`` per quantile, from one pass over
        the sorted buckets (caller holds the lock; ``count > 0``)."""
        ordinals = sorted(self._buckets)
        cumulative = np.cumsum([self._buckets[o] for o in ordinals])
        ranks = [max(1, math.ceil(q * self.count)) for q in quantiles]
        out = []
        for pick in np.searchsorted(cumulative, ranks).tolist():
            ordinal = ordinals[pick]
            estimate = min(max(_bucket_value(ordinal), self.min), self.max)
            out.append((estimate, ordinal))
        return out

    def quantile(self, q: float) -> float:
        """Estimate of quantile ``q`` in (0, 1); NaN before any sample."""
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q!r}")
        with self._lock:
            if not self.count:
                return math.nan
            return self._estimates_locked([q])[0][0]

    def exemplars(self) -> Dict[str, Dict[str, float]]:
        """Per-quantile exemplar copies (empty when none recorded)."""
        return self.summary().get("exemplars", {})

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else math.nan

    def summary(self) -> Dict[str, float]:
        # One snapshot under the lock: a /metrics scrape racing observe()
        # must not pair a count with a sum from another moment.
        with self._lock:
            count = self.count
            out = {
                "count": float(count),
                "sum": self.sum,
                "mean": self.sum / count if count else math.nan,
                "min": self.min if count else math.nan,
                "max": self.max if count else math.nan,
            }
            estimates = (self._estimates_locked(DEFAULT_QUANTILES) if count
                         else [(math.nan, 0)] * len(DEFAULT_QUANTILES))
            exemplars = {}
            for q, (estimate, ordinal) in zip(DEFAULT_QUANTILES, estimates):
                key = f"p{q * 100:g}"
                out[key] = estimate
                for at, exemplar in reversed(self._exemplars.items()):
                    if at >= ordinal:
                        exemplars[key] = dict(exemplar)
                        break
        if exemplars:
            out["exemplars"] = exemplars
        return out

    def reset(self) -> None:
        with self._lock:
            self.count = 0
            self.sum = 0.0
            self.min = math.inf
            self.max = -math.inf
            self._buckets: Dict[int, int] = {}
            self._exemplars: Dict[int, Dict[str, float]] = {}

    def __repr__(self) -> str:
        return (f"Histogram({self.name}, count={self.count}, "
                f"p50={self.quantile(0.5)})")


class MetricsRegistry:
    """Name → metric map with get-or-create accessors (thread-safe).

    Metric names are dotted paths (``guard.nan_batches``,
    ``train.epoch_time_s``); exporters translate them to whatever naming
    scheme the sink wants (Prometheus uses underscores).
    """

    def __init__(self):
        self._metrics: Dict[str, object] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _get_or_create(self, name: str, factory, kind: str):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = factory()
                self._metrics[name] = metric
            elif metric.kind != kind:
                raise TypeError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {kind}")
            return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), "counter")

    def gauge(self, name: str) -> Gauge:
        return self._get_or_create(name, lambda: Gauge(name), "gauge")

    def histogram(self, name: str) -> Histogram:
        return self._get_or_create(name, lambda: Histogram(name),
                                   "histogram")

    # Convenience one-liners used by instrumented call sites ------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float,
                exemplar: Optional[str] = None) -> None:
        self.histogram(name).observe(value, exemplar=exemplar)

    def observe_many(self, name: str, values: Sequence[float]) -> None:
        self.histogram(name).observe_many(values)

    # ------------------------------------------------------------------
    def get(self, name: str):
        """Return the metric registered under ``name`` (KeyError if none)."""
        return self._metrics[name]

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """Point-in-time copy: name → {"type": ..., **summary}."""
        with self._lock:
            metrics = dict(self._metrics)
        out: Dict[str, Dict[str, object]] = {}
        for name in sorted(metrics):
            metric = metrics[name]
            entry: Dict[str, object] = {"type": metric.kind}
            entry.update(metric.summary())
            out[name] = entry
        return out

    def reset(self) -> None:
        """Drop every registered metric (tests / run boundaries)."""
        with self._lock:
            self._metrics = {}

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self._metrics)} metrics)"


# ----------------------------------------------------------------------
# Process-global default registry
# ----------------------------------------------------------------------
_GLOBAL_REGISTRY = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-global registry all built-in instrumentation targets."""
    return _GLOBAL_REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry; returns the previous one."""
    global _GLOBAL_REGISTRY
    previous = _GLOBAL_REGISTRY
    _GLOBAL_REGISTRY = registry
    return previous


@contextlib.contextmanager
def use_registry(registry: Optional[MetricsRegistry] = None):
    """Scoped registry swap (tests, isolated measured runs).

    Yields the active registry; restores the previous global on exit.
    """
    registry = registry or MetricsRegistry()
    previous = set_registry(registry)
    try:
        yield registry
    finally:
        set_registry(previous)
