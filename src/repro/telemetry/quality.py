"""Streaming model-quality telemetry: training baselines + drift monitors.

The serving fleet's latency/availability observability (spans, burn
rates, request traces) cannot see the one failure mode unique to ML
serving: a bundle that keeps answering **fast and 200** while the input
distribution has walked away from what it was trained on.  This module
turns the train-time introspection ideas of
:mod:`~repro.telemetry.diagnostics` (drift, saturation, margins) into
*production* monitors that compare live traffic against a baseline
frozen at export time:

* :class:`QualityBaseline` — a compact, JSON-serializable sketch of the
  training distribution captured by
  :meth:`repro.serve.bundle.ModelBundle.from_pipeline`: per-feature
  mean/std and decile bin edges (for PSI), class priors, and train-time
  margin/confidence quantiles.  It rides in the bundle manifest
  (``info["quality_baseline"]``), so every serving process of that
  bundle agrees on what "normal" looks like without coordination.
* :class:`DriftMonitor` — cheap rolling-window statistics over the live
  request stream, published as ``quality.*`` metrics and served raw on
  the worker's ``/driftz`` endpoint:

  - **feature drift**: windowed PSI per scaler-input feature against
    the baseline decile histogram (the industry-standard population
    stability index; > 0.25 is conventionally "significant shift"),
    plus the z-score of the window mean under the baseline
    mean/std (CLT-scaled, so a sustained mean shift stands out from
    sampling noise);
  - **prediction skew**: PSI of the windowed predicted-label
    distribution against the training class priors (label-skew faults,
    a stuck class, or a poisoned reload all show up here);
  - **confidence / margin**: log-bucket streaming histograms
    (``quality.margin`` / ``quality.confidence``) of the top-1
    similarity and top1−top2 margin — eroding margins are the earliest
    symptom of a model losing separability on live traffic;
  - **encoded-HV saturation**: :func:`~repro.telemetry.diagnostics.
    saturation_fraction` of each encoded query batch — input overflow
    or a broken scaler shows up as dimensions hogging magnitude.  A
    packed engine's batches are bipolar sign words, whose saturation
    follows from ``sat_factor`` alone, with no pass over the rows.

Everything is numpy + stdlib and O(window) memory.  A batch enters the
window in one vectorized update (``np.bincount`` moves for the evicted
and the new rows); the PSI and z-score are recomputed from the tallies
only when read, or once per ``min_samples`` observed rows.  The
similarities come from the engine's own classify pass, so feeding the
monitor costs no second classify.  On 1024 features, D = 3000 and a
2-vCPU VM, a 256-row :meth:`DriftMonitor.observe` costs about 6 ms:
binning ≈ 1.5 ms, the window tallies ≈ 3.3 ms, saturation gauge
≈ 0.8 ms on float hypervectors (nothing on packed words), refresh
≈ 0.2 ms, both histograms ≈ 0.1 ms.  A single row
costs about 0.15 ms (0.45 ms when every row refreshed).  The
``scripts/check_quality.sh`` gate bounds the serve-P99 overhead at < 5%.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Dict, List, Optional

import numpy as np

from .diagnostics import saturation_fraction
from .metrics import MetricsRegistry, get_registry

__all__ = ["QualityBaseline", "DriftMonitor",
           "population_stability_index", "BASELINE_VERSION",
           "DEFAULT_BINS"]

#: Schema version of the serialized baseline (bundle manifest section).
BASELINE_VERSION = 1

#: Default number of per-feature quantile bins for the PSI sketch.
DEFAULT_BINS = 10


def population_stability_index(expected, actual,
                               epsilon: float = 1e-4) -> float:
    """PSI between two discrete distributions (counts or proportions).

    ``sum((a - e) * ln(a / e))`` over bins, with both sides normalized
    to proportions and floored at ``epsilon`` so empty bins contribute
    a large-but-finite term instead of ±inf.  Conventional reading:
    < 0.1 stable, 0.1–0.25 moderate shift, > 0.25 significant shift.
    Returns 0.0 when either side is empty (no evidence of shift).
    """
    expected = np.asarray(expected, dtype=np.float64).ravel()
    actual = np.asarray(actual, dtype=np.float64).ravel()
    if expected.shape != actual.shape:
        raise ValueError(f"shape mismatch: {expected.shape} vs "
                         f"{actual.shape}")
    if expected.size == 0:
        return 0.0
    return float(_psi_rows(_proportions(expected[None], epsilon),
                           _proportions(actual[None], epsilon))[0])


def _proportions(counts: np.ndarray, epsilon: float = 1e-4) -> tuple:
    """``(proportions, has_mass)`` of an ``(F, B)`` count matrix: rows
    normalized, floored at ``epsilon`` and renormalized.  A drift
    monitor computes its baseline's side once, not on every refresh."""
    total = counts.sum(axis=1, keepdims=True)
    p = np.clip(np.divide(counts, np.where(total > 0, total, 1.0)),
                epsilon, None)
    p /= p.sum(axis=1, keepdims=True)
    return p, total.ravel() > 0


def _psi_rows(expected: tuple, actual: tuple) -> np.ndarray:
    """Row-wise PSI of two :func:`_proportions` results."""
    (e, e_mass), (a, a_mass) = expected, actual
    psi = np.sum((a - e) * np.log(a / e), axis=1)
    return np.where(e_mass & a_mass, psi, 0.0)


def _top_features(psi: np.ndarray, k: int = 5) -> List[Dict[str, float]]:
    """The ``k`` entries of a per-feature PSI row with the largest
    positive PSI, descending."""
    order = np.argsort(psi)[::-1][:max(0, int(k))]
    return [{"feature": int(i), "psi": float(psi[i])}
            for i in order if psi[i] > 0.0]


def _quantile_dict(values: np.ndarray) -> Dict[str, float]:
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        return {}
    return {
        "mean": float(values.mean()),
        "p50": float(np.quantile(values, 0.50)),
        "p95": float(np.quantile(values, 0.95)),
        "p99": float(np.quantile(values, 0.99)),
    }


def _margins(similarities: np.ndarray) -> tuple:
    """``(confidence, margin)`` rows from an ``(n, k)`` similarity
    matrix: top-1 similarity and top1 − top2 (top1 itself when k=1)."""
    similarities = np.atleast_2d(
        np.asarray(similarities, dtype=np.float64))
    if similarities.shape[1] < 2:
        confidence = similarities[:, 0]
        return confidence, confidence.copy()
    part = np.partition(similarities, -2, axis=1)
    confidence = part[:, -1]
    return confidence, confidence - part[:, -2]


class QualityBaseline:
    """Frozen sketch of the training distribution (bundle manifest).

    Parameters
    ----------
    feature_mean, feature_std:
        ``(F,)`` per-feature moments of the raw (pre-scaler) training
        features; ``std`` is floored at a tiny epsilon so z-scores
        never divide by zero.
    bin_edges:
        ``(F, n_bins - 1)`` interior quantile edges per feature.  A
        value lands in bin ``sum(value >= edges)``.
    expected:
        ``(F, n_bins)`` training proportions per bin.  By construction
        of quantile edges these are ~uniform, but ties (discrete
        features) are captured exactly.
    class_priors:
        ``(k,)`` training label distribution.
    margin, confidence:
        ``{mean, p50, p95, p99}`` of the train-time top1−top2 margin
        and top-1 similarity (may be empty when the exporter had no
        similarity pass).
    n_samples:
        Rows the sketch was computed from.
    """

    def __init__(self, feature_mean, feature_std, bin_edges, expected,
                 class_priors, margin: Optional[Dict[str, float]] = None,
                 confidence: Optional[Dict[str, float]] = None,
                 n_samples: int = 0):
        self.feature_mean = np.asarray(feature_mean, dtype=np.float64)
        self.feature_std = np.clip(
            np.asarray(feature_std, dtype=np.float64), 1e-12, None)
        self.bin_edges = np.atleast_2d(
            np.asarray(bin_edges, dtype=np.float64))
        self.expected = np.atleast_2d(np.asarray(expected,
                                                 dtype=np.float64))
        self.class_priors = np.asarray(class_priors, dtype=np.float64)
        self.margin = dict(margin or {})
        self.confidence = dict(confidence or {})
        self.n_samples = int(n_samples)
        if self.bin_edges.shape[0] != self.feature_mean.shape[0]:
            raise ValueError(
                f"bin_edges rows {self.bin_edges.shape[0]} != features "
                f"{self.feature_mean.shape[0]}")
        if self.expected.shape != (self.num_features, self.n_bins):
            raise ValueError(
                f"expected has shape {self.expected.shape}, want "
                f"({self.num_features}, {self.n_bins})")

    # ------------------------------------------------------------------
    @property
    def num_features(self) -> int:
        return int(self.feature_mean.shape[0])

    @property
    def num_classes(self) -> int:
        return int(self.class_priors.shape[0])

    @property
    def n_bins(self) -> int:
        return int(self.bin_edges.shape[1]) + 1

    def bin_indices(self, features: np.ndarray) -> np.ndarray:
        """Per-feature bin index of each row: ``(n, F)`` int16 in
        ``[0, n_bins)``.  NaN compares false everywhere (bin 0)."""
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        # Edges as (n_bins - 1, F) rows: the count runs over the middle
        # axis, whole contiguous feature rows at a time; summing over a
        # short trailing edge axis is about 6x slower.
        edges = np.ascontiguousarray(self.bin_edges.T)
        return (features[:, None, :] >= edges).sum(axis=1, dtype=np.int16)

    # ------------------------------------------------------------------
    @classmethod
    def from_training(cls, features, labels=None,
                      num_classes: Optional[int] = None,
                      similarities=None,
                      n_bins: int = DEFAULT_BINS) -> "QualityBaseline":
        """Sketch a training set (and optionally its similarity pass).

        ``labels`` default to ``argmax(similarities)`` when a
        similarity matrix is given (the priors then describe what the
        *model* predicts on its own training data — exactly the
        distribution live predictions are compared against), and to a
        uniform prior over ``num_classes`` otherwise.
        """
        if n_bins < 2:
            raise ValueError("n_bins must be >= 2")
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        n, _ = features.shape
        if n == 0:
            raise ValueError("cannot sketch an empty training set")
        mean = features.mean(axis=0)
        std = features.std(axis=0)
        interior = np.linspace(0.0, 1.0, n_bins + 1)[1:-1]
        edges = np.quantile(features, interior, axis=0).T

        margin: Dict[str, float] = {}
        confidence: Dict[str, float] = {}
        if similarities is not None:
            conf_rows, margin_rows = _margins(similarities)
            margin = _quantile_dict(margin_rows)
            confidence = _quantile_dict(conf_rows)
            if labels is None:
                labels = np.argmax(np.atleast_2d(
                    np.asarray(similarities, dtype=np.float64)), axis=1)

        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64).ravel()
            k = int(num_classes if num_classes is not None
                    else labels.max() + 1)
            priors = np.bincount(labels, minlength=k).astype(np.float64)
            priors /= priors.sum()
        else:
            k = int(num_classes or 0)
            if k < 1:
                raise ValueError(
                    "need labels, similarities, or num_classes to set "
                    "the class priors")
            priors = np.full(k, 1.0 / k)

        baseline = cls(mean, std, edges, np.zeros((features.shape[1],
                                                   n_bins)),
                       priors, margin=margin, confidence=confidence,
                       n_samples=n)
        bins = baseline.bin_indices(features)
        expected = np.zeros((features.shape[1], n_bins))
        for b in range(n_bins):
            expected[:, b] = (bins == b).sum(axis=0)
        baseline.expected = expected / n
        return baseline

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable form (bundle manifest section)."""
        return {
            "version": BASELINE_VERSION,
            "n_samples": self.n_samples,
            "n_bins": self.n_bins,
            "feature_mean": [float(v) for v in self.feature_mean],
            "feature_std": [float(v) for v in self.feature_std],
            "bin_edges": [[float(v) for v in row]
                          for row in self.bin_edges],
            "expected": [[float(v) for v in row]
                         for row in self.expected],
            "class_priors": [float(v) for v in self.class_priors],
            "margin": {k: float(v) for k, v in self.margin.items()},
            "confidence": {k: float(v)
                           for k, v in self.confidence.items()},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "QualityBaseline":
        version = int(data.get("version", 0))
        if version < 1 or version > BASELINE_VERSION:
            raise ValueError(
                f"unsupported quality baseline version {version!r} "
                f"(supported: 1..{BASELINE_VERSION})")
        return cls(
            data["feature_mean"], data["feature_std"],
            data["bin_edges"], data["expected"], data["class_priors"],
            margin=data.get("margin"), confidence=data.get("confidence"),
            n_samples=int(data.get("n_samples", 0)))

    def with_class_priors(self, priors) -> "QualityBaseline":
        """Copy of the baseline with **recomputed** class priors.

        Class-incremental promotion grows the label space, and a newly
        allocated class has zero mass in the frozen training priors —
        left as-is, every prediction of the new class would read as
        permanent label skew and ``quality.prediction.psi`` would fire
        forever.  The promotion exporter therefore re-bases the priors
        (typically from the shadow model's predictions on the feedback
        validation ring) while keeping the feature sketches, which are
        label-free and still valid.  ``priors`` may be counts or
        proportions; they are normalized here.
        """
        priors = np.asarray(priors, dtype=np.float64).ravel()
        if priors.size < 1:
            raise ValueError("priors must be non-empty")
        if not np.isfinite(priors).all() or (priors < 0).any():
            raise ValueError("priors must be finite and non-negative")
        total = float(priors.sum())
        if total <= 0:
            raise ValueError("priors must have positive mass")
        return QualityBaseline(
            self.feature_mean, self.feature_std, self.bin_edges,
            self.expected, priors / total, margin=dict(self.margin),
            confidence=dict(self.confidence), n_samples=self.n_samples)

    def describe(self) -> Dict[str, Any]:
        """Summary facts (healthz / driftz headers)."""
        return {"version": BASELINE_VERSION,
                "n_samples": self.n_samples,
                "features": self.num_features,
                "classes": self.num_classes,
                "n_bins": self.n_bins,
                "has_margin": bool(self.margin)}

    def __repr__(self) -> str:
        return (f"QualityBaseline(features={self.num_features}, "
                f"classes={self.num_classes}, bins={self.n_bins}, "
                f"n={self.n_samples})")


class DriftMonitor:
    """Rolling-window drift statistics against a frozen baseline.

    Thread-safe; every serving thread calls :meth:`observe` with the
    raw features (scaler inputs), predicted labels, and optionally the
    similarity matrix and encoded hypervectors of a batch.  ``observe``
    only tallies the batch into the window.  The headline scalars (the
    PSI and z-score rows below) are recomputed from those tallies and
    republished as ``quality.*`` gauges when something reads them —
    :meth:`snapshot` (``/driftz``) and :meth:`top_features` are always
    current — and by ``observe`` once at least ``min_samples`` rows have
    arrived since the last refresh.  The gauges the alert rules engine
    and Prometheus scrapes read therefore lag the window by fewer than
    ``min_samples`` rows; a batch of ``min_samples`` rows or more
    refreshes them on its own.  The sample counter, window fill,
    histograms and saturation gauge are published on every call:

    ====================================  =============================
    metric                                meaning
    ====================================  =============================
    ``quality.samples``                   counter of observed rows
    ``quality.window_fill``               window occupancy in [0, 1]
    ``quality.feature.psi_max``           worst per-feature window PSI
    ``quality.feature.psi_mean``          mean per-feature window PSI
    ``quality.feature.zscore_max``        worst |z| of the window mean
    ``quality.prediction.psi``            predicted-label PSI vs priors
    ``quality.margin`` (histogram)        live top1−top2 margin
    ``quality.confidence`` (histogram)    live top-1 similarity
    ``quality.encoded.saturation``        saturation of last batch
    ====================================  =============================

    The PSI and z-score gauges stay 0 until ``min_samples`` rows are in
    the window, so a cold start cannot fire a drift alert off three
    requests.
    """

    def __init__(self, baseline: QualityBaseline, window: int = 512,
                 min_samples: int = 64,
                 registry: Optional[MetricsRegistry] = None,
                 sat_factor: float = 3.0, prefix: str = "quality"):
        if window < 1:
            raise ValueError("window must be >= 1")
        self.baseline = baseline
        self.window = int(window)
        self.min_samples = max(1, int(min_samples))
        self.registry = registry
        self.sat_factor = float(sat_factor)
        self.prefix = str(prefix)
        f = baseline.num_features
        self._bin_ring = np.zeros((self.window, f), dtype=np.int16)
        self._feat_ring = np.zeros((self.window, f), dtype=np.float64)
        self._label_ring = np.full(self.window, -1, dtype=np.int64)
        self._counts = np.zeros((f, baseline.n_bins), dtype=np.float64)
        # Flat ``_counts`` index of (feature, bin) is bin + this offset.
        self._bin_offsets = np.arange(f) * baseline.n_bins
        self._expected = _proportions(baseline.expected)
        self._priors = _proportions(baseline.class_priors[None])
        self._label_counts = np.zeros(baseline.num_classes,
                                      dtype=np.float64)
        self._feat_sum = np.zeros(f, dtype=np.float64)
        self._pos = 0
        self._size = 0
        self._labeled = 0
        # Rows observed since the last refresh; infinite until the first,
        # so the first batch publishes the (cold-start zero) gauges.
        self._stale = math.inf
        self.samples = 0
        self._last = {"feature_psi_max": 0.0, "feature_psi_mean": 0.0,
                      "feature_zscore_max": 0.0, "prediction_psi": 0.0,
                      "saturation": 0.0}
        self._feature_psi = np.zeros(f, dtype=np.float64)
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None \
            else get_registry()

    def observe(self, features, labels=None, similarities=None,
                encoded=None) -> None:
        """Fold one batch of live traffic into the window.

        ``features`` is the raw ``(n, F)`` scaler input; ``labels`` the
        served predictions; ``similarities`` the ``(n, k)`` matrix (for
        margin/confidence histograms); ``encoded`` the query
        hypervectors, as floats or as a packed engine's ``uint64`` sign
        words (for the saturation gauge; bipolar words need no pass over
        the rows).  Everything except
        ``features`` is optional.  The headline gauges are refreshed here
        only once ``min_samples`` rows have arrived since the last
        refresh (see the class docstring).
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        n = features.shape[0]
        if features.shape[1] != self.baseline.num_features:
            raise ValueError(
                f"features have {features.shape[1]} columns, baseline "
                f"sketch has {self.baseline.num_features}")
        bins = self.baseline.bin_indices(features)
        served = np.full(n, -1, dtype=np.int64)
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64).ravel()[:n]
            served[:labels.shape[0]] = labels
        registry = self._registry()

        margin_rows = conf_rows = None
        if similarities is not None:
            conf_rows, margin_rows = _margins(similarities)
        saturation = None
        if encoded is not None:
            encoded = np.asarray(encoded)
            if encoded.dtype == np.uint64:
                # Packed sign words: every entry is ±1, at the RMS, so
                # none or all of them exceed sat_factor × RMS.
                saturation = (0.0 if self.sat_factor >= 1 or not encoded.size
                              else 1.0)
            else:
                saturation = saturation_fraction(encoded, self.sat_factor)

        with self._lock:
            # Only the last ``keep`` rows survive the batch; earlier ones
            # would be written and overwritten within this call, so they
            # never touch the running stats.  The slots they land in are
            # evicted first, where occupied.
            keep = min(n, self.window)
            slots = (self._pos + n - keep + np.arange(keep)) % self.window
            old = slots[slots < self._size]
            self._tally_locked(self._bin_ring[old], self._feat_ring[old],
                               self._label_ring[old], -1)
            tail = slice(n - keep, n)
            self._bin_ring[slots] = bins[tail]
            self._feat_ring[slots] = features[tail]
            self._label_ring[slots] = served[tail]
            self._tally_locked(bins[tail], features[tail], served[tail], 1)
            self._pos = (self._pos + n) % self.window
            self._size = min(self._size + n, self.window)
            if not np.isfinite(self._feat_sum).all():
                # NaN − NaN is NaN, so evicting a non-finite row cannot
                # clean the running sum; rebuild it from the window.
                self._feat_sum = self._feat_ring[:self._size].sum(axis=0)
            self.samples += n
            if saturation is not None:
                self._last["saturation"] = float(saturation)
            self._stale += n
            headline = None
            if self._stale >= self.min_samples:
                headline = self._refresh_locked()
            size = self._size

        registry.inc(f"{self.prefix}.samples", n)
        registry.set_gauge(f"{self.prefix}.window_fill",
                           size / self.window)
        if headline is not None:
            self._publish(registry, headline)
        if saturation is not None:
            registry.set_gauge(f"{self.prefix}.encoded.saturation",
                               float(saturation))
        if margin_rows is not None:
            registry.observe_many(f"{self.prefix}.margin", margin_rows)
            registry.observe_many(f"{self.prefix}.confidence",
                                  conf_rows)

    def _tally_locked(self, bins: np.ndarray, features: np.ndarray,
                      labels: np.ndarray, sign: int) -> None:
        """Add (``sign=1``) or remove (``sign=-1``) rows from the running
        window stats (caller holds the lock)."""
        if not len(bins):
            return
        cells = np.bincount((bins + self._bin_offsets).ravel(),
                            minlength=self._counts.size)
        self._counts += sign * cells.reshape(self._counts.shape)
        self._feat_sum += sign * features.sum(axis=0)
        k = self._label_counts.shape[0]
        self._label_counts += sign * np.bincount(
            labels[(labels >= 0) & (labels < k)], minlength=k)
        self._labeled += sign * int(np.count_nonzero(labels >= 0))

    def _refresh_locked(self) -> Dict[str, float]:
        """Recompute the headline scalars from the window tallies and
        return a copy of them (caller holds the lock)."""
        self._stale = 0
        if self._size < self.min_samples:
            self._feature_psi[:] = 0.0
            self._last.update(feature_psi_max=0.0, feature_psi_mean=0.0,
                              feature_zscore_max=0.0,
                              prediction_psi=0.0)
            return dict(self._last)
        psi = _psi_rows(self._expected, _proportions(self._counts))
        self._feature_psi = psi
        win_mean = self._feat_sum / self._size
        z = (win_mean - self.baseline.feature_mean) \
            / (self.baseline.feature_std / math.sqrt(self._size))
        pred_psi = 0.0
        if self._labeled >= self.min_samples:
            pred_psi = _psi_rows(
                self._priors, _proportions(self._label_counts[None]))[0]
        self._last.update(
            feature_psi_max=float(psi.max()) if psi.size else 0.0,
            feature_psi_mean=float(psi.mean()) if psi.size else 0.0,
            feature_zscore_max=float(np.abs(z).max()) if z.size else 0.0,
            prediction_psi=float(pred_psi))
        return dict(self._last)

    def _publish(self, registry: MetricsRegistry,
                 headline: Dict[str, float]) -> None:
        """Set the four headline gauges from a refresh's scalars."""
        registry.set_gauge(f"{self.prefix}.feature.psi_max",
                           headline["feature_psi_max"])
        registry.set_gauge(f"{self.prefix}.feature.psi_mean",
                           headline["feature_psi_mean"])
        registry.set_gauge(f"{self.prefix}.feature.zscore_max",
                           headline["feature_zscore_max"])
        registry.set_gauge(f"{self.prefix}.prediction.psi",
                           headline["prediction_psi"])

    # ------------------------------------------------------------------
    # Readers refresh first (and republish the headline gauges), so what
    # they return describes the window as of the call.
    def top_features(self, k: int = 5) -> List[Dict[str, float]]:
        """The ``k`` features with the worst window PSI (descending)."""
        with self._lock:
            last = self._refresh_locked()
            psi = self._feature_psi.copy()
        self._publish(self._registry(), last)
        return _top_features(psi, k)

    def snapshot(self) -> Dict[str, Any]:
        """``/driftz`` payload: window stats + baseline facts."""
        with self._lock:
            last = self._refresh_locked()
            psi = self._feature_psi.copy()
            size = self._size
            labeled = self._labeled
            label_counts = self._label_counts.copy()
            samples = self.samples
        registry = self._registry()
        self._publish(registry, last)
        margins: Dict[str, Any] = {}
        confidences: Dict[str, Any] = {}
        for name, out in ((f"{self.prefix}.margin", margins),
                          (f"{self.prefix}.confidence", confidences)):
            if name in registry:
                metric = registry.get(name)
                if getattr(metric, "kind", None) == "histogram" \
                        and metric.count:
                    summary = metric.summary()
                    out.update({key: summary[key] for key in
                                ("count", "mean", "p50", "p95", "p99")
                                if key in summary})
        total_labels = float(label_counts.sum())
        return {
            "enabled": True,
            "samples": samples,
            "baseline": self.baseline.describe(),
            "window": {"capacity": self.window, "size": size,
                       "fill": size / self.window,
                       "min_samples": self.min_samples,
                       "labeled": labeled},
            "feature": {
                "psi_max": last["feature_psi_max"],
                "psi_mean": last["feature_psi_mean"],
                "zscore_max": last["feature_zscore_max"],
                "top": _top_features(psi),
            },
            "prediction": {
                "psi": last["prediction_psi"],
                "priors": [float(v)
                           for v in self.baseline.class_priors],
                "window": [float(v / total_labels) if total_labels
                           else 0.0 for v in label_counts],
            },
            "margin": {"baseline": dict(self.baseline.margin),
                       "live": margins},
            "confidence": {"baseline": dict(self.baseline.confidence),
                           "live": confidences},
            "saturation": last["saturation"],
        }

    def describe(self) -> Dict[str, Any]:
        """Cheap facts for the engine's ``describe()`` / healthz."""
        with self._lock:
            return {"window": self.window,
                    "min_samples": self.min_samples,
                    "size": self._size,
                    "samples": self.samples,
                    "baseline_samples": self.baseline.n_samples}

    def reset(self) -> None:
        with self._lock:
            self._bin_ring[:] = 0
            self._feat_ring[:] = 0.0
            self._label_ring[:] = -1
            self._counts[:] = 0.0
            self._label_counts[:] = 0.0
            self._feat_sum[:] = 0.0
            self._feature_psi[:] = 0.0
            self._pos = 0
            self._size = 0
            self._labeled = 0
            self._stale = math.inf
            self.samples = 0
            self._last = {"feature_psi_max": 0.0,
                          "feature_psi_mean": 0.0,
                          "feature_zscore_max": 0.0,
                          "prediction_psi": 0.0, "saturation": 0.0}

    def __repr__(self) -> str:
        return (f"DriftMonitor(window={self.window}, size={self._size}, "
                f"samples={self.samples})")
