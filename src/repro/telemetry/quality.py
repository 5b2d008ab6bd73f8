"""Streaming model-quality telemetry: training baselines + drift monitors.

The serving fleet's latency/availability observability (spans, latency
quantiles, request traces) cannot see the one failure mode unique to ML
serving: a bundle that keeps answering **fast and 200** while the input
distribution has walked away from what it was trained on.  This module
turns the train-time introspection ideas of
:mod:`~repro.telemetry.diagnostics` (drift, saturation) into
*production* monitors that compare live traffic against a baseline
frozen at export time:

* :class:`QualityBaseline` — a compact, JSON-serializable sketch of the
  training distribution captured by
  :meth:`repro.serve.bundle.ModelBundle.from_pipeline`: per-feature
  mean/std and decile bin edges (for PSI), class priors, and train-time
  margin/confidence quantiles.  It rides in the bundle manifest
  (``info["quality_baseline"]``), so every serving process of that
  bundle agrees on what "normal" looks like without coordination.  Its
  :attr:`~QualityBaseline.tap` names the rows it sketches: the raw
  scale-stage input (``"input"``), or, for a bundle with a manifold
  stage, the reduce stage's output (``"reduce"``, the F̂ features the
  encoder reads).
* :class:`DriftMonitor` — cheap rolling-window statistics over the live
  request stream, published as ``quality.*`` metrics and served raw on
  the worker's ``/driftz`` endpoint:

  - **feature drift**: windowed PSI per tapped feature against
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
    packed engine's batches are bipolar sign words: every entry sits at
    the RMS, so their saturation is 0.0 with no pass over the rows.

Everything is numpy + stdlib and O(window) memory.  The window is three
ring buffers and nothing else: ``observe`` bins a batch with one compare
against the decile edges and writes each row's flat ``(feature, bin)``
cells, features and served label into the rings.  The PSI and z-score
are recounted from the rings only when read, or once per
``min_samples`` observed rows: one ``np.bincount`` of the cells, one sum
of the features and one ``np.bincount`` of the labels, window × F cells
in all (about 0.1 ms at 512 × 100).  The similarities come from the
engine's own classify pass, so feeding the monitor costs no second
classify.  The cost grows with the tapped width and the window.  With
window 512, 10 classes, labels and no similarity matrix, one BLAS
thread and a 2-vCPU VM, a 256-row :meth:`DriftMonitor.observe` (which
also refreshes) costs about 5 ms on 1024 raw features and 0.35-0.45 ms
on the F̂ = 100 manifold outputs a reduce-tap baseline watches; a
single row costs about 0.02 ms.  The ``scripts/check_quality.sh`` gate
bounds the serve-P99 overhead at < 5%.
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
           "DEFAULT_BINS", "TAPS"]

#: Schema version of the serialized baseline (bundle manifest section).
#: Version 2 added ``tap``; a version-1 baseline sketches the raw input.
BASELINE_VERSION = 2

#: Where a baseline is tapped: the raw features the scale stage reads,
#: or the reduce (manifold) stage's output.
TAPS = ("input", "reduce")

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
        ``(F,)`` per-feature moments of the training rows at ``tap``;
        ``std`` is floored at a tiny epsilon so z-scores never divide
        by zero.
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
    tap:
        The rows the feature sketches describe, one of :data:`TAPS`:
        ``"input"``, the raw ``(n, F)`` scale-stage input, or
        ``"reduce"``, the ``(n, F̂)`` manifold output.
    """

    def __init__(self, feature_mean, feature_std, bin_edges, expected,
                 class_priors, margin: Optional[Dict[str, float]] = None,
                 confidence: Optional[Dict[str, float]] = None,
                 n_samples: int = 0, tap: str = "input"):
        if tap not in TAPS:
            raise ValueError(f"tap {tap!r} is not one of {TAPS}")
        self.tap = tap
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
        if self.feature_mean.ndim != 1 \
                or self.feature_std.shape != self.feature_mean.shape:
            raise ValueError(
                f"feature_mean {self.feature_mean.shape} and feature_std "
                f"{self.feature_std.shape} must be 1-D and of one length")
        if self.class_priors.ndim != 1 or not self.class_priors.size:
            raise ValueError(
                f"class_priors has shape {self.class_priors.shape}, want "
                f"a non-empty 1-D row")
        if self.bin_edges.ndim != 2 \
                or self.bin_edges.shape[0] != self.feature_mean.shape[0]:
            raise ValueError(
                f"bin_edges rows {self.bin_edges.shape[0]} != features "
                f"{self.feature_mean.shape[0]}")
        if self.expected.shape != (self.num_features, self.n_bins):
            raise ValueError(
                f"expected has shape {self.expected.shape}, want "
                f"({self.num_features}, {self.n_bins})")
        # Edges as (n_bins - 1, 1, F): bin_indices compares whole
        # contiguous feature rows at a time and counts over the leading
        # axis, adding row blocks; counting over the middle axis is about
        # 1.9x slower for 256 rows, and a trailing edge axis about 6x.
        self._edge_rows = np.ascontiguousarray(self.bin_edges.T)[:, None]

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
        return (features >= self._edge_rows).sum(axis=0, dtype=np.int16)

    # ------------------------------------------------------------------
    @classmethod
    def from_training(cls, features, labels=None,
                      num_classes: Optional[int] = None,
                      similarities=None,
                      n_bins: int = DEFAULT_BINS,
                      tap: str = "input") -> "QualityBaseline":
        """Sketch a training set (and optionally its similarity pass).

        ``features`` are the rows at ``tap`` (see the class docstring).

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
                       n_samples=n, tap=tap)
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
            "tap": self.tap,
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
            n_samples=int(data.get("n_samples", 0)),
            tap=data["tap"] if version >= 2 else "input")

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
            confidence=dict(self.confidence), n_samples=self.n_samples,
            tap=self.tap)

    def describe(self) -> Dict[str, Any]:
        """Summary facts (healthz / driftz headers)."""
        return {"version": BASELINE_VERSION,
                "tap": self.tap,
                "n_samples": self.n_samples,
                "features": self.num_features,
                "classes": self.num_classes,
                "n_bins": self.n_bins,
                "has_margin": bool(self.margin)}

    def __repr__(self) -> str:
        return (f"QualityBaseline(tap={self.tap}, "
                f"features={self.num_features}, "
                f"classes={self.num_classes}, bins={self.n_bins}, "
                f"n={self.n_samples})")


class DriftMonitor:
    """Rolling-window drift statistics against a frozen baseline.

    Thread-safe; every serving thread calls :meth:`observe` with the
    rows at the baseline's tap, predicted labels, and optionally the
    similarity matrix and encoded hypervectors of a batch.  The window
    is its three rings — each row's bin cells, features and served
    label — and ``observe`` only writes the batch into them.  The
    headline scalars (the PSI and z-score rows below) are recounted
    from the rings and republished as ``quality.*`` gauges when
    something reads them — :meth:`snapshot` (``/driftz``) and
    :meth:`top_features` are always current — and by ``observe`` once
    at least ``min_samples`` rows have arrived since the last refresh.
    A refresh recounts window × F cells.  The gauges the alert rules
    engine and Prometheus scrapes read therefore lag the window by
    fewer than ``min_samples`` rows; a batch of ``min_samples`` rows or
    more refreshes them on its own.  The sample counter, histograms and
    saturation gauge are published on every call:

    ====================================  =============================
    metric                                meaning
    ====================================  =============================
    ``quality.samples``                   counter of observed rows
    ``quality.feature.psi_max``           worst per-feature window PSI
    ``quality.feature.zscore_max``        worst |z| of the window mean
    ``quality.prediction.psi``            predicted-label PSI vs priors
    ``quality.margin`` (histogram)        live top1−top2 margin
    ``quality.confidence`` (histogram)    live top-1 similarity
    ``quality.encoded.saturation``        saturation of last batch
    ====================================  =============================

    The PSI and z-score gauges stay 0 until ``min_samples`` rows are in
    the window, so a cold start cannot fire a drift alert off three
    requests.  A window smaller than ``min_samples`` could never leave
    that state, so it is refused.
    """

    def __init__(self, baseline: QualityBaseline, window: int = 512,
                 min_samples: int = 64,
                 registry: Optional[MetricsRegistry] = None):
        self.baseline = baseline
        self.window = int(window)
        self.min_samples = max(1, int(min_samples))
        if self.window < self.min_samples:
            raise ValueError(
                f"drift window {self.window} is smaller than min_samples "
                f"{self.min_samples}: its statistics would stay 0")
        self.registry = registry
        f = baseline.num_features
        self._expected = _proportions(baseline.expected)
        self._priors = _proportions(baseline.class_priors[None])
        # Each row's flat (feature, bin) cell, bin + this offset, so a
        # refresh counts every cell of the window in one bincount.
        cell = np.int16 if f * baseline.n_bins <= 2 ** 15 else np.int32
        self._bin_offsets = (np.arange(f) * baseline.n_bins).astype(cell)
        self._bin_ring = np.zeros((self.window, f), dtype=cell)
        self._feat_ring = np.zeros((self.window, f), dtype=np.float64)
        self._label_ring = np.full(self.window, -1, dtype=np.int64)
        self._pos = 0
        self._size = 0
        # Rows observed since the last refresh; infinite until the first,
        # so the first batch publishes the (cold-start zero) gauges.
        self._stale = math.inf
        self.samples = 0
        self._last = {"feature_psi_max": 0.0, "feature_psi_mean": 0.0,
                      "feature_zscore_max": 0.0, "prediction_psi": 0.0,
                      "saturation": 0.0}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def _registry(self) -> MetricsRegistry:
        return self.registry if self.registry is not None \
            else get_registry()

    def observe(self, features, labels=None, similarities=None,
                encoded=None) -> None:
        """Write one batch of live traffic into the window.

        ``features`` are the ``(n, F)`` rows at the baseline's
        :attr:`~QualityBaseline.tap`; ``labels`` the
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
        # Only the last ``keep`` rows survive the batch; earlier ones
        # would be written and overwritten within this call.
        keep = min(n, self.window)
        kept = features[n - keep:]
        cells = self.baseline.bin_indices(kept).astype(
            self._bin_ring.dtype, copy=False)
        cells += self._bin_offsets
        served = np.full(keep, -1, dtype=np.int64)
        if labels is not None:
            labels = np.asarray(labels, dtype=np.int64).ravel()[n - keep:n]
            served[:labels.shape[0]] = labels
        registry = self._registry()

        margin_rows = conf_rows = None
        if similarities is not None:
            conf_rows, margin_rows = _margins(similarities)
        saturation = None
        if encoded is not None:
            encoded = np.asarray(encoded)
            # Packed sign words: every entry is ±1, at the RMS, so none
            # exceeds saturation_fraction's 3 × RMS.
            saturation = (0.0 if encoded.dtype == np.uint64
                          else saturation_fraction(encoded))

        with self._lock:
            slots = self._slots((self._pos + n - keep) % self.window, keep)
            self._bin_ring[slots] = cells
            self._feat_ring[slots] = kept
            self._label_ring[slots] = served
            self._pos = (self._pos + n) % self.window
            self._size = min(self._size + n, self.window)
            self.samples += n
            if saturation is not None:
                self._last["saturation"] = float(saturation)
            self._stale += n
            headline = None
            if self._stale >= self.min_samples:
                headline = self._refresh_locked()[0]

        registry.inc("quality.samples", n)
        if headline is not None:
            self._publish(registry, headline)
        if saturation is not None:
            registry.set_gauge("quality.encoded.saturation",
                               float(saturation))
        if margin_rows is not None:
            registry.observe_many("quality.margin", margin_rows)
            registry.observe_many("quality.confidence",
                                  conf_rows)

    def _slots(self, start: int, count: int):
        """Ring slots ``start, start + 1, ...`` (wrapping) of ``count``
        rows: a slice where they do not wrap, else an index array."""
        if start + count <= self.window:
            return slice(start, start + count)
        return (start + np.arange(count)) % self.window

    def _refresh_locked(self) -> tuple:
        """Recount the window from its rings and recompute the headline
        scalars.  Returns ``(a copy of the scalars, per-feature PSI,
        label counts, labeled rows)`` (caller holds the lock).

        Until the ring fills, the window is its first ``_size`` slots.
        """
        self._stale = 0
        size = self._size
        k = self.baseline.num_classes
        labels = self._label_ring[:size]
        label_counts = np.bincount(labels[(labels >= 0) & (labels < k)],
                                   minlength=k)
        labeled = int(np.count_nonzero(labels >= 0))
        psi = np.zeros(self.baseline.num_features)
        zscore = pred_psi = 0.0
        if size >= self.min_samples:
            shape = self.baseline.expected.shape
            counts = np.bincount(self._bin_ring[:size].ravel(),
                                 minlength=shape[0] * shape[1])
            psi = _psi_rows(self._expected,
                            _proportions(counts.reshape(shape)))
            win_mean = self._feat_ring[:size].sum(axis=0) / size
            z = (win_mean - self.baseline.feature_mean) \
                / (self.baseline.feature_std / math.sqrt(size))
            zscore = float(np.abs(z).max()) if z.size else 0.0
            if labeled >= self.min_samples:
                pred_psi = float(_psi_rows(
                    self._priors, _proportions(label_counts[None]))[0])
        self._last.update(
            feature_psi_max=float(psi.max()) if psi.size else 0.0,
            feature_psi_mean=float(psi.mean()) if psi.size else 0.0,
            feature_zscore_max=zscore, prediction_psi=pred_psi)
        return dict(self._last), psi, label_counts, labeled

    def _publish(self, registry: MetricsRegistry,
                 headline: Dict[str, float]) -> None:
        """Set the three headline gauges from a refresh's scalars."""
        registry.set_gauge("quality.feature.psi_max",
                           headline["feature_psi_max"])
        registry.set_gauge("quality.feature.zscore_max",
                           headline["feature_zscore_max"])
        registry.set_gauge("quality.prediction.psi",
                           headline["prediction_psi"])

    # ------------------------------------------------------------------
    # Readers refresh first (and republish the headline gauges), so what
    # they return describes the window as of the call.
    def top_features(self, k: int = 5) -> List[Dict[str, float]]:
        """The ``k`` features with the worst window PSI (descending)."""
        with self._lock:
            last, psi, _, _ = self._refresh_locked()
        self._publish(self._registry(), last)
        return _top_features(psi, k)

    def snapshot(self) -> Dict[str, Any]:
        """``/driftz`` payload: window stats + baseline facts."""
        with self._lock:
            last, psi, label_counts, labeled = self._refresh_locked()
            size = self._size
            samples = self.samples
        registry = self._registry()
        self._publish(registry, last)
        margins: Dict[str, Any] = {}
        confidences: Dict[str, Any] = {}
        for name, out in (("quality.margin", margins),
                          ("quality.confidence", confidences)):
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
                    "tap": self.baseline.tap,
                    "min_samples": self.min_samples,
                    "size": self._size,
                    "samples": self.samples,
                    "baseline_samples": self.baseline.n_samples}

    def __repr__(self) -> str:
        return (f"DriftMonitor(window={self.window}, size={self._size}, "
                f"samples={self.samples})")
