"""The serving inference engine: a thin executor over a frozen StageGraph.

:class:`InferenceEngine` serves a :class:`repro.serve.bundle.ModelBundle`
by executing the bundle's :class:`repro.pipeline.StageGraph`
(``bundle.build_graph()``) — the *same* stage implementations the
training pipelines run, so predictions are bit-exact with
``pipeline.predict`` by construction rather than by replication.  The
engine itself contains **no stage math**: no scaling, no manifold
reduction, no encoding, no similarity expressions — it adds exactly the
serving concerns:

* an LRU cache keyed by the sha1 of each sample's raw feature bytes that
  memoizes encoded hypervectors, so repeated queries skip the projection
  GEMM entirely (``serve.cache.hits`` / ``serve.cache.misses``);
* the ``use_packed`` switch onto the **bit-packed XOR-popcount**
  :class:`~repro.pipeline.PackedClassifyStage`, which replaces the
  float classify stage wherever :func:`repro.pipeline.packed_refusal`
  allows it;
* a load-time :meth:`selfcheck` proving the packed stage agrees with the
  float reference kernels on random probes;
* request/sample counters and ``serve.*`` spans for the telemetry layer.

Pre-refactor bundles (no ``info["graph"]`` topology) are served through
the same code path: :meth:`ModelBundle.build_graph` synthesizes the
equivalent topology from the legacy provenance fields.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..hd.similarity import classify
from ..pipeline import (ClassifyStage, ExtractStage, FlattenStage,
                        PackedClassifyStage, StageGraph, packed_refusal)
from ..telemetry import get_registry, span
from ..telemetry.quality import DriftMonitor, QualityBaseline
from ..utils.rng import fresh_rng
from .bundle import BundleError, ModelBundle

__all__ = ["InferenceEngine", "EngineSelfCheckError"]


class EngineSelfCheckError(RuntimeError):
    """The packed fast path disagreed with the reference kernel."""


class _EncodedLRU:
    """Thread-safe LRU of encoded hypervectors keyed by feature digest.

    Rows live in one ``(max_entries, dim)`` array; the ordered map holds
    each key's row slot.  A batch takes one lock for its lookups and one
    for its stores, and leaves the LRU as if its rows were looked up,
    then stored, one at a time."""

    def __init__(self, max_entries: int):
        self.max_entries = int(max_entries)
        self._slots: "OrderedDict[bytes, int]" = OrderedDict()
        self._rows: Optional[np.ndarray] = None
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get_many(self, keys: List[bytes]
                 ) -> Tuple[Optional[np.ndarray], List[int]]:
        """``(encoded, misses)``: an ``(n, dim)`` array holding every hit
        row (None when nothing hit) and the positions that missed."""
        hit_pos, hit_slots, misses = [], [], []
        with self._lock:
            for i, key in enumerate(keys):
                slot = self._slots.get(key)
                if slot is None:
                    misses.append(i)
                else:
                    self._slots.move_to_end(key)
                    hit_pos.append(i)
                    hit_slots.append(slot)
            self.hits += len(hit_pos)
            self.misses += len(misses)
            if not hit_pos:
                return None, misses
            hits = self._rows[hit_slots]  # a copy, taken under the lock
        if not misses:
            return hits, misses
        encoded = np.empty((len(keys), hits.shape[1]), dtype=hits.dtype)
        encoded[hit_pos] = hits
        return encoded, misses

    def put_many(self, keys: List[bytes], rows: np.ndarray) -> None:
        """Store ``rows[j]`` under ``keys[j]``, in order."""
        writes: Dict[int, int] = {}  # slot -> row; a later row wins
        with self._lock:
            if self._rows is None:
                self._rows = np.empty((self.max_entries, rows.shape[1]),
                                      dtype=rows.dtype)
            for j, key in enumerate(keys):
                slot = self._slots.pop(key, None)  # re-inserted at the end
                if slot is None:
                    slot = len(self._slots)
                    if slot == self.max_entries:  # full: reuse the oldest's
                        slot = self._slots.popitem(last=False)[1]
                self._slots[key] = slot
                writes[slot] = j
            if len(writes) == len(keys):
                self._rows[list(writes)] = rows
            else:
                self._rows[list(writes)] = rows[list(writes.values())]

    def info(self) -> Dict[str, int]:
        with self._lock:
            return {"entries": len(self._slots), "hits": self.hits,
                    "misses": self.misses,
                    "max_entries": self.max_entries}


class InferenceEngine:
    """Cache-accelerated StageGraph executor over a frozen model bundle.

    Parameters
    ----------
    bundle:
        A validated :class:`ModelBundle` (``validate()`` is called here).
    use_packed:
        Classify with the packed XOR-popcount stage (True) or the float
        cosine stage (False); default ``None`` packs exactly where
        :func:`~repro.pipeline.packed_refusal` finds no reason not to.
        True on a graph it refuses raises :class:`BundleError`.
    cache_size:
        LRU capacity (entries) for encoded hypervectors; 0 disables.
    build_extractor:
        Keep the truncated-CNN ``extract`` stage in the graph so
        :meth:`predict` accepts raw NCHW images.  Disable for servers
        that only ever receive precomputed features.
    selfcheck:
        Run :meth:`selfcheck` at construction when the packed path is
        active (cheap: a handful of random probes).
    quality:
        Force (True) or forbid (False) the streaming
        :class:`~repro.telemetry.quality.DriftMonitor`; default ``None``
        auto-enables it when the bundle manifest carries a
        ``quality_baseline`` section (``from_pipeline(...,
        baseline_features=...)`` export).  Forcing it on a bundle
        without a baseline raises :class:`BundleError`.
    quality_window:
        Rolling-window size (rows) for the drift monitor.
    """

    def __init__(self, bundle: ModelBundle,
                 use_packed: Optional[bool] = None,
                 cache_size: int = 256,
                 build_extractor: bool = True,
                 selfcheck: bool = True,
                 quality: Optional[bool] = None,
                 quality_window: int = 512):
        bundle.validate()
        self.bundle = bundle
        info = bundle.info
        self.dim = int(info["dim"])
        self.num_classes = int(info["num_classes"])
        self.pipeline_name = str(info["pipeline"])
        self._encoder_type = str(info["encoder"]["type"])  # validated

        # -- the executable: one frozen stage graph --------------------
        graph = bundle.build_graph(build_extractor=build_extractor)
        # The float classify stage answers similarities() even when the
        # packed stage answers requests.
        self._classify = graph.stages[-1]
        if not isinstance(self._classify, ClassifyStage):
            raise BundleError(
                f"bundle graph must end in a classify stage, got "
                f"{type(self._classify).__name__}")
        refusal = packed_refusal(graph.stages)
        if use_packed and refusal is not None:
            raise BundleError(f"use_packed=True refused: {refusal}")
        self.use_packed = (refusal is None if use_packed is None
                           else bool(use_packed))
        self._packed_stage: Optional[PackedClassifyStage] = None
        if self.use_packed:
            self._packed_stage = PackedClassifyStage.from_classify(
                self._classify, name=self._classify.name)
            graph = StageGraph(graph.stages[:-1] + [self._packed_stage],
                               name=graph.name)
        self.graph = graph

        # Feature interface: the first stage after extract/flatten.
        first = graph.stages[0]
        self._has_front = isinstance(first, (ExtractStage, FlattenStage))
        names = graph.names
        self._feature_entry = names[1] if self._has_front else names[0]
        self._classify_name = names[-1]
        #: Raw features per row: the input width of the feature-entry
        #: (scale) stage, one μ/σ per feature — F, not the encoder's F̂
        #: when a manifold stage reduces in between.
        self.in_features = len(bundle.arrays["scaler.mean"])
        self.extractor = (first.extractor
                          if isinstance(first, ExtractStage) else None)

        self._cache = _EncodedLRU(cache_size) if cache_size > 0 else None

        # -- streaming drift monitor (training baseline in manifest) ---
        baseline_dict = info.get("quality_baseline")
        if quality is None:
            quality = baseline_dict is not None
        if quality and baseline_dict is None:
            raise BundleError(
                "quality=True but the bundle carries no quality_baseline "
                "section — re-export it with "
                "ModelBundle.from_pipeline(..., baseline_features=...)")
        self.quality: Optional[DriftMonitor] = None
        if quality:
            self.quality = DriftMonitor(
                QualityBaseline.from_dict(baseline_dict),
                window=quality_window)

        if selfcheck and self.use_packed:
            self.selfcheck()

    # ------------------------------------------------------------------
    @classmethod
    def from_path(cls, path: str, **kwargs: Any) -> "InferenceEngine":
        """Verify + load a bundle archive and build an engine on it."""
        return cls(ModelBundle.load(path, verify=True), **kwargs)

    @property
    def class_matrix(self) -> np.ndarray:
        """The frozen class-hypervector matrix this engine serves.

        Public read access for the online-learning layer, which seeds
        its shadow copy from (and evaluates the live model against)
        exactly the matrix the classify stage answers with.  Callers
        must treat it as immutable — the frozen stage caches the class
        norms at construction.
        """
        return self._classify.class_matrix

    # ------------------------------------------------------------------
    def encode_features(self, raw_features: np.ndarray) -> np.ndarray:
        """Query hypervectors for ``(n, F)`` raw features (LRU-cached).

        Executes the graph's ``scale → (reduce) → encode`` slice; the
        LRU sits in front of it, keyed per sample.
        """
        raw_features = np.atleast_2d(
            np.asarray(raw_features, dtype=np.float64))
        encoded = None  # the rows the LRU had; None when none did
        if self._cache is not None:
            keys = [hashlib.sha1(np.ascontiguousarray(row).tobytes())
                    .digest() for row in raw_features]
            encoded, misses = self._cache.get_many(keys)
            registry = get_registry()
            registry.inc("serve.cache.hits", len(keys) - len(misses))
            registry.inc("serve.cache.misses", len(misses))
            if encoded is not None and not misses:
                return encoded
        fresh_rows = raw_features if encoded is None else raw_features[misses]
        with span("serve.encode", nbytes=int(fresh_rows.nbytes)):
            fresh = self.graph.run(fresh_rows, start=self._feature_entry,
                                   stop=self._classify_name)
        if self._cache is not None:
            self._cache.put_many([keys[i] for i in misses], fresh)
        if encoded is None:
            return fresh
        encoded[misses] = fresh
        return encoded

    def similarities(self, encoded: np.ndarray) -> np.ndarray:
        """Cosine similarities from the frozen classify stage.

        Bit-exact with :func:`repro.learn.mass.normalized_similarity`
        (same canonical expression in
        :func:`repro.pipeline.cosine_similarities`); the clamped class
        norms are cached by the frozen stage — they are constant.
        """
        return self._classify.similarities(encoded)

    # ------------------------------------------------------------------
    def predict_features(self, raw_features: np.ndarray) -> np.ndarray:
        """Class predictions for ``(n, F)`` raw extractor features."""
        registry = get_registry()
        raw_features = np.atleast_2d(
            np.asarray(raw_features, dtype=np.float64))
        registry.inc("serve.requests")
        registry.inc("serve.samples", len(raw_features))
        with span("serve.predict", nbytes=int(raw_features.nbytes)):
            encoded = self.encode_features(raw_features)
            # The classify stage leaves the scores it ranked in ctx: the
            # drift monitor reads those instead of classifying again.
            ctx: Dict[str, np.ndarray] = {}
            labels = np.asarray(self.graph.run(
                encoded, start=self._classify_name, ctx=ctx))
            if self.quality is not None and len(labels):
                self._observe_quality(raw_features, labels, encoded,
                                      ctx["similarities"])
            return labels

    def _observe_quality(self, raw_features: np.ndarray,
                         labels: np.ndarray, encoded: np.ndarray,
                         similarities: np.ndarray) -> None:
        """Feed the drift monitor; a monitor bug must never fail serving."""
        try:
            with span("serve.quality",
                      nbytes=int(raw_features.nbytes)):
                self.quality.observe(raw_features, labels=labels,
                                     similarities=similarities,
                                     encoded=encoded)
        except Exception:
            get_registry().inc("quality.monitor_errors")

    def predict(self, images: np.ndarray) -> np.ndarray:
        """Class predictions for raw NCHW images (end-to-end)."""
        images = np.asarray(images)
        if not self._has_front:
            raise BundleError(
                "engine was built with build_extractor=False; "
                "use predict_features with precomputed features")
        raw = self.graph.run(images, stop=self._feature_entry)
        return self.predict_features(raw)

    def accuracy_features(self, raw_features: np.ndarray,
                          labels: np.ndarray) -> float:
        return float((self.predict_features(raw_features)
                      == np.asarray(labels)).mean())

    # ------------------------------------------------------------------
    def selfcheck(self, probes: int = 32, seed: int = 0) -> bool:
        """Prove the packed path agrees with the reference kernels.

        Draws random bipolar probe hypervectors and checks (1) the
        XOR-popcount classify stage returns the same labels as the float
        dot-product :func:`repro.hd.similarity.classify`, and (2) the
        frozen cosine classify stage agrees as well (for bipolar class
        matrices all three rank identically).  Raises
        :class:`EngineSelfCheckError` on any disagreement.
        """
        if not self.use_packed:
            return True
        rng = fresh_rng((seed, "serve-selfcheck"))
        hvs = np.where(rng.random((probes, self.dim)) < 0.5, -1.0, 1.0)
        got = self._packed_stage(hvs)
        want_dot = classify(self.class_matrix, hvs, metric="dot")
        want_cos = np.asarray(self._classify(hvs))
        if not np.array_equal(got, want_dot):
            raise EngineSelfCheckError(
                f"packed XOR-popcount disagrees with float dot on "
                f"{int((got != want_dot).sum())}/{probes} probes")
        if not np.array_equal(got, want_cos):
            raise EngineSelfCheckError(
                f"packed XOR-popcount disagrees with the cosine path on "
                f"{int((got != want_cos).sum())}/{probes} probes")
        return True

    # ------------------------------------------------------------------
    def cache_info(self) -> Dict[str, int]:
        if self._cache is None:
            return {"entries": 0, "hits": 0, "misses": 0, "max_entries": 0}
        return self._cache.info()

    def describe(self) -> Dict[str, Any]:
        """Engine facts for /healthz and logs."""
        return {
            "pipeline": self.pipeline_name,
            "dim": self.dim,
            "num_classes": self.num_classes,
            "packed": self.use_packed,
            "encoder": self._encoder_type,
            "graph": self.graph.describe(),
            "has_extractor": self.extractor is not None,
            "has_manifold": "reduce" in self.graph,
            "cache": self.cache_info(),
            "quality": (None if self.quality is None
                        else self.quality.describe()),
            "config_fingerprint": self.bundle.info.get(
                "config_fingerprint"),
        }

    def __repr__(self) -> str:
        return (f"InferenceEngine({self.pipeline_name}, dim={self.dim}, "
                f"classes={self.num_classes}, packed={self.use_packed})")
