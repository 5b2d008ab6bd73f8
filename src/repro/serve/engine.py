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
* the ``use_packed`` switch onto the compiler's **bit-packed
  XOR-popcount** ``packed`` classify executor — whether it may run, and
  whether ``"auto"`` picks it, is decided by
  :func:`repro.pipeline.compile_graph` alone;
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
from typing import Any, Dict, Optional

import numpy as np

from ..hd.similarity import classify
from ..pipeline import (ClassifyStage, CompileError, ExtractStage,
                        FlattenStage, auto_executors, compile_graph)
from ..telemetry import get_registry, span
from ..telemetry.quality import DriftMonitor, QualityBaseline
from ..utils.rng import fresh_rng
from .bundle import BundleError, ModelBundle

__all__ = ["InferenceEngine", "EngineSelfCheckError"]


class EngineSelfCheckError(RuntimeError):
    """The packed fast path disagreed with the reference kernel."""


class _EncodedLRU:
    """Thread-safe LRU of encoded hypervectors keyed by feature digest."""

    def __init__(self, max_entries: int):
        self.max_entries = int(max_entries)
        self._data: "OrderedDict[bytes, np.ndarray]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: bytes) -> Optional[np.ndarray]:
        with self._lock:
            value = self._data.get(key)
            if value is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return value

    def put(self, key: bytes, value: np.ndarray) -> None:
        with self._lock:
            self._data[key] = value
            self._data.move_to_end(key)
            while len(self._data) > self.max_entries:
                self._data.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def info(self) -> Dict[str, int]:
        with self._lock:
            return {"entries": len(self._data), "hits": self.hits,
                    "misses": self.misses,
                    "max_entries": self.max_entries}


class InferenceEngine:
    """Cache-accelerated StageGraph executor over a frozen model bundle.

    Parameters
    ----------
    bundle:
        A validated :class:`ModelBundle` (``validate()`` is called here).
    use_packed:
        Pin the classify executor to ``packed`` (True) or ``numpy``
        (False); default ``None`` keeps an explicit classify executor
        and otherwise takes the compiler's ``"auto"`` pick.  A packed
        request the compiler refuses raises :class:`BundleError`.
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
    passes:
        Compile passes to apply to the frozen graph: ``"all"``,
        ``"none"``, or a list of registered pass names.  Default
        ``None`` uses the bundle's persisted plan
        (``info["compile"]``); pre-compile bundles default to none.
    executors:
        Executor assignment: ``"auto"``, a ``{stage name → executor
        name}`` map, or ``None`` for the bundle's plan.  Its classify
        entry yields to an explicit ``use_packed``.
    """

    def __init__(self, bundle: ModelBundle,
                 use_packed: Optional[bool] = None,
                 cache_size: int = 256,
                 build_extractor: bool = True,
                 selfcheck: bool = True,
                 quality: Optional[bool] = None,
                 quality_window: int = 512,
                 passes=None,
                 executors=None):
        bundle.validate()
        self.bundle = bundle
        info = bundle.info
        self.dim = int(info["dim"])
        self.num_classes = int(info["num_classes"])
        self.pipeline_name = str(info["pipeline"])
        self._encoder_type = str(info["encoder"]["type"])  # validated

        # -- the executable: one frozen stage graph --------------------
        base = bundle.build_graph(build_extractor=build_extractor)
        plan = bundle.compile_plan()
        if passes is None:
            passes = list(plan.passes)
        if executors is None:
            executors = plan.executors
        classify_stage = base.stages[-1]
        if not isinstance(classify_stage, ClassifyStage):
            raise BundleError(
                f"bundle graph must end in a classify stage, got "
                f"{type(classify_stage).__name__}")

        # -- classify executor: use_packed pins it, else compile decides
        exec_map = (dict(executors) if isinstance(executors, dict)
                    else {})
        if use_packed is not None:
            exec_map[classify_stage.name] = ("packed" if use_packed
                                             else "numpy")
        elif classify_stage.name not in exec_map:
            exec_map.update(auto_executors(base))

        try:
            result = compile_graph(base, passes=passes,
                                   executors=exec_map)
        except CompileError as exc:
            raise BundleError(f"bundle graph failed to compile: "
                              f"{exc}") from exc
        self.graph = result.graph
        self.compile_passes = list(result.passes_applied)
        self.executor_plan = dict(result.executor_plan)

        # The float classify stage (for similarities / drift monitor)
        # and, when bound, the packed stage answering requests.
        classify_exec = self.graph.stages[-1]
        self._classify = getattr(classify_exec, "inner", classify_exec)
        self._packed_stage = getattr(classify_exec, "packed", None)
        self.use_packed = self._packed_stage is not None

        # Feature interface: the first stage after extract/flatten (the
        # fuse passes may have renamed or removed interior stages).
        first = self.graph.stages[0]
        first_inner = getattr(first, "inner", first)
        self._has_front = isinstance(first_inner,
                                     (ExtractStage, FlattenStage))
        names = self.graph.names
        self._feature_entry = names[1] if self._has_front else names[0]
        self._classify_name = names[-1]
        #: Raw features per row: the input width of the feature-entry
        #: (scale) stage, one μ/σ per feature — F, not the encoder's F̂
        #: when a manifold stage reduces in between.
        self.in_features = len(bundle.arrays["scaler.mean"])
        self.extractor = (first_inner.extractor
                          if isinstance(first_inner, ExtractStage)
                          else None)

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
        registry = get_registry()
        if self._cache is None:
            with span("serve.encode", nbytes=int(raw_features.nbytes)):
                return self.graph.run(raw_features,
                                      start=self._feature_entry,
                                      stop=self._classify_name)

        keys = [hashlib.sha1(np.ascontiguousarray(row).tobytes()).digest()
                for row in raw_features]
        encoded = np.empty((len(raw_features), self.dim), dtype=np.float64)
        miss_idx = []
        for i, key in enumerate(keys):
            hit = self._cache.get(key)
            if hit is None:
                miss_idx.append(i)
            else:
                encoded[i] = hit
        registry.inc("serve.cache.hits", len(keys) - len(miss_idx))
        registry.inc("serve.cache.misses", len(miss_idx))
        if miss_idx:
            misses = raw_features[miss_idx]
            with span("serve.encode", nbytes=int(misses.nbytes)):
                fresh = self.graph.run(misses,
                                       start=self._feature_entry,
                                       stop=self._classify_name)
            for j, i in enumerate(miss_idx):
                encoded[i] = fresh[j]
                self._cache.put(keys[i], fresh[j].copy())
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
            labels = np.asarray(self.graph.run(
                encoded, start=self._classify_name))
            if self.quality is not None:
                self._observe_quality(raw_features, labels, encoded)
            return labels

    def _observe_quality(self, raw_features: np.ndarray,
                         labels: np.ndarray,
                         encoded: np.ndarray) -> None:
        """Feed the drift monitor; a monitor bug must never fail serving."""
        try:
            with span("serve.quality",
                      nbytes=int(raw_features.nbytes)):
                sims = self._classify.similarities(encoded)
                self.quality.observe(raw_features, labels=labels,
                                     similarities=sims, encoded=encoded)
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
            "compile": {"passes": list(self.compile_passes),
                        "executors": dict(self.executor_plan)},
            "quality": (None if self.quality is None
                        else self.quality.describe()),
            "config_fingerprint": self.bundle.info.get(
                "config_fingerprint"),
        }

    def __repr__(self) -> str:
        return (f"InferenceEngine({self.pipeline_name}, dim={self.dim}, "
                f"classes={self.num_classes}, packed={self.use_packed})")
