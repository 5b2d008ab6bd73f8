"""The serving inference engine: a thin executor over a frozen StageGraph.

:class:`InferenceEngine` serves a :class:`repro.serve.bundle.ModelBundle`
by executing the bundle's :class:`repro.pipeline.StageGraph`
(``bundle.build_graph()``) — the *same* stage implementations the
training pipelines run, so predictions are bit-exact with
``pipeline.predict`` by construction rather than by replication.  The
engine itself contains **no stage math**: no scaling, no manifold
reduction, no encoding, no similarity expressions — it adds exactly the
serving concerns:

* an LRU cache that memoizes the encoded rows of each sample, so
  repeated queries skip the projection GEMM entirely
  (``serve.cache.hits`` / ``serve.cache.misses``).  It is keyed by one
  vectorized 64-bit hash per raw feature row and exact: a hit needs the
  stored raw row to equal the query bit for bit;
* the drift monitor's feed: the rows at the bundle baseline's tap (the
  raw input, or the reduce stage's output, which the graph's
  ``scale → reduce`` slice hands to ``encode`` and the LRU stores beside
  each encoding), the served labels and the classify stage's scores;
* the ``use_packed`` switch onto a graph that is **packed end to end**
  wherever :func:`repro.pipeline.packed_refusal` allows it: the encode
  stage's :meth:`~repro.pipeline.EncodeStage.packed` copy emits each
  query as ``uint64`` sign words, the LRU stores those words, and the
  XOR-popcount :class:`~repro.pipeline.PackedClassifyStage` scores them;
* a load-time :meth:`selfcheck` proving the packed encode and classify
  stages agree with the float reference kernels on random probes;
* request/sample counters and ``serve.*`` spans for the telemetry layer.

Every bundle is served through the same code path:
:meth:`ModelBundle.build_graph` builds the frozen stages from the
provenance fields :meth:`ModelBundle.validate` checks, so a bundle that
fails either is refused with :class:`BundleError` before it serves.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..hd.backend import pack_bipolar, pack_signs
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


#: Seeds the fixed odd multipliers of the LRU's row hash.
_HASH_SEED = 0x5EED_1A55


class _EncodedLRU:
    """Thread-safe LRU of encoded rows, exact on the raw feature bytes.

    A row's key is one 64-bit hash, computed for a whole batch at once:
    a multiply-and-sum, modulo 2**64, of the ``uint64`` view of its
    ``width`` raw float64 values with fixed odd multipliers, plus one of
    the words' high 32-bit halves with a second set.  A product moves
    only the bits at and above the multiplied bit, so without the
    second sum a sign bit would reach only the key's top bit, and rows
    differing in an even number of signs (``0.0`` and ``-0.0`` rows, for
    one) would share a key.

    Each entry keeps its raw row beside its encoding, and a lookup hits
    only when that row equals the query word for word: a hash collision
    costs a miss, never a wrong encoding.  Rows with the same NaN bits
    hit.  Raw and encoded rows live in one ``(max_entries, ·)`` array each;
    the ordered map holds each key's row slot.  With ``keep_taps`` each
    entry also keeps the row the drift monitor reads (the reduce stage's
    output), so a hit feeds the monitor what a miss would.  A batch
    takes one lock for its lookups and one for its stores, and leaves
    the LRU as if its rows were looked up, then stored, one at a
    time."""

    def __init__(self, max_entries: int, width: int,
                 keep_taps: bool = False):
        self.max_entries = int(max_entries)
        self.width = int(width)
        self.keep_taps = bool(keep_taps)
        rng = np.random.default_rng(_HASH_SEED)
        self._low, self._high = rng.integers(
            0, 2 ** 64, size=(2, self.width), dtype=np.uint64) | np.uint64(1)
        self._slots: "OrderedDict[int, int]" = OrderedDict()
        self._raw: Optional[np.ndarray] = None
        self._rows: Optional[np.ndarray] = None
        self._taps: Optional[np.ndarray] = None
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def keys(self, raw: np.ndarray) -> List[int]:
        """One key per row of an ``(n, width)`` ``uint64`` view."""
        return (raw @ self._low
                + (raw >> np.uint64(32)) @ self._high).tolist()

    def get_many(self, keys: List[int], raw: np.ndarray
                 ) -> Tuple[Optional[np.ndarray], Optional[np.ndarray],
                            List[int]]:
        """``(encoded, taps, misses)``: ``(n, ·)`` arrays holding every
        hit row's encoding and, with ``keep_taps``, its tapped row (None
        when nothing hit, or no taps are kept), and the positions that
        missed."""
        with self._lock:
            slots = [self._slots.get(key) for key in keys]
            found = [i for i, slot in enumerate(slots) if slot is not None]
            hit_pos = []
            if found:
                same = (self._raw[[slots[i] for i in found]]
                        == raw[found]).all(axis=1)
                hit_pos = [i for i, equal in zip(found, same.tolist())
                           if equal]
            for i in hit_pos:
                self._slots.move_to_end(keys[i])
            self.hits += len(hit_pos)
            self.misses += len(keys) - len(hit_pos)
            if not hit_pos:
                return None, None, list(range(len(keys)))
            # Copies, taken under the lock.
            hit_slots = [slots[i] for i in hit_pos]
            found = [self._rows[hit_slots]]
            if self.keep_taps:
                found.append(self._taps[hit_slots])
        misses: List[int] = []
        if len(hit_pos) < len(keys):
            hit = np.zeros(len(keys), dtype=bool)
            hit[hit_pos] = True
            for k, rows in enumerate(found):
                found[k] = np.empty((len(keys), rows.shape[1]),
                                    dtype=rows.dtype)
                found[k][hit] = rows
            misses = np.flatnonzero(~hit).tolist()
        return found[0], found[1] if self.keep_taps else None, misses

    def put_many(self, keys: List[int], raw: np.ndarray,
                 rows: np.ndarray, taps: Optional[np.ndarray] = None
                 ) -> None:
        """Store ``rows[j]`` (and ``taps[j]``, with ``keep_taps``) for raw
        row ``raw[j]`` under ``keys[j]``, in order."""
        writes: Dict[int, int] = {}  # slot -> row; a later row wins
        with self._lock:
            if self._rows is None:
                self._raw = np.empty((self.max_entries, self.width),
                                     dtype=np.uint64)
                self._rows = np.empty((self.max_entries, rows.shape[1]),
                                      dtype=rows.dtype)
                if self.keep_taps:
                    self._taps = np.empty((self.max_entries, taps.shape[1]),
                                          dtype=taps.dtype)
            for j, key in enumerate(keys):
                slot = self._slots.pop(key, None)  # re-inserted at the end
                if slot is None:
                    slot = len(self._slots)
                    if slot == self.max_entries:  # full: reuse the oldest's
                        slot = self._slots.popitem(last=False)[1]
                self._slots[key] = slot
                writes[slot] = j
            dest = list(writes)
            src = (slice(None) if len(writes) == len(keys)
                   else list(writes.values()))
            self._raw[dest] = raw[src]
            self._rows[dest] = rows[src]
            if self.keep_taps:
                self._taps[dest] = taps[src]

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
        Run the graph packed end to end — sign-word encode, XOR-popcount
        classify — (True) or encode to floats and classify with the
        float cosine stage (False); default ``None`` packs exactly where
        :func:`~repro.pipeline.packed_refusal` finds no reason not to.
        True on a graph it refuses raises :class:`BundleError`.
    cache_size:
        LRU capacity (entries) for encoded rows; 0 disables.
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
        without a baseline raises :class:`BundleError`.  The monitor
        reads the rows at the baseline's tap: the reduce stage's output
        for a baseline captured there, the raw features otherwise.
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
            graph = StageGraph(graph.stages[:-2] + [
                graph.stages[-2].packed(), self._packed_stage],
                name=graph.name)
        self.graph = graph

        # Feature interface: the first stage after extract/flatten.
        first = graph.stages[0]
        self._has_front = isinstance(first, (ExtractStage, FlattenStage))
        names = graph.names
        self._feature_entry = names[1] if self._has_front else names[0]
        self._encode_name, self._classify_name = names[-2:]
        #: Raw features per row: the input width of the feature-entry
        #: (scale) stage, one μ/σ per feature — F, not the encoder's F̂
        #: when a manifold stage reduces in between.
        self.in_features = len(bundle.arrays["scaler.mean"])
        self.extractor = (first.extractor
                          if isinstance(first, ExtractStage) else None)

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
        # The monitor reads the reduce stage's output (validate() checked
        # the bundle has one) rather than the raw rows.
        self._watch_reduce = (self.quality is not None
                              and self.quality.baseline.tap == "reduce")

        self._cache = (_EncodedLRU(cache_size, self.in_features,
                                   keep_taps=self._watch_reduce)
                       if cache_size > 0 else None)

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
    def encode_features(self, raw_features: np.ndarray,
                        ctx: Optional[Dict[str, np.ndarray]] = None
                        ) -> np.ndarray:
        """The classify stage's input for ``(n, F)`` raw features.

        Executes the graph as two slices, ``scale → (reduce)`` and
        ``encode``; the LRU sits in front of them, keyed per sample.  On
        a packed engine (:attr:`use_packed`) each row is ``ceil(D/64)``
        ``uint64`` sign words, and ``unpack_bipolar(words, engine.dim)``
        gives the ±1 hypervectors; otherwise each row is the encoder's
        ``D`` floats.  When the drift monitor watches the reduce output
        and ``ctx`` is given, ``ctx["reduced"]`` receives those
        ``(n, F̂)`` rows, from the LRU for the rows that hit.
        """
        raw_features = np.atleast_2d(
            np.asarray(raw_features, dtype=np.float64))
        cache = self._cache
        if cache is not None and raw_features.shape[1] != cache.width:
            cache = None  # no stored row can equal these
        encoded = reduced = None  # the rows the LRU had; None when none did
        misses: List[int] = []
        if cache is not None:
            words = np.ascontiguousarray(raw_features).view(np.uint64)
            keys = cache.keys(words)
            encoded, reduced, misses = cache.get_many(keys, words)
            registry = get_registry()
            registry.inc("serve.cache.hits", len(keys) - len(misses))
            registry.inc("serve.cache.misses", len(misses))
        if encoded is None or misses:
            fresh_rows = (raw_features if encoded is None
                          else raw_features[misses])
            with span("serve.encode", nbytes=int(fresh_rows.nbytes)):
                mid = self.graph.run(fresh_rows, start=self._feature_entry,
                                     stop=self._encode_name)
                fresh = self.graph.run(mid, start=self._encode_name,
                                       stop=self._classify_name)
            taps = mid if self._watch_reduce else None
            if cache is not None:
                if encoded is None:
                    cache.put_many(keys, words, fresh, taps)
                else:
                    cache.put_many([keys[i] for i in misses],
                                   words[misses], fresh, taps)
            if encoded is None:
                encoded, reduced = fresh, taps
            else:
                encoded[misses] = fresh
                if taps is not None:
                    reduced[misses] = taps
        if ctx is not None and reduced is not None:
            ctx["reduced"] = reduced
        return encoded

    def similarities(self, encoded: np.ndarray) -> np.ndarray:
        """Cosine similarities of float hypervectors ``(n, D)`` from the
        frozen classify stage (unpack a packed engine's
        :meth:`encode_features` words first).

        Bit-exact with training's δ: both run
        :func:`repro.hd.similarity.cosine_similarity`; the clamped class
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
            # encode_features leaves the reduce output in ctx when the
            # monitor watches it, and the classify stage the scores it
            # ranked: the monitor reads those instead of computing again.
            ctx: Dict[str, np.ndarray] = {}
            encoded = self.encode_features(raw_features, ctx)
            labels = np.asarray(self.graph.run(
                encoded, start=self._classify_name, ctx=ctx))
            if self.quality is not None and len(labels):
                self._observe_quality(ctx.get("reduced", raw_features),
                                      labels, encoded, ctx["similarities"])
            return labels

    def _observe_quality(self, watched: np.ndarray,
                         labels: np.ndarray, encoded: np.ndarray,
                         similarities: np.ndarray) -> None:
        """Feed the drift monitor the rows at its baseline's tap; a
        monitor bug must never fail serving."""
        try:
            with span("serve.quality", nbytes=int(watched.nbytes)):
                self.quality.observe(watched, labels=labels,
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
        XOR-popcount classify stage, fed the probes packed with
        :func:`~repro.hd.backend.pack_bipolar`, returns the same labels
        as the float dot-product :func:`repro.hd.similarity.classify`,
        and (2) the
        frozen cosine classify stage agrees as well (for bipolar class
        matrices all three rank identically).  It then checks (3) the
        packed encode stage's words equal ``pack_signs(encode_raw(x) >=
        0)`` on random feature rows plus a planted exact tie, a zero row
        and a row scaled by 2⁻¹²⁰ (near float32's underflow).  Raises
        :class:`EngineSelfCheckError` on any disagreement.
        """
        if not self.use_packed:
            return True
        rng = fresh_rng((seed, "serve-selfcheck"))
        self._selfcheck_encode(rng, probes)
        hvs = np.where(rng.random((probes, self.dim)) < 0.5, -1.0, 1.0)
        got = self._packed_stage(pack_bipolar(hvs))
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

    def _selfcheck_encode(self, rng: np.random.Generator,
                          probes: int) -> None:
        """Random rows and one scaled by 2⁻¹²⁰ (near float32's
        underflow), which the float32 GEMM decides, then a zero row and
        a planted exact tie, which send their call to the float64 one."""
        encode = self.graph.stage(self._encode_name)
        encoder = encode.encoder
        rows = rng.standard_normal((probes // 4 + 1, encoder.in_features))
        rows[-1] *= 2.0 ** -120
        ties = np.zeros((2, encoder.in_features))
        ties[1, :2] = 1.0  # v = 0 wherever P's first two rows differ
        for batch in (rows, ties):
            got = encode(batch)
            want = pack_signs(encoder.encode_raw(batch) >= 0)
            if not np.array_equal(got, want):
                bad = int((got != want).any(axis=1).sum())
                raise EngineSelfCheckError(
                    f"packed encode disagrees with sign(encode_raw) on "
                    f"{bad}/{len(batch)} feature rows")

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
