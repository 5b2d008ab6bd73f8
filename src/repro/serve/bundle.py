"""Versioned, frozen model bundles for the serving layer.

A :class:`ModelBundle` is the deployment artifact of a trained pipeline
(:class:`repro.learn.NSHD` / ``BaselineHD`` / ``VanillaHD``): every array
inference needs — CNN trunk weights up to the cut, manifold FC,
projection (or nonlinear basis), class hypervectors, scaler statistics —
captured into a single atomic, CRC-verified archive
(:mod:`repro.nn.serialize`) together with a JSON provenance block (git
SHA, config fingerprint, creation time) stored as the ``"bundle"``
manifest section.  The block's ``extractor``, ``manifold`` and
``encoder`` fields are the only description of the model's stages:
:meth:`ModelBundle.validate` checks the arrays against them, and
:meth:`ModelBundle.build_graph` builds the served stage graph from them.

Bundles are *frozen*: they carry no optimizer state, no RNG state, no
training history — exactly the inference closure and nothing else.
``binarize=True`` at export time hard-quantizes the class hypervectors
to bipolar form, enabling the engine's bit-packed XOR-popcount fast path
(Schmuck-style dense binary HD inference).

Stored layout.  Version 2 (written by :meth:`ModelBundle.save`) holds
the model the paper's Table II counts:

* only the trunk up to the cut, ``model.features.{0..k}.*`` with ``k``
  the extractor's ``layer_index``; the teacher's later layers and
  classifier are not exported;
* every array the provenance declares ±1 — a random projection's
  ``encoder.projection``, and ``classes`` when ``binarized`` — as
  ``np.packbits(a > 0, axis=1)`` under ``<name>.bits`` (``uint8``);
  ``save`` refuses an array that is not exactly ±1.

:meth:`ModelBundle.load` checks every stored member's CRC, then unpacks
each ``.bits`` member to the float64 ±1 array under its plain name, so
everything after ``load`` sees one in-memory layout.  Version 1 stored
the whole CNN and every array as float; it still loads, and
:meth:`ModelBundle.build_graph` reads only the trunk of either.  A
reader refuses a bundle of a newer version by name.

:meth:`ModelBundle.verify` re-reads an archive with CRC enforcement and
structurally validates the arrays against the provenance block, so a
serving process can refuse a torn or mismatched artifact before it ever
answers a request.

Older exports may carry a stored stage topology (``info["graph"]``) and
a compile plan (``info["compile"]``).  Both are ignored: the topology
only repeated the provenance fields, and every pass a plan could name
left the predicted labels unchanged.
"""

from __future__ import annotations

import copy
import time
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..hd.encoders import NonlinearEncoder, RandomProjectionEncoder
from ..hd.hypervector import hard_quantize, is_bipolar
from ..nn.serialize import (CheckpointError, load_state_with_manifest,
                            manifest_section, save_state)
from ..pipeline import (ClassifyStage, EncodeStage, ExtractStage,
                        FeatureScaler, FlattenStage, ManifoldReduceStage,
                        ScaleStage, Stage, StageGraph)
from ..telemetry import encode_non_finite, non_finite_hook
from ..telemetry.quality import QualityBaseline

__all__ = ["BUNDLE_VERSION", "BUNDLE_SECTION", "BundleError", "ModelBundle"]

#: Current bundle schema version (bumped on incompatible layout changes).
BUNDLE_VERSION = 2

#: Suffix of a stored member holding a ±1 array as packed sign bits.
_BITS = ".bits"

#: Prefix of the CNN trunk arrays (``model.features.<i>.<param>``), the
#: names :meth:`ExtractStage.state_arrays` exports.
_TRUNK = "model.features."

#: Manifest section name carrying the bundle provenance block.
BUNDLE_SECTION = "bundle"


class BundleError(RuntimeError):
    """A model bundle is missing, malformed, or incompatible."""


def _bipolar_shapes(info: Dict[str, Any]) -> Dict[str, Tuple[int, int]]:
    """The arrays the provenance declares ±1, with their shapes."""
    dim = int(info["dim"])
    shapes = {}
    enc = info.get("encoder") or {}
    if enc.get("type") == "random_projection":
        shapes["encoder.projection"] = (int(enc.get("in_features", 0)), dim)
    if info.get("binarized"):
        shapes["classes"] = (int(info["num_classes"]), dim)
    return shapes


class ModelBundle:
    """Frozen inference artifact: arrays + JSON provenance ``info``.

    Construct via :meth:`from_pipeline` (export) or :meth:`load`
    (deserialize); the raw constructor is for tests and tools that
    already hold a validated ``(arrays, info)`` pair.
    """

    def __init__(self, arrays: Dict[str, np.ndarray],
                 info: Dict[str, Any]):
        self.arrays = dict(arrays)
        self.info = dict(info)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    @classmethod
    def from_pipeline(cls, pipeline, config: Optional[Dict[str, Any]] = None,
                      binarize: bool = False,
                      baseline_features: Optional[np.ndarray] = None,
                      baseline_labels: Optional[np.ndarray] = None,
                      baseline_sample: int = 2048) -> "ModelBundle":
        """Capture a trained pipeline's inference closure.

        Parameters
        ----------
        pipeline:
            A *fitted* NSHD / BaselineHD / VanillaHD instance.
        config:
            The run configuration to fingerprint into the provenance
            block (free-form JSON-serializable dict).
        binarize:
            Hard-quantize the class hypervectors to bipolar ±1 at export
            time.  This is what unlocks the engine's bit-packed
            XOR-popcount path; for an already-bipolar class matrix it is
            a no-op.
        baseline_features:
            Training features at the *scale-stage input* (the same
            representation :meth:`InferenceEngine.predict_features`
            receives).  When given, a :class:`~repro.telemetry.quality.
            QualityBaseline` — per-feature mean/std/decile sketches,
            class priors, train margin/confidence quantiles — is
            captured into ``info["quality_baseline"]`` so the serving
            engine can run streaming drift monitors against it (see
            :meth:`capture_baseline`).  The input is the same either
            way, but the sketch is taken where the model reads: at the
            reduce stage's output (the F̂ manifold features) when the
            pipeline has one, at the raw input otherwise.
        baseline_labels:
            Training labels aligned with ``baseline_features`` (class
            priors).  Defaults to the pipeline's own predictions.
        baseline_sample:
            Deterministic (evenly spaced) subsample cap applied to the
            baseline rows; the sketches only need O(1k) rows.  Each
            feature is sketched in :data:`~repro.telemetry.quality.
            DEFAULT_BINS` PSI bins.
        """
        scaler = getattr(pipeline, "scaler", None)
        if scaler is None or scaler.mean is None:
            raise BundleError(
                "pipeline has no fitted FeatureScaler — bundle export "
                "requires a trained pipeline (call fit first)")
        trainer = getattr(pipeline, "trainer", None)
        if trainer is None or not np.any(trainer.class_matrix):
            raise BundleError(
                "pipeline has an uninitialized class-hypervector matrix — "
                "bundle export requires a trained pipeline")
        graph: Optional[StageGraph] = getattr(pipeline, "graph", None)
        if graph is None:
            raise BundleError(
                "pipeline has no StageGraph — bundle export requires a "
                "graph-building pipeline (NSHD / BaselineHD / VanillaHD)")

        # The provenance helpers run at export and promotion only.
        from ..telemetry.ledger import config_fingerprint, git_info

        # The graph's per-stage arrays (historical flat key names) are
        # the payload, and its extract, reduce and encode stages describe
        # themselves in the provenance fields build_graph() reads back.
        arrays: Dict[str, np.ndarray] = dict(graph.state_arrays())

        info: Dict[str, Any] = {
            "bundle_version": BUNDLE_VERSION,
            "pipeline": type(pipeline).__name__,
            "dim": int(pipeline.dim),
            "num_classes": int(pipeline.num_classes),
            "created_at": float(time.time()),
            "git": git_info(),
            "config": dict(config or {}),
            "config_fingerprint": config_fingerprint(dict(config or {})),
            "binarized": bool(binarize),
            "encoder": graph.stage("encode").spec(),
        }
        if "extract" in graph:
            info["extractor"] = graph.stage("extract").spec()
        else:
            info["extractor"] = None
            info["image_size"] = int(getattr(pipeline, "num_features", 0))
        info["manifold"] = (graph.stage("reduce").spec()
                            if "reduce" in graph else None)

        classes = np.asarray(arrays.pop("classes"), dtype=np.float64)
        arrays["classes"] = hard_quantize(classes) if binarize else classes

        info["arrays"] = sorted(arrays)
        bundle = cls(arrays, info)
        # -- training quality baseline (drift-monitor reference) -------
        if baseline_features is not None:
            bundle.capture_baseline(baseline_features, baseline_labels,
                                    sample=baseline_sample)
        return bundle

    def capture_baseline(self, features: np.ndarray,
                         labels: Optional[np.ndarray] = None,
                         sample: int = 2048) -> None:
        """Sketch the training distribution into
        ``info["quality_baseline"]`` for streaming drift checks.

        ``features`` are scale-stage inputs.  A deterministic subsample
        runs through this bundle's own frozen graph: scale → reduce,
        whose output is sketched (tap ``"reduce"``), then encode →
        classify, whose similarities give the margin/confidence
        quantiles and, when ``labels`` is None, the class priors.  A
        graph without a reduce stage is sketched at the raw input (tap
        ``"input"``).  So the baseline describes exactly the closure the
        bundle ships, binarized classes included, not the live training
        objects.
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        if labels is not None:
            labels = np.asarray(labels).reshape(-1)
            if labels.shape[0] != features.shape[0]:
                raise BundleError(
                    f"baseline_labels has {labels.shape[0]} rows but "
                    f"baseline_features has {features.shape[0]}")
        if sample and features.shape[0] > sample:
            # Evenly spaced subsample: deterministic, order-preserving,
            # and unbiased for shuffled training sets.
            idx = np.linspace(0, features.shape[0] - 1, int(sample))
            idx = np.unique(idx.astype(np.intp))
            features = features[idx]
            if labels is not None:
                labels = labels[idx]
        graph = self.build_graph(build_extractor=False)
        tap = "reduce" if "reduce" in graph else "input"
        watched = graph.run(features, start="scale", stop="encode")
        encoded = graph.run(watched, start="encode", stop="classify")
        sims = graph.stage("classify").similarities(encoded)
        self.info["quality_baseline"] = QualityBaseline.from_training(
            watched if tap == "reduce" else features, labels=labels,
            num_classes=int(self.info["num_classes"]),
            similarities=np.asarray(sims), tap=tap).to_dict()

    # ------------------------------------------------------------------
    # Online promotion (shadow → live derivation)
    # ------------------------------------------------------------------
    def promoted(self, class_matrix: np.ndarray,
                 generation: int = 1,
                 feedback_count: int = 0,
                 class_priors: Optional[np.ndarray] = None) -> "ModelBundle":
        """Derive a version-bumped child bundle with a new class matrix.

        The online-learning promotion path: everything except the class
        hypervectors (extractor, manifold, encoder, scaler, feature
        sketches) is inherited from this bundle, the ``classes`` payload
        is replaced with the shadow matrix, and the provenance gains an
        ``info["online"]`` block plus a *new* config fingerprint (so
        ``/predict`` responses and reload summaries distinguish the
        generations).  The matrix may have **more rows** than the
        parent — class-incremental arrival — but never fewer, and the
        dimensionality must match.

        For a ``binarized`` parent the new matrix is re-quantized with
        :func:`~repro.hd.hypervector.hard_quantize` so the packed
        XOR-popcount path stays available; rows that were not touched
        by feedback stay bit-exact (``hard_quantize`` is the identity
        on ±1 rows).

        ``class_priors`` recomputes the quality-baseline class priors
        (required reading for class-incremental growth: the frozen
        training priors give a brand-new class zero mass, which would
        read as permanent prediction skew on ``/driftz``).  When the
        parent has a baseline and the label space grew, priors become
        **mandatory** — refusing to export is better than exporting a
        baseline that always fires.
        """
        from ..telemetry.ledger import config_fingerprint

        classes = np.atleast_2d(np.asarray(class_matrix,
                                           dtype=np.float64))
        parent_k = int(self.info["num_classes"])
        dim = int(self.info["dim"])
        if classes.shape[1] != dim:
            raise BundleError(
                f"promoted class matrix has dim {classes.shape[1]}, "
                f"bundle encodes into dim {dim}")
        if classes.shape[0] < parent_k:
            raise BundleError(
                f"promoted class matrix has {classes.shape[0]} classes, "
                f"fewer than the parent's {parent_k} — class removal is "
                "not a promotion")
        if not np.isfinite(classes).all():
            raise BundleError("promoted class matrix contains NaN/Inf")
        if self.info.get("binarized"):
            classes = hard_quantize(classes)

        arrays = dict(self.arrays)
        arrays["classes"] = classes
        info = copy.deepcopy(self.info)
        info["num_classes"] = int(classes.shape[0])

        baseline_dict = info.get("quality_baseline")
        if class_priors is not None:
            if baseline_dict is None:
                raise BundleError(
                    "class_priors given but the parent bundle carries "
                    "no quality_baseline section")
            baseline = QualityBaseline.from_dict(baseline_dict)
            info["quality_baseline"] = \
                baseline.with_class_priors(class_priors).to_dict()
        elif baseline_dict is not None \
                and classes.shape[0] != parent_k:
            raise BundleError(
                "class-incremental promotion of a baselined bundle "
                "requires recomputed class_priors — the training "
                "priors give the new class zero mass and /driftz "
                "prediction skew would fire permanently")

        parent_fingerprint = info.get("config_fingerprint")
        online = {
            "generation": int(generation),
            "parent_fingerprint": parent_fingerprint,
            "feedback_count": int(feedback_count),
            "promoted_at": float(time.time()),
            "classes_added": int(classes.shape[0] - parent_k),
        }
        info["online"] = online
        info["created_at"] = float(time.time())
        info["config_fingerprint"] = config_fingerprint({
            "config": info.get("config", {}),
            "online_generation": int(generation),
            "parent": parent_fingerprint,
            "num_classes": int(classes.shape[0]),
        })
        info["arrays"] = sorted(arrays)
        child = ModelBundle(arrays, info)
        child.validate()
        return child

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Atomically write the bundle archive (CRC manifest included).

        Writes the version-2 layout: each array the provenance declares
        ±1 is stored as packed bits under ``<name>.bits``.  An array
        that is not exactly ±1 is refused with :class:`BundleError`
        rather than rounded.
        """
        arrays = dict(self.arrays)
        for name in _bipolar_shapes(self.info):
            if name not in arrays:
                continue
            value = np.asarray(arrays.pop(name))
            if value.ndim != 2 or not is_bipolar(value):
                raise BundleError(
                    f"{name} is not a 2-D array of -1 and +1, so it "
                    "cannot be stored as bits")
            arrays[name + _BITS] = np.packbits(value > 0, axis=1)
        # An older bundle is written as this version; a newer one keeps
        # its number, so a reader that cannot parse it refuses it.
        version = max(int(self.info["bundle_version"]), BUNDLE_VERSION)
        save_state(
            arrays, path,
            meta={"kind": "model-bundle", "bundle_version": version},
            sections={BUNDLE_SECTION: encode_non_finite(
                dict(self.info, bundle_version=version))})

    @classmethod
    def load(cls, path: str, verify: bool = True) -> "ModelBundle":
        """Read a bundle; raises :class:`BundleError` on any mismatch."""
        try:
            state, manifest = load_state_with_manifest(
                path, verify=verify, object_hook=non_finite_hook)
        except CheckpointError as exc:
            raise BundleError(str(exc)) from exc
        info = manifest_section(manifest, BUNDLE_SECTION)
        if info is None:
            raise BundleError(
                f"{path!r} is not a model bundle (no {BUNDLE_SECTION!r} "
                "manifest section) — it may be a training checkpoint")
        version = info.get("bundle_version")
        if not isinstance(version, int) or version < 1:
            raise BundleError(
                f"bundle {path!r} has an invalid version {version!r}")
        if version > BUNDLE_VERSION:
            raise BundleError(
                f"bundle {path!r} was written by a newer schema "
                f"(version {version} > supported {BUNDLE_VERSION})")
        return cls(cls._unpack_bits(state, info, path), info)

    @staticmethod
    def _unpack_bits(state: Dict[str, np.ndarray], info: Dict[str, Any],
                     path: str) -> Dict[str, np.ndarray]:
        """Each ``<name>.bits`` member as the float64 ±1 ``<name>``."""
        members = [key for key in state if key.endswith(_BITS)]
        if not members:
            return state
        try:
            shapes = _bipolar_shapes(info)
        except (KeyError, TypeError, ValueError) as exc:
            raise BundleError(
                f"bundle {path!r} has a malformed provenance block: "
                f"{exc!r}") from exc
        for member in members:
            name = member[:-len(_BITS)]
            if name not in shapes or name in state:
                raise BundleError(
                    f"bundle {path!r} stores {member!r}, but its "
                    f"provenance declares no bit-packed {name!r}")
            rows, dim = shapes[name]
            bits = state.pop(member)
            want = (rows, (dim + 7) // 8)
            if bits.dtype != np.uint8 or bits.shape != want:
                raise BundleError(
                    f"bundle {path!r} stores {member!r} as {bits.dtype} "
                    f"{bits.shape}; its provenance says uint8 {want}")
            signs = state[name] = np.unpackbits(bits, axis=1, count=dim) * 2.0
            signs -= 1.0
        return state

    @classmethod
    def verify(cls, path: str) -> Dict[str, Any]:
        """CRC-enforced load + structural validation; returns ``info``.

        Serving processes call this before answering requests: a torn
        archive, a missing array, or a shape that contradicts the
        provenance block all raise :class:`BundleError` here instead of
        producing garbage predictions later.
        """
        bundle = cls.load(path, verify=True)
        bundle.validate()
        return bundle.info

    # ------------------------------------------------------------------
    # Structural validation & typed accessors
    # ------------------------------------------------------------------
    def _require(self, *names: str) -> None:
        missing = [n for n in names if n not in self.arrays]
        if missing:
            raise BundleError(
                f"bundle is missing required arrays {missing} for "
                f"pipeline {self.info.get('pipeline')!r}")

    def validate(self) -> Optional[QualityBaseline]:
        """Check that arrays exist and agree with the provenance block.

        Each check runs once per array.  Returns the parsed drift
        baseline (None when the bundle has none), so that a caller does
        not parse it again.
        """
        info = self.info
        dim = int(info["dim"])
        num_classes = int(info["num_classes"])
        self._require("scaler.mean", "scaler.std")

        enc = info.get("encoder") or {}
        in_features = int(enc.get("in_features", 0))
        if enc.get("type") == "random_projection":
            self._require("encoder.projection")
            shape = tuple(self.arrays["encoder.projection"].shape)
            if shape != (in_features, dim):
                raise BundleError(
                    f"encoder.projection has shape {shape}, provenance "
                    f"says ({in_features}, {dim})")
            if not is_bipolar(np.asarray(self.arrays["encoder.projection"])):
                raise BundleError(
                    "encoder.projection is not bipolar: a random "
                    "projection stores only -1 and +1")
        elif enc.get("type") == "nonlinear":
            self._require("encoder.basis", "encoder.phase")
            shape = tuple(self.arrays["encoder.basis"].shape)
            if shape != (in_features, dim):
                raise BundleError(
                    f"encoder.basis has shape {shape}, provenance says "
                    f"({in_features}, {dim})")
            phase = tuple(self.arrays["encoder.phase"].shape)
            if phase != (dim,):
                raise BundleError(
                    f"encoder.phase has shape {phase}, provenance says "
                    f"({dim},)")
        else:
            raise BundleError(f"unknown encoder type {enc.get('type')!r}")

        classes = self.class_matrix()
        if classes.shape != (num_classes, dim):
            raise BundleError(
                f"class matrix has shape {classes.shape}, provenance "
                f"says ({num_classes}, {dim})")
        if info.get("binarized") and not is_bipolar(classes):
            raise BundleError(
                "provenance claims a binarized class matrix but the "
                "stored values are not bipolar")

        # The width chain: extractor → scaler → manifold → encoder.  A
        # scaler of the wrong width would be reshaped by the reduce
        # stage into more (or fewer) rows than were sent.
        mean = np.asarray(self.arrays["scaler.mean"])
        std = np.asarray(self.arrays["scaler.std"])
        if mean.ndim != 1 or mean.shape != std.shape:
            raise BundleError(
                f"scaler.mean {mean.shape} and scaler.std {std.shape} "
                f"must be 1-D and of one length")
        width = len(mean)
        values = {"scaler.mean": mean, "scaler.std": std,
                  "class matrix": classes}

        manifold = info.get("manifold")
        if manifold is not None:
            weight = self.manifold_weight()
            pooled = self._pooled_count(manifold)
            expected = (int(manifold["out_features"]), pooled)
            if weight.shape != expected:
                raise BundleError(
                    f"manifold weight has shape {weight.shape}, "
                    f"provenance says {expected}")
            if manifold.get("has_bias"):
                self._require("manifold.bias")
            bias = self.manifold_bias()
            if bias is not None and bias.shape != expected[:1]:
                raise BundleError(
                    f"manifold.bias has shape {bias.shape}, provenance "
                    f"says {expected[:1]}")
            values["manifold weight"] = weight
            if bias is not None:
                values["manifold.bias"] = bias
            if expected[0] != in_features:
                raise BundleError(
                    f"manifold emits {expected[0]} features but the "
                    f"encoder takes {in_features}")
            stage, takes = "manifold", int(np.prod(manifold["feature_shape"]))
        else:
            stage, takes = "encoder", in_features
        if width != takes:
            raise BundleError(
                f"scaler standardizes {width} features but the {stage} "
                f"after it takes {takes}")

        extractor = info.get("extractor")
        if extractor is not None:
            if not any(name.startswith("model.") for name in self.arrays):
                raise BundleError(
                    "provenance declares an extractor but the bundle "
                    "carries no model.* arrays")
            shape = extractor.get("feature_shape")
            if shape is not None and int(np.prod(shape)) != width:
                raise BundleError(
                    f"extractor emits {int(np.prod(shape))} features "
                    f"(shape {list(shape)}) but the scaler standardizes "
                    f"{width}")
        # Once the shapes agree, the values: a NaN or Inf in any of
        # these, or a spread that is not > 0, serves one label to all.
        for name, value in values.items():
            if not np.isfinite(value).all():
                raise BundleError(f"{name} holds NaN or Inf")
        if not np.all(std > 0):
            raise BundleError("scaler.std must be > 0 in every feature")
        baseline = self._validate_baseline(width)
        # Last, so the checks above name what a missing array breaks.
        self._require(*info.get("arrays", ()))
        return baseline

    def _validate_baseline(self, width: int) -> Optional[QualityBaseline]:
        """The ``quality_baseline`` section parses, sketches as many
        features as its tap emits (the raw ``width``, or the manifold's
        outputs), has one prior per class and holds finite numbers
        only; its priors are >= 0 with positive mass.  A NaN in a
        sketch would leave the drift monitor reading NaN or 0 forever,
        so no alert on it could fire."""
        section = self.info.get("quality_baseline")
        if section is None:
            return None
        try:
            baseline = QualityBaseline.from_dict(section)
        except Exception as exc:
            raise BundleError(
                f"quality_baseline is malformed: {exc!r}") from exc
        manifold = self.info.get("manifold")
        if baseline.tap == "reduce":
            if manifold is None:
                raise BundleError(
                    "quality_baseline is tapped at the reduce output but "
                    "the bundle has no manifold stage")
            width = int(manifold["out_features"])
        if baseline.num_features != width:
            raise BundleError(
                f"quality_baseline sketches {baseline.num_features} "
                f"features but its {baseline.tap!r} tap emits {width}")
        if baseline.num_classes != int(self.info["num_classes"]):
            raise BundleError(
                f"quality_baseline has {baseline.num_classes} class "
                f"priors but the bundle has "
                f"{int(self.info['num_classes'])} classes")
        values = {"feature_mean": baseline.feature_mean,
                  "feature_std": baseline.feature_std,
                  "bin_edges": baseline.bin_edges,
                  "expected": baseline.expected,
                  "class_priors": baseline.class_priors,
                  "margin": list(baseline.margin.values()),
                  "confidence": list(baseline.confidence.values())}
        for name, value in values.items():
            try:
                finite = np.isfinite(np.asarray(value, np.float64)).all()
            except (TypeError, ValueError):
                finite = False
            if not finite:
                raise BundleError(
                    f"quality_baseline {name} is not all finite numbers")
        priors = baseline.class_priors
        if (priors < 0).any() or not priors.sum() > 0:
            raise BundleError("quality_baseline class_priors must be >= 0 "
                              "and have positive mass")
        return baseline

    @staticmethod
    def _pooled_count(manifold_info: Dict[str, Any]) -> int:
        c, h, w = (int(s) for s in manifold_info["feature_shape"])
        if manifold_info.get("pooling"):
            return c * (h // 2) * (w // 2)
        return c * h * w

    # -- accessors ------------------------------------------------------
    def class_matrix(self) -> np.ndarray:
        """Float class-hypervector matrix."""
        if "classes" not in self.arrays:
            raise BundleError("bundle has no class-hypervector payload")
        return np.asarray(self.arrays["classes"], dtype=np.float64)

    def manifold_weight(self) -> np.ndarray:
        """Float manifold FC weight."""
        if "manifold.weight" not in self.arrays:
            raise BundleError("bundle has no manifold weight payload")
        return np.asarray(self.arrays["manifold.weight"], dtype=np.float64)

    def manifold_bias(self) -> Optional[np.ndarray]:
        bias = self.arrays.get("manifold.bias")
        return None if bias is None else np.asarray(bias, dtype=np.float64)

    # ------------------------------------------------------------------
    # Stage graph
    # ------------------------------------------------------------------
    def build_graph(self, build_extractor: bool = True) -> StageGraph:
        """Frozen, executable :class:`StageGraph` for this bundle.

        Built from the provenance fields :meth:`validate` checks: extract
        (or flatten), scale, reduce when ``info["manifold"]`` is set,
        encode, and a frozen classify stage.  The extract stage holds
        only the trunk up to the cut, filled from the stored arrays
        with no random draw (:func:`~repro.models.load_trunk`).  With
        ``build_extractor=False`` it is dropped, so the graph starts at
        the feature interface.  Build on a bundle :meth:`validate`
        accepted: its ±1 checks are not repeated here.  Any failure
        raises :class:`BundleError`.
        """
        info, arrays = self.info, self.arrays
        try:
            stages: List[Stage] = []
            extractor = info.get("extractor")
            if extractor is None:
                stages.append(FlattenStage())
            elif build_extractor:
                # Imported here: a serving worker never builds a trunk.
                from ..models.extractor import FeatureExtractor
                from ..models.registry import load_trunk

                # A version-1 bundle's later layers and classifier are
                # among these arrays; the trunk reads only its own keys.
                cut = int(extractor["layer_index"])
                model = load_trunk(
                    extractor["model"], cut,
                    {name[len(_TRUNK):]: value
                     for name, value in arrays.items()
                     if name.startswith(_TRUNK)},
                    num_classes=int(extractor["num_classes"]),
                    width_mult=float(extractor.get("width_mult", 1.0)),
                    image_size=int(extractor["image_size"]))
                stages.append(ExtractStage(FeatureExtractor(model, cut)))
            scaler = FeatureScaler()
            scaler.mean = np.asarray(arrays["scaler.mean"], dtype=np.float64)
            scaler.std = np.asarray(arrays["scaler.std"], dtype=np.float64)
            stages.append(ScaleStage(scaler))
            manifold = info.get("manifold")
            if manifold is not None:
                weight, bias = self.manifold_weight(), self.manifold_bias()
                stages.append(ManifoldReduceStage(
                    manifold["feature_shape"], int(manifold["out_features"]),
                    bool(manifold.get("pooling")), weight_fn=lambda: weight,
                    bias_fn=None if bias is None else lambda: bias))
            enc = info["encoder"]
            quantize = bool(enc.get("quantize", True))
            if enc["type"] == "random_projection":
                encoder = RandomProjectionEncoder.from_arrays(
                    arrays["encoder.projection"], quantize=quantize,
                    checked=True)
            elif enc["type"] == "nonlinear":
                encoder = NonlinearEncoder.from_arrays(
                    arrays["encoder.basis"], arrays["encoder.phase"],
                    quantize=quantize)
            else:
                raise BundleError(f"unknown encoder type {enc['type']!r}")
            stages.append(EncodeStage(encoder))
            stages.append(ClassifyStage.from_matrix(
                self.class_matrix(),
                bipolar=True if info.get("binarized") else None))
            return StageGraph(
                stages, name=str(info.get("pipeline", "bundle")).lower())
        except BundleError:
            raise
        except Exception as exc:
            raise BundleError(
                f"bundle stage graph could not be built: {exc!r}") from exc

    def nbytes(self) -> int:
        """Total payload size of all arrays in bytes."""
        return int(sum(np.asarray(a).nbytes for a in self.arrays.values()))

    def summary(self) -> List[str]:
        """Human-readable description lines (CLI / logs)."""
        info = self.info
        lines = [
            f"pipeline={info['pipeline']} dim={info['dim']} "
            f"classes={info['num_classes']}",
            f"config_fingerprint={info['config_fingerprint']} "
            f"git={info.get('git', {}).get('short_sha', 'unknown')}",
            f"binarized={info.get('binarized')}",
            f"arrays={len(self.arrays)} payload={self.nbytes()} B",
        ]
        return lines

    def __repr__(self) -> str:
        return (f"ModelBundle({self.info.get('pipeline')}, "
                f"dim={self.info.get('dim')}, "
                f"classes={self.info.get('num_classes')}, "
                f"arrays={len(self.arrays)})")
