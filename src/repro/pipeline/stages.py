"""Composable inference stages: the single home of the NSHD stage math.

Every NSHD-family model is the same five-step program — *extract*
(truncated CNN) → *scale* (feature standardization) → *reduce* (manifold
max-pool + FC) → *encode* (feature-to-hypervector map) → *classify*
(similarity argmax) — with individual steps omitted or swapped per
pipeline.  Before the stage-graph refactor that program was implemented
four separate times (the three ``repro.learn`` pipelines, the serving
engine, the checkpoint writer, and the bundle exporter each hardcoded a
variant); this module is now the **only** implementation.

A :class:`Stage` is a named unit of computation:

* ``stage(batch, ctx)`` maps an ``(n, …)`` numpy batch to the next
  representation; the optional ``ctx`` dict is shared by every stage of
  one ``StageGraph.run``, and a classify stage leaves the ``(n, k)``
  score matrix it ranked there as ``ctx["similarities"]``;
* ``state_arrays()`` exports the stage's weights as a flat
  ``{name: ndarray}`` dict under the historical checkpoint and bundle
  key names (``scaler.mean``, ``encoder.projection``,
  ``manifold.weight``, ``model.*``, ``classes``);
* the extract, reduce and encode stages also describe themselves with
  ``spec()``: the bundle's ``info["extractor"]``, ``info["manifold"]``
  and ``info["encoder"]`` fields.  Those fields and the arrays are the
  whole on-disk model; :meth:`repro.serve.ModelBundle.build_graph`
  builds the frozen stages back from them.

Stages are either **live** (sharing weights with training objects —
:class:`~repro.learn.manifold.ManifoldLearner`, the MASS trainer — so a
graph built by a pipeline always reflects the current training state) or
**frozen** (owning immutable arrays built from a bundle; frozen
classifiers cache their clamped class norms, which are constant).

Bit-exactness contract: every float stage reproduces the pre-refactor
float semantics operand-for-operand (same dtypes, same BLAS calls, same
clamping expressions) — the golden fixtures in ``tests/fixtures/``
enforce this against predictions recorded before the refactor.  The
packed copy of a random-projection encode stage is the one stage that
runs a different GEMM: ``float32``, with every sign its error bound
cannot decide recomputed in float64
(:func:`~repro.hd.encoders.certified_signs`), so its words equal
``pack_signs(encode_raw(x) >= 0)`` of the float64 GEMM bit for bit.
"""

from __future__ import annotations

import copy
import math
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence

import numpy as np

from ..hd.backend import pack_signs
from ..hd.encoders import (Encoder, NonlinearEncoder,
                           RandomProjectionEncoder)
from ..hd.hypervector import hard_quantize, is_bipolar
from ..hd.similarity import (clamped_norms, cosine_similarity,
                             packed_cosine_similarity)
from ..nn.windows import strided_max_pool
from ..telemetry import get_registry, span

if TYPE_CHECKING:
    from ..models.extractor import FeatureExtractor

__all__ = [
    "Stage", "StageError", "FeatureScaler",
    "ExtractStage", "FlattenStage", "ScaleStage", "ManifoldReduceStage",
    "EncodeStage", "FusedEncodeStage", "ScalePoolStage",
    "ClassifyStage", "PackedClassifyStage", "packed_refusal",
    "encoder_spec",
]

#: Encoder kinds the encode stages can describe.
ENCODER_TYPES = ("nonlinear", "random_projection")

_DEGENERATE_STD = 1e-8


class StageError(RuntimeError):
    """A stage or stage graph is malformed or misused."""


# ----------------------------------------------------------------------
# FeatureScaler (canonical home; re-exported by repro.learn)
# ----------------------------------------------------------------------
class FeatureScaler:
    """Standardize features with training-set statistics.

    CNN (ReLU) features are non-negative and heavily skewed; centering
    them is what makes the signs of the random projection informative.
    """

    def __init__(self):
        self.mean: Optional[np.ndarray] = None
        self.std: Optional[np.ndarray] = None

    def fit(self, features: np.ndarray) -> "FeatureScaler":
        features = np.asarray(features, dtype=np.float64)
        std = features.std(axis=0)
        if np.all(std < _DEGENERATE_STD):
            raise ValueError(
                "FeatureScaler.fit: every feature dimension has "
                "(near-)zero standard deviation — the input is constant "
                "and cannot be standardized.  Check the upstream feature "
                "extractor (dead layer?) or the input batch.")
        self.mean = features.mean(axis=0)
        self.std = np.where(std < _DEGENERATE_STD, 1.0, std)
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        if self.mean is None:
            raise RuntimeError("FeatureScaler used before fit()")
        return (features - self.mean) / self.std

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        """Fit on ``features`` and return them standardized (symmetry
        convenience mirroring ``transform``)."""
        return self.fit(features).transform(features)


class Stage:
    """Protocol/base for named pipeline stages."""

    def __init__(self, name: str):
        if not name:
            raise ValueError("stages must be named")
        self.name = str(name)

    # -- execution -----------------------------------------------------
    @property
    def span_name(self) -> str:
        """Telemetry span emitted by the graph runner for this stage."""
        return f"stage.{self.name}"

    def __call__(self, batch: np.ndarray, ctx: Optional[dict] = None
                 ) -> np.ndarray:
        raise NotImplementedError

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """This stage's weights under their archive key names."""
        return {}

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


# ----------------------------------------------------------------------
# Concrete stages
# ----------------------------------------------------------------------
class FlattenStage(Stage):
    """Reshape ``(n, …)`` inputs to ``(n, F)`` (VanillaHD's raw pixels)."""

    def __init__(self, name: str = "flatten"):
        super().__init__(name)

    def __call__(self, batch: np.ndarray, ctx: Optional[dict] = None
                 ) -> np.ndarray:
        batch = np.asarray(batch)
        return batch.reshape(len(batch), math.prod(batch.shape[1:]))


class ExtractStage(Stage):
    """Frozen truncated-CNN feature extraction (NCHW images → ``(n, F)``)."""

    def __init__(self, extractor: FeatureExtractor, name: str = "extract"):
        super().__init__(name)
        self.extractor = extractor

    def __call__(self, batch: np.ndarray, ctx: Optional[dict] = None
                 ) -> np.ndarray:
        return self.extractor.extract(np.asarray(batch))

    def spec(self) -> Dict[str, Any]:
        """The bundle's ``info["extractor"]`` description."""
        model = self.extractor.model
        return {
            "model": model.name,
            "layer_index": int(self.extractor.layer_index),
            "num_classes": int(model.num_classes),
            "image_size": int(model.image_size),
            "width_mult": float(getattr(model, "width_mult", 1.0)),
            "feature_shape": [int(s) for s in self.extractor.feature_shape],
        }

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """The trunk up to the cut, the only layers this stage runs."""
        cut = self.extractor.layer_index
        trunk = self.extractor.model.features[:cut + 1]
        return {f"model.features.{key}": np.asarray(value)
                for key, value in trunk.state_dict().items()}


class ScaleStage(Stage):
    """Standardization ``(x − μ) / σ`` with training-set statistics."""

    def __init__(self, scaler: Optional[FeatureScaler] = None,
                 name: str = "scale"):
        super().__init__(name)
        self.scaler = scaler if scaler is not None else FeatureScaler()

    def __call__(self, batch: np.ndarray, ctx: Optional[dict] = None
                 ) -> np.ndarray:
        return self.scaler.transform(
            np.asarray(batch, dtype=np.float64))

    def state_arrays(self) -> Dict[str, np.ndarray]:
        if self.scaler.mean is None:
            return {}
        return {"scaler.mean": np.asarray(self.scaler.mean),
                "scaler.std": np.asarray(self.scaler.std)}


class ManifoldReduceStage(Stage):
    """Manifold compression Ψ: crop-to-even max-pool (window 2) + FC.

    Numerically identical to ``F.max_pool2d(kernel=2)`` + ``F.linear``
    on the same operands (both pool through
    :func:`~repro.nn.windows.strided_max_pool`, then the same
    ``pooled @ Wᵀ + b`` BLAS call) — proven bit-exact against the
    autograd path by the golden fixtures and the engine-parity tests.

    The weight/bias *providers* are zero-argument callables so a live
    stage built from a :class:`~repro.learn.manifold.ManifoldLearner`
    always sees the current (still-training) FC parameters, while a
    frozen stage returns its loaded arrays.
    """

    span_name = "stage.manifold"  # historical telemetry name

    def __init__(self, feature_shape: Sequence[int], out_features: int,
                 pooling: bool,
                 weight_fn: Callable[[], np.ndarray],
                 bias_fn: Optional[Callable[[], Optional[np.ndarray]]] = None,
                 name: str = "reduce"):
        super().__init__(name)
        if len(feature_shape) != 3:
            raise ValueError("feature_shape must be (C, H, W)")
        self.feature_shape = tuple(int(s) for s in feature_shape)
        self.out_features = int(out_features)
        self.pooling = bool(pooling)
        self._weight_fn = weight_fn
        self._bias_fn = bias_fn

    @property
    def weight(self) -> np.ndarray:
        return self._weight_fn()

    @property
    def bias(self) -> Optional[np.ndarray]:
        return self._bias_fn() if self._bias_fn is not None else None

    def __call__(self, batch: np.ndarray, ctx: Optional[dict] = None
                 ) -> np.ndarray:
        features = np.asarray(batch, dtype=np.float64)
        c, h, w = self.feature_shape
        x = features.reshape(-1, c, h, w)
        if self.pooling:
            x = strided_max_pool(x)
        pooled = x.reshape(len(x), math.prod(x.shape[1:]))
        out = pooled @ self.weight.T
        bias = self.bias
        if bias is not None:
            out = out + bias
        return out

    def spec(self) -> Dict[str, Any]:
        """The bundle's ``info["manifold"]`` description."""
        return {
            "feature_shape": [int(s) for s in self.feature_shape],
            "out_features": int(self.out_features),
            "pooling": bool(self.pooling),
            "has_bias": self.bias is not None,
        }

    def state_arrays(self) -> Dict[str, np.ndarray]:
        arrays = {"manifold.weight": np.asarray(self.weight,
                                                dtype=np.float64)}
        bias = self.bias
        if bias is not None:
            arrays["manifold.bias"] = np.asarray(bias, dtype=np.float64)
        return arrays

    @classmethod
    def from_learner(cls, learner, name: str = "reduce"
                     ) -> "ManifoldReduceStage":
        """Live stage sharing weights with a training ManifoldLearner."""
        bias_fn = None
        if learner.fc.bias is not None:
            bias_fn = lambda: np.asarray(learner.fc.bias.data,  # noqa: E731
                                         dtype=np.float64)
        return cls(learner.feature_shape, learner.out_features,
                   learner.pooling,
                   weight_fn=lambda: np.asarray(learner.fc.weight.data,
                                                dtype=np.float64),
                   bias_fn=bias_fn, name=name)


def encoder_spec(encoder: Encoder) -> Dict[str, Any]:
    """Legacy-shaped encoder description (the bundle ``info["encoder"]``)."""
    if isinstance(encoder, RandomProjectionEncoder):
        kind = "random_projection"
    elif isinstance(encoder, NonlinearEncoder):
        kind = "nonlinear"
    else:
        raise StageError(
            f"cannot serialize encoder of type {type(encoder).__name__}; "
            "supported: RandomProjectionEncoder, NonlinearEncoder")
    return {"type": kind,
            "in_features": int(encoder.in_features),
            "dim": int(encoder.dim),
            "quantize": bool(encoder.quantize)}


class _SignWords:
    """:meth:`packed` for the encode stages."""

    #: Emit ``uint64`` sign words instead of ±1 floats (see :meth:`packed`).
    emits_words = False

    def packed(self):
        """A copy of this stage that emits each hypervector as ``uint64``
        words, ``pack_signs(pre_sign >= 0)``, with no float ±1 matrix in
        between.  Bit ``i`` is set exactly where
        :func:`~repro.hd.hypervector.hard_quantize` gives +1 (NaN
        included), so a packed classify ranks them like the float path.
        The words are those of the float64 pre-sign values even where
        the copy computes them otherwise (:meth:`EncodeStage.packed`).
        """
        if not self.quantize:
            raise StageError(
                f"stage {self.name!r} does not quantize; its continuous "
                "hypervectors cannot be bit-packed")
        stage = copy.copy(self)
        stage.emits_words = True
        return stage


class EncodeStage(_SignWords, Stage):
    """Feature → hypervector map Φ (random projection or nonlinear).

    Wraps a live :class:`~repro.hd.encoders.Encoder`, so the encoder
    math (and its ``hd.encode.*`` telemetry) lives in exactly one place;
    frozen stages rebuild the encoder from stored arrays via the
    ``from_arrays`` constructors without re-randomizing.
    """

    def __init__(self, encoder: Encoder, name: str = "encode"):
        super().__init__(name)
        encoder_spec(encoder)  # raises early for unsupported encoders
        self.encoder = encoder

    def __call__(self, batch: np.ndarray, ctx: Optional[dict] = None
                 ) -> np.ndarray:
        if self.emits_words:
            return pack_signs(self.encoder.signs(batch))
        return self.encoder.encode(batch)

    def packed(self) -> "EncodeStage":
        """The sign-word copy, on the encoder's
        :meth:`~repro.hd.encoders.Encoder.for_signs` copy: a random
        projection casts ``P`` to ``float32`` here, once, and its
        :meth:`~repro.hd.encoders.RandomProjectionEncoder.signs` returns
        ``encode_raw(x) >= 0`` bit for bit from a certified float32 GEMM.
        """
        stage = super().packed()
        stage.encoder = self.encoder.for_signs()
        return stage

    @property
    def quantize(self) -> bool:
        return bool(self.encoder.quantize)

    def spec(self) -> Dict[str, Any]:
        """The bundle's ``info["encoder"]`` description."""
        return encoder_spec(self.encoder)

    def state_arrays(self) -> Dict[str, np.ndarray]:
        if isinstance(self.encoder, RandomProjectionEncoder):
            return {"encoder.projection":
                    np.asarray(self.encoder.projection, dtype=np.float64)}
        return {"encoder.basis": np.asarray(self.encoder.basis,
                                            dtype=np.float64),
                "encoder.phase": np.asarray(self.encoder.phase,
                                            dtype=np.float64)}


class FusedEncodeStage(_SignWords, Stage):
    """Scale ∘ Encode folded into one affine GEMM.

    Built by :meth:`from_scale_encode`: standardization
    ``(x − μ)/σ`` followed by a projection GEMM is itself affine, so
    the projection matrix is pre-scaled per input feature
    (``P̂ = P / σ[:, None]``) and the constant term becomes an additive
    offset (``o = −(μ/σ) @ P``) — one GEMM per batch instead of a
    subtract/divide sweep over the full feature width plus a GEMM.
    Nothing exports or serves it, so it has no serialization; it stays
    only as a traced target of ``bench/spans.py``.

    Float tolerance: the regrouping changes the floating-point
    evaluation order, so *raw* encodings agree with the unfused graph
    only to ~1e-9 relative; *quantized* (±1) encodings and predicted
    labels agree exactly (``tests/test_pipeline_stages.py``).
    """

    span_name = "stage.encode"  # the fused stage is the encode step

    def __init__(self, kind: str, matrix: np.ndarray, offset: np.ndarray,
                 phase: Optional[np.ndarray] = None, quantize: bool = True,
                 name: str = "encode"):
        super().__init__(name)
        if kind not in ENCODER_TYPES:
            raise StageError(
                f"unknown encoder type {kind!r}; this build supports "
                f"{sorted(ENCODER_TYPES)}")
        self.kind = str(kind)
        self.matrix = np.asarray(matrix, dtype=np.float64)
        self.offset = np.asarray(offset, dtype=np.float64)
        if self.matrix.ndim != 2 or self.offset.shape != \
                (self.matrix.shape[1],):
            raise StageError(
                "fused encode needs a (F, D) matrix and a (D,) offset")
        self.phase = (None if phase is None
                      else np.asarray(phase, dtype=np.float64))
        if self.kind == "nonlinear" and self.phase is None:
            raise StageError("fused nonlinear encode requires a phase")
        self.quantize = bool(quantize)

    @property
    def in_features(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[1])

    def __call__(self, batch: np.ndarray, ctx: Optional[dict] = None
                 ) -> np.ndarray:
        features = np.atleast_2d(np.asarray(batch, dtype=np.float64))
        if features.shape[-1] != self.in_features:
            raise StageError(
                f"fused encode expects {self.in_features} features, got "
                f"{features.shape[-1]}")
        registry = get_registry()
        registry.inc("hd.encode.samples", len(features))
        registry.inc("hd.encode.macs",
                     len(features) * self.in_features * self.dim)
        with span("hd.encode.FusedEncodeStage",
                  nbytes=int(features.nbytes)):
            proj = features @ self.matrix + self.offset
            if self.kind == "nonlinear":
                raw = np.cos(proj + self.phase) * np.sin(proj)
            else:
                raw = proj
            if self.emits_words:
                return pack_signs(raw >= 0)
            return hard_quantize(raw) if self.quantize else raw

    @classmethod
    def from_scale_encode(cls, scale: "ScaleStage", encode: "EncodeStage"
                          ) -> "FusedEncodeStage":
        """Fold a fitted scale stage into the downstream encode GEMM."""
        scaler = scale.scaler
        if scaler.mean is None:
            raise StageError("cannot fuse an unfitted scale stage")
        mean = np.asarray(scaler.mean, dtype=np.float64)
        std = np.asarray(scaler.std, dtype=np.float64)
        encoder = encode.encoder
        if isinstance(encoder, RandomProjectionEncoder):
            base = np.asarray(encoder.projection, dtype=np.float64)
            kind, phase = "random_projection", None
        elif isinstance(encoder, NonlinearEncoder):
            base = np.asarray(encoder.basis, dtype=np.float64)
            kind = "nonlinear"
            phase = np.asarray(encoder.phase, dtype=np.float64)
        else:
            raise StageError(
                f"cannot fuse encoder of type {type(encoder).__name__}")
        if mean.shape[0] != base.shape[0]:
            raise StageError(
                f"scale stage is fitted for {mean.shape[0]} features but "
                f"the encoder expects {base.shape[0]}")
        return cls(kind, base / std[:, None], -(mean / std) @ base,
                   phase=phase, quantize=bool(encode.quantize),
                   name=encode.name)


class ScalePoolStage(Stage):
    """Standardize-then-max-pool fused stage.

    Built by :meth:`from_scale_reduce`.  The pool cannot legally cross
    the scale stage upward into *extract* — standardization is a
    per-position affine map with distinct ``μ/σ`` per position, and
    ``max`` does not commute with it — so the fold moves the pool
    *down* out of :class:`ManifoldReduceStage` into the scale step
    instead.  That fold is **bit-exact**: both stages pool through the
    one :func:`strided_max_pool` helper on the identical operands; only the
    stage boundary moves.  The win is that the
    full-width scaled intermediate dies immediately after pooling
    (4× smaller downstream batch rows) and the reduce stage degenerates
    to a plain GEMM.  Nothing exports or serves it, so it has no
    serialization; it stays only as a traced target of ``bench/spans.py``.
    """

    span_name = "stage.scale"  # the fused stage is the scale step

    def __init__(self, feature_shape: Sequence[int],
                 scaler: Optional[FeatureScaler] = None,
                 name: str = "scale"):
        super().__init__(name)
        if len(feature_shape) != 3:
            raise ValueError("feature_shape must be (C, H, W)")
        self.feature_shape = tuple(int(s) for s in feature_shape)
        self.scaler = scaler if scaler is not None else FeatureScaler()

    def __call__(self, batch: np.ndarray, ctx: Optional[dict] = None
                 ) -> np.ndarray:
        scaled = self.scaler.transform(
            np.asarray(batch, dtype=np.float64))
        x = strided_max_pool(scaled.reshape(-1, *self.feature_shape))
        return x.reshape(len(x), -1)

    @classmethod
    def from_scale_reduce(cls, scale: "ScaleStage",
                          reduce: "ManifoldReduceStage"
                          ) -> "ScalePoolStage":
        """Fold a reduce stage's pooling into the upstream scale step."""
        if scale.scaler.mean is None:
            raise StageError("cannot fuse an unfitted scale stage")
        if not reduce.pooling:
            raise StageError(
                f"reduce stage {reduce.name!r} has no pooling to fold")
        frozen = FeatureScaler()
        frozen.mean = np.asarray(scale.scaler.mean, dtype=np.float64)
        frozen.std = np.asarray(scale.scaler.std, dtype=np.float64)
        return cls(reduce.feature_shape, scaler=frozen, name=scale.name)


class ClassifyStage(Stage):
    """Cosine-similarity argmax over the class-hypervector matrix.

    Live stages read the (mutating) trainer matrix through a provider
    and recompute the clamped class norms per call — exactly what
    :class:`~repro.learn.mass.MassTrainer` does during training.  Frozen
    stages own an immutable matrix and cache the norms once; both run
    :func:`repro.hd.similarity.cosine_similarity`, so they agree
    bit-for-bit.
    """

    span_name = "stage.similarity"  # historical telemetry name

    def __init__(self, matrix_fn: Callable[[], np.ndarray],
                 frozen: bool = False, name: str = "classify"):
        super().__init__(name)
        self._matrix_fn = matrix_fn
        self.frozen = bool(frozen)
        self._norms: Optional[np.ndarray] = None
        self._bipolar: Optional[bool] = None
        if self.frozen:
            self._norms = clamped_norms(self.class_matrix)

    @property
    def class_matrix(self) -> np.ndarray:
        return self._matrix_fn()

    @property
    def bipolar(self) -> bool:
        """Whether every class-matrix entry is -1 or +1; a frozen stage
        checks once."""
        if not self.frozen:
            return is_bipolar(self.class_matrix)
        if self._bipolar is None:
            self._bipolar = is_bipolar(self.class_matrix)
        return self._bipolar

    def similarities(self, encoded: np.ndarray) -> np.ndarray:
        return cosine_similarity(self.class_matrix, np.atleast_2d(encoded),
                                 class_norms=self._norms)

    def __call__(self, batch: np.ndarray, ctx: Optional[dict] = None
                 ) -> np.ndarray:
        sims = self.similarities(batch)
        if ctx is not None:
            ctx["similarities"] = sims
        return np.asarray(sims.argmax(axis=1))

    def state_arrays(self) -> Dict[str, np.ndarray]:
        return {"classes": np.asarray(self.class_matrix,
                                      dtype=np.float64)}

    @classmethod
    def from_trainer(cls, trainer, name: str = "classify"
                     ) -> "ClassifyStage":
        """Live stage over a (still-training) MASS trainer's matrix."""
        return cls(lambda: trainer.class_matrix, frozen=False, name=name)

    @classmethod
    def from_matrix(cls, matrix: np.ndarray, name: str = "classify",
                    bipolar: Optional[bool] = None) -> "ClassifyStage":
        """Frozen stage with cached clamped class norms.  ``bipolar`` is
        :attr:`bipolar` when the caller has checked it already (a
        validated binarized bundle); None checks on first use."""
        matrix = np.asarray(matrix, dtype=np.float64)
        stage = cls(lambda: matrix, frozen=True, name=name)
        stage._bipolar = bipolar
        return stage


class PackedClassifyStage(Stage):
    """Bit-packed XOR-popcount classifier (bipolar operands only).

    The serving fast path: class hypervectors packed to uint64 words
    once, queries arriving as the ``uint64`` words of a packed encode
    stage (:meth:`EncodeStage.packed`), similarity = XOR + popcount.
    Ranks identically to the float cosine path for bipolar operands
    (integer dots, no rounding); its scores are cosines, ``dots / D``.
    The serving engine derives it from a frozen :class:`ClassifyStage`
    where :func:`packed_refusal` allows — it is an execution *variant*
    of the bundle's classify stage, never stored.
    """

    span_name = "stage.similarity"

    def __init__(self, packed_classes: np.ndarray, dim: int,
                 name: str = "classify_packed"):
        super().__init__(name)
        self.packed_classes = np.asarray(packed_classes, dtype=np.uint64)
        self.dim = int(dim)

    def __call__(self, batch: np.ndarray, ctx: Optional[dict] = None
                 ) -> np.ndarray:
        words = np.atleast_2d(batch)
        if words.dtype != np.uint64:
            raise StageError(
                f"packed classify reads uint64 sign words, got "
                f"{words.dtype}; pack bipolar queries with pack_bipolar")
        sims = packed_cosine_similarity(self.packed_classes, words,
                                        self.dim)
        if ctx is not None:
            ctx["similarities"] = sims
        return np.asarray(sims.argmax(axis=1))

    @classmethod
    def from_classify(cls, stage: ClassifyStage,
                      name: str = "classify_packed"
                      ) -> "PackedClassifyStage":
        if not stage.bipolar:
            raise ValueError("packed classify requires a class matrix "
                             "of -1 and +1")
        matrix = stage.class_matrix
        return cls(pack_signs(matrix > 0), matrix.shape[1], name=name)


def packed_refusal(stages: Sequence[Stage]) -> Optional[str]:
    """Why a frozen graph cannot run packed end to end, or ``None``.

    Packed classify ranks like float cosine only on bipolar operands:
    the last stage must be a frozen classify stage over a bipolar class
    matrix, and the encode stage feeding it must hard-quantize, because
    its :meth:`~EncodeStage.packed` copy emits the queries as bits.
    """
    classify = stages[-1]
    if not (isinstance(classify, ClassifyStage) and classify.frozen):
        return (f"packed classify needs a frozen classify stage; the "
                f"graph ends in {classify!r}")
    if not classify.bipolar:
        return ("packed classify requires a bipolar class matrix — "
                "export the bundle with binarize=True")
    encode = stages[-2] if len(stages) > 1 else None
    if not (isinstance(encode, _SignWords) and encode.quantize):
        return ("packed classify requires a quantizing encoder (the "
                "queries must be bipolar to bit-pack); this graph's "
                "encoder emits continuous hypervectors")
    return None
