"""End-to-end pipelines: NSHD and the paper's comparison systems.

* :class:`NSHD` — the paper's contribution: truncated-CNN feature
  extraction → manifold learner → binary random projection → class
  hypervectors trained with knowledge-distillation MASS (Algorithm 1),
  with the manifold FC co-trained from decoded HD errors.
* :class:`BaselineHD` — prior work [9]: the same truncated extractor but
  *no manifold layer and no distillation*; the full F features are
  random-projected and the class hypervectors are trained with plain MASS.
* :class:`VanillaHD` — standalone HD learning on raw pixels with the
  state-of-the-art nonlinear encoding [6] (the ~40%/~20% CIFAR baseline
  from the paper's introduction).

All three expose the same ``fit`` / ``predict`` / ``accuracy`` API over
NCHW image arrays so the benchmarks can swap them freely.

Since the stage-graph refactor, each pipeline **builds a live
:class:`repro.pipeline.StageGraph` in its constructor** — the stages
share weights with the training objects (scaler, manifold learner, MASS
trainer), so the graph always reflects the current training state.  All
inference (``encode`` / ``predict`` / ``predict_features``) executes the
graph, and so do the training loops' initialization and evaluation.  An
NSHD training batch runs reduce → encode once, on the manifold learner's
autograd tape, because the FC backpropagates through that forward.
Checkpoints hold training state only: the pipeline class that restores
one builds its own graph, and a serve bundle describes its model through
:meth:`repro.serve.ModelBundle.from_pipeline`.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

import numpy as np

from ..hd.encoders import NonlinearEncoder, RandomProjectionEncoder
from ..models.base import IndexedCNN
from ..models.extractor import FeatureExtractor, TeacherModel
from ..nn.serialize import (CheckpointError, load_state_with_manifest,
                            save_state)
from ..pipeline import (ClassifyStage, EncodeStage, ExtractStage,
                        FeatureScaler, FlattenStage, ManifoldReduceStage,
                        ScaleStage, StageGraph)
from ..telemetry import span
from ..utils.rng import derive_rng, fresh_rng, get_rng_state, set_rng_state
from .epochs import run_epochs
from .distill import DistillationTrainer
from .manifold import ManifoldLearner
from .mass import MassTrainer

if TYPE_CHECKING:  # avoid an import cycle; the guard is duck-typed
    from ..reliability.guards import NumericsGuard

__all__ = ["FeatureScaler", "NSHD", "BaselineHD", "VanillaHD",
           "CHECKPOINT_VERSION"]

#: Version tag written into pipeline checkpoint manifests.
CHECKPOINT_VERSION = 1

#: MASS learning rate of every pipeline's class hypervectors.
HD_LR = 0.05

#: Bandwidth of VanillaHD's nonlinear (random Fourier) encoder basis.
VANILLA_BANDWIDTH = 0.01


class _HDPipeline:
    """Shared evaluation + checkpoint API for the three systems.

    Subclasses build :attr:`graph` (a live :class:`StageGraph` ending in
    a ``classify`` stage) in their constructors; every inference path
    below executes that graph, so the stage math exists exactly once.
    """

    trainer: MassTrainer
    scaler: FeatureScaler
    graph: StageGraph
    dim: int
    num_classes: int
    _train_rng: np.random.Generator

    def encode(self, images: np.ndarray) -> np.ndarray:
        """Query hypervectors for a batch of NCHW images."""
        return self.graph.run(images, stop="classify")

    def predict(self, images: np.ndarray) -> np.ndarray:
        encoded = self.encode(images)
        return np.asarray(self.graph.call("classify", encoded))

    def accuracy(self, images: np.ndarray, labels: np.ndarray) -> float:
        return float((self.predict(images) == np.asarray(labels)).mean())

    def predict_features(self, raw_features: np.ndarray) -> np.ndarray:
        """Predict from precomputed extractor features."""
        encoded = self.graph.run(raw_features, start="scale",
                                 stop="classify")
        return np.asarray(self.graph.call("classify", encoded))

    def accuracy_features(self, raw_features: np.ndarray,
                          labels: np.ndarray) -> float:
        return float((self.predict_features(raw_features) ==
                      np.asarray(labels)).mean())

    # ------------------------------------------------------------------
    # Checkpoint/resume.  Checkpoints are atomic (temp file + rename) and
    # CRC-verified (see repro.nn.serialize); they carry every mutable
    # piece of training state — class hypervectors, scaler statistics,
    # manifold FC + Adam moments when present, the shuffle RNG state, and
    # the epoch counter — so a killed run resumes *bit-exactly*.  A
    # ``"graph"`` manifest section written by older checkpoints is ignored.
    # ------------------------------------------------------------------
    def _checkpoint_arrays(self) -> Dict[str, np.ndarray]:
        arrays = {f"trainer.{name}": value
                  for name, value in self.trainer.state_dict().items()}
        if self.scaler.mean is not None:
            arrays["scaler.mean"] = np.asarray(self.scaler.mean)
            arrays["scaler.std"] = np.asarray(self.scaler.std)
        manifold = getattr(self, "manifold", None)
        if manifold is not None:
            arrays.update({f"manifold.{name}": value
                           for name, value in manifold.state_dict().items()})
        return arrays

    def _restore_arrays(self, state: Dict[str, np.ndarray]) -> None:
        trainer_state = {name[len("trainer."):]: value
                         for name, value in state.items()
                         if name.startswith("trainer.")}
        self.trainer.load_state_dict(trainer_state)
        if "scaler.mean" in state:
            self.scaler.mean = np.asarray(state["scaler.mean"],
                                          dtype=np.float64)
            self.scaler.std = np.asarray(state["scaler.std"],
                                         dtype=np.float64)
        manifold = getattr(self, "manifold", None)
        manifold_state = {name[len("manifold."):]: value
                          for name, value in state.items()
                          if name.startswith("manifold.")}
        if manifold is not None:
            if not manifold_state:
                raise CheckpointError(
                    f"{type(self).__name__} has a manifold learner but the "
                    "checkpoint carries no manifold state")
            manifold.load_state_dict(manifold_state)
        elif manifold_state:
            raise CheckpointError(
                f"checkpoint carries manifold state but this "
                f"{type(self).__name__} has no manifold learner")

    def save_checkpoint(self, path: str, epoch: int,
                        history: Optional[Dict[str, List[float]]] = None
                        ) -> None:
        """Atomically persist all mutable training state after ``epoch``
        completed epochs."""
        meta = {
            "checkpoint_version": CHECKPOINT_VERSION,
            "pipeline": type(self).__name__,
            "epoch": int(epoch),
            "dim": int(self.dim),
            "num_classes": int(self.num_classes),
            "rng": get_rng_state(self._train_rng),
            "history": {key: [float(v) for v in values]
                        for key, values in (history or {}).items()},
        }
        save_state(self._checkpoint_arrays(), path, meta=meta)

    def load_checkpoint(self, path: str
                        ) -> Tuple[int, Dict[str, List[float]]]:
        """Restore training state; returns ``(completed_epochs, history)``.

        Raises :class:`repro.nn.serialize.CheckpointError` on truncated or
        corrupted files, CRC mismatches, or checkpoints written by a
        different pipeline class / model shape.
        """
        state, manifest = load_state_with_manifest(path)
        if manifest is None:
            raise CheckpointError(
                f"checkpoint {path!r} has no manifest — not a pipeline "
                "checkpoint (or written by an incompatible version)")
        meta = manifest.get("meta", {})
        version = meta.get("checkpoint_version")
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(
                f"checkpoint {path!r} has pipeline-checkpoint version "
                f"{version!r}; this build supports {CHECKPOINT_VERSION}")
        written_by = meta.get("pipeline")
        if written_by != type(self).__name__:
            raise CheckpointError(
                f"checkpoint {path!r} was written by {written_by!r}, "
                f"cannot restore into {type(self).__name__}")
        if (meta.get("dim") != self.dim
                or meta.get("num_classes") != self.num_classes):
            raise CheckpointError(
                f"checkpoint {path!r} is for dim={meta.get('dim')}, "
                f"num_classes={meta.get('num_classes')}; this pipeline has "
                f"dim={self.dim}, num_classes={self.num_classes}")
        self._restore_arrays(state)
        set_rng_state(self._train_rng, meta["rng"])
        history = {key: list(values)
                   for key, values in meta.get("history", {}).items()}
        return int(meta["epoch"]), history

    def _resume(self, features: np.ndarray,
                checkpoint_path: Optional[str], resume: bool
                ) -> Tuple[int, Optional[Dict[str, List[float]]],
                           np.ndarray]:
        """Resolve resume semantics shared by the three ``fit`` paths.

        Returns ``(start_epoch, saved_history, scaled_features)``.  A
        missing checkpoint under ``resume=True`` silently starts fresh
        (first run of a to-be-resumed job), while a *corrupt* one raises
        so the caller can decide how to degrade.  A restored run keeps the
        checkpoint's scaler statistics; a fresh one fits them here.
        """
        start_epoch, history = 0, None
        if resume:
            if not checkpoint_path:
                raise ValueError("resume=True requires checkpoint_path")
            if os.path.exists(checkpoint_path):
                start_epoch, history = self.load_checkpoint(checkpoint_path)
        scaled = (self.scaler.transform(features) if start_epoch > 0
                  else self.scaler.fit_transform(features))
        return start_epoch, history, scaled

    def _run_epochs(self, rows: Dict[str, np.ndarray], batch_step,
                    evaluate, initialize, *, epochs: int, batch_size: int,
                    start_epoch: int,
                    history: Optional[Dict[str, List[float]]],
                    checkpoint_path: Optional[str], checkpoint_every: int
                    ) -> Dict[str, List[float]]:
        """:func:`repro.learn.epochs.run_epochs` on the pipeline's
        shuffle RNG; ``initialize`` is skipped on resume.

        With ``checkpoint_path`` set, the epochs run up to each multiple
        of ``checkpoint_every`` and to ``epochs`` in turn, and a
        checkpoint of the state and history so far is written after
        each of those stretches.
        """
        if checkpoint_path and checkpoint_every < 1:
            raise ValueError("checkpoint interval must be >= 1")
        stops = [epochs]
        if checkpoint_path:
            stops[:0] = range((start_epoch // checkpoint_every + 1)
                              * checkpoint_every, epochs, checkpoint_every)
        epoch = start_epoch
        for stop in stops:
            history = run_epochs(
                rows, batch_step, evaluate, epochs=stop,
                batch_size=batch_size, rng=self._train_rng,
                start_epoch=epoch, history=history,
                initialize=initialize if epoch == 0 else None)
            if checkpoint_path and stop > epoch:
                self.save_checkpoint(checkpoint_path, stop, history)
            epoch = stop
        return history

    def _fit_encoded(self, features: np.ndarray, labels: np.ndarray,
                     epochs: int, batch_size: int,
                     checkpoint_path: Optional[str], checkpoint_every: int,
                     resume: bool) -> Dict[str, List[float]]:
        """BaselineHD/VanillaHD training: scale and encode every row once,
        then MASS epochs on the fixed hypervectors."""
        labels = np.asarray(labels)
        start_epoch, history, scaled = self._resume(
            features, checkpoint_path, resume)
        encoded = self.graph.call("encode", scaled)
        trainer = self.trainer
        return self._run_epochs(
            {"hypervectors": encoded, "labels": labels}, trainer.step,
            lambda _: {"train_acc": trainer.accuracy(encoded, labels)},
            lambda: trainer.initialize(encoded, labels),
            epochs=epochs, batch_size=batch_size, start_epoch=start_epoch,
            history=history, checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every)


class NSHD(_HDPipeline):
    """The full neuro-symbolic HD model of the paper.

    Parameters
    ----------
    model:
        A *pretrained* :class:`IndexedCNN`; used frozen both as the
        truncated feature extractor and as the uncut distillation teacher.
    layer_index:
        Cut point in the model's layer indexing (paper Sec. IV-A).
    dim:
        Hypervector dimensionality D (paper default 3,000).
    reduced_features:
        F̂, the manifold learner's output size (paper default 100).
    temperature, alpha:
        Algorithm 1's distillation hyperparameters (t, α).  The paper
        tunes both per model via grid search (Fig. 9) and lands at
        α ≈ 0.5–0.7 with its ImageNet-grade teachers; the default here is
        the tuned value for this reproduction's CPU-scale teachers, whose
        soft labels carry less reliable knowledge (see EXPERIMENTS.md).
    use_manifold / use_distillation:
        Ablation switches; disabling both degenerates to BaselineHD's
        training on this extractor.
    """

    def __init__(self, model: IndexedCNN, layer_index: int, dim: int = 3000,
                 reduced_features: int = 100, temperature: float = 14.0,
                 alpha: float = 0.3,
                 manifold_lr: float = 1e-3, use_manifold: bool = True,
                 use_distillation: bool = True, seed: int = 0,
                 guard: Optional["NumericsGuard"] = None):
        root = fresh_rng((seed, "nshd"))
        self.extractor = FeatureExtractor(model, layer_index)
        self.teacher = TeacherModel(model)
        self.num_classes = model.num_classes
        self.dim = dim
        self.use_manifold = use_manifold
        self.use_distillation = use_distillation
        self.scaler = FeatureScaler()
        self.guard = guard
        self._train_rng = derive_rng(root, "train")

        if use_manifold:
            self.manifold: Optional[ManifoldLearner] = ManifoldLearner(
                self.extractor.feature_shape, out_features=reduced_features,
                lr=manifold_lr, rng=derive_rng(root, "manifold"),
                guard=guard)
            encoder_inputs = reduced_features
        else:
            self.manifold = None
            encoder_inputs = self.extractor.num_features
        self.encoder = RandomProjectionEncoder(
            encoder_inputs, dim, derive_rng(root, "projection"))

        if use_distillation:
            self.trainer: MassTrainer = DistillationTrainer(
                self.num_classes, dim, lr=HD_LR, temperature=temperature,
                alpha=alpha, guard=guard)
        else:
            self.trainer = MassTrainer(self.num_classes, dim, lr=HD_LR,
                                       guard=guard)

        stages = [ExtractStage(self.extractor), ScaleStage(self.scaler)]
        if self.manifold is not None:
            stages.append(ManifoldReduceStage.from_learner(self.manifold))
        stages.append(EncodeStage(self.encoder))
        stages.append(ClassifyStage.from_trainer(self.trainer))
        self.graph = StageGraph(stages, name="nshd")

    # ------------------------------------------------------------------
    @property
    def _encode_start(self) -> str:
        return "reduce" if self.manifold is not None else "encode"

    def encode_features(self, features_scaled: np.ndarray) -> np.ndarray:
        return self.graph.run(features_scaled, start=self._encode_start,
                              stop="classify")

    def _train_batch(self, features: np.ndarray, labels: np.ndarray,
                     **kwargs) -> Optional[float]:
        """Algorithm 1 on one batch of scaled features; returns the
        manifold loss, or None when no manifold step ran.

        With a manifold, :meth:`ManifoldLearner.train_step` runs the
        whole batch: one reduce → encode forward on the autograd tape,
        the update of M from it, and the FC step back through it (Sec.
        V-C).  Without one, the graph encodes the batch and only M is
        updated.
        """
        if self.manifold is None:
            self.trainer.step(self.graph.call("encode", features), labels,
                              **kwargs)
            return None
        return self.manifold.train_step(features, labels, self.trainer,
                                        self.encoder, **kwargs)

    # ------------------------------------------------------------------
    def fit(self, images: np.ndarray, labels: np.ndarray, epochs: int = 20,
            batch_size: int = 64) -> Dict[str, List[float]]:
        """Train class hypervectors (and the manifold FC) jointly.

        The frozen CNN runs exactly once per image: the extractor runs
        layers 0..k, the teacher continues from those features through
        the rest of the CNN, and both are cached up front.  That is the
        efficiency argument of Sec. VI-A (no CNN backpropagation anywhere
        in NSHD training).
        """
        raw_features = self.graph.call("extract", images)
        teacher_logits = None
        if self.use_distillation:
            teacher_logits = self.teacher.logits(
                raw_features, after=self.extractor.layer_index)
        return self.fit_features(raw_features, labels, teacher_logits,
                                 epochs=epochs, batch_size=batch_size)

    def fit_features(self, raw_features: np.ndarray, labels: np.ndarray,
                     teacher_logits: Optional[np.ndarray] = None,
                     epochs: int = 20, batch_size: int = 64,
                     initialize: bool = True,
                     checkpoint_path: Optional[str] = None,
                     checkpoint_every: int = 1,
                     resume: bool = False) -> Dict[str, List[float]]:
        """Like :meth:`fit` but on precomputed extractor features.

        Lets callers (benchmarks, multi-system comparisons) run the frozen
        CNN once and share the features across NSHD variants.  Pass
        ``initialize=False`` to continue training an already-initialized
        model instead of re-bootstrapping the manifold and centroids.

        Checkpoint/resume: with ``checkpoint_path`` set, all mutable state
        (class hypervectors, manifold FC + Adam moments, scaler stats,
        shuffle RNG, epoch counter) is written atomically every
        ``checkpoint_every`` epochs.  With ``resume=True`` an existing
        checkpoint is restored first and training continues from the next
        epoch — a run killed mid-way and resumed this way produces the
        *bit-identical* final model of an uninterrupted run.

        The epochs run through :func:`repro.learn.epochs.run_epochs`
        with :meth:`_train_batch` as the batch body.
        """
        labels = np.asarray(labels)
        if self.use_distillation and teacher_logits is None:
            raise ValueError("distillation requires teacher_logits")
        start_epoch, history, features = self._resume(
            raw_features, checkpoint_path, resume)
        rows = {"features": features, "labels": labels}
        if self.use_distillation:
            rows["teacher_logits"] = teacher_logits

        def warm_start() -> None:
            # Warm-start the manifold FC as an information-preserving
            # (PCA) projection of the pooled training features (Sec.
            # IV-C), then bootstrap M from centroids of the resulting
            # encoding.
            if self.manifold is not None:
                self.manifold.init_pca(features)
            self.trainer.initialize(self.encode_features(features), labels)

        def evaluate(outputs: List[Optional[float]]) -> Dict[str, float]:
            with span("pipeline.eval"):
                train_acc = self.trainer.accuracy(
                    self.encode_features(features), labels)
            losses = [loss for loss in outputs if loss is not None]
            return {"train_acc": train_acc,
                    "manifold_loss": float(np.mean(losses)) if losses
                    else 0.0}

        return self._run_epochs(
            rows, self._train_batch, evaluate,
            warm_start if initialize else None,
            epochs=epochs, batch_size=batch_size, start_epoch=start_epoch,
            history=history, checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every)


class BaselineHD(_HDPipeline):
    """Prior-work pipeline [9]: extractor + full-width projection + MASS."""

    def __init__(self, model: IndexedCNN, layer_index: int, dim: int = 3000,
                 seed: int = 0,
                 guard: Optional["NumericsGuard"] = None):
        root = fresh_rng((seed, "baselinehd"))
        self.extractor = FeatureExtractor(model, layer_index)
        self.num_classes = model.num_classes
        self.dim = dim
        self.scaler = FeatureScaler()
        self.guard = guard
        self.encoder = RandomProjectionEncoder(
            self.extractor.num_features, dim, derive_rng(root, "projection"))
        self.trainer = MassTrainer(self.num_classes, dim, lr=HD_LR,
                                   guard=guard)
        self._train_rng = derive_rng(root, "train")
        self.graph = StageGraph([
            ExtractStage(self.extractor),
            ScaleStage(self.scaler),
            EncodeStage(self.encoder),
            ClassifyStage.from_trainer(self.trainer),
        ], name="baselinehd")

    def fit(self, images: np.ndarray, labels: np.ndarray, epochs: int = 20,
            batch_size: int = 64, checkpoint_path: Optional[str] = None,
            checkpoint_every: int = 1, resume: bool = False
            ) -> Dict[str, List[float]]:
        raw_features = self.graph.call("extract", images)
        return self.fit_features(raw_features, labels,
                                 epochs=epochs, batch_size=batch_size,
                                 checkpoint_path=checkpoint_path,
                                 checkpoint_every=checkpoint_every,
                                 resume=resume)

    def fit_features(self, raw_features: np.ndarray, labels: np.ndarray,
                     epochs: int = 20, batch_size: int = 64,
                     checkpoint_path: Optional[str] = None,
                     checkpoint_every: int = 1, resume: bool = False
                     ) -> Dict[str, List[float]]:
        """Like :meth:`fit` but on precomputed extractor features.

        Checkpoint/resume semantics match :meth:`NSHD.fit_features`.
        """
        return self._fit_encoded(raw_features, labels, epochs, batch_size,
                                 checkpoint_path, checkpoint_every, resume)


class VanillaHD(_HDPipeline):
    """Standalone HD learning on raw pixels (nonlinear encoding [6])."""

    def __init__(self, num_classes: int, image_size: int = 32,
                 dim: int = 3000, seed: int = 0,
                 guard: Optional["NumericsGuard"] = None):
        root = fresh_rng((seed, "vanillahd"))
        self.num_classes = num_classes
        self.dim = dim
        self.num_features = 3 * image_size * image_size
        self.scaler = FeatureScaler()
        self.guard = guard
        self.encoder = NonlinearEncoder(self.num_features, dim,
                                        derive_rng(root, "basis"),
                                        bandwidth=VANILLA_BANDWIDTH)
        self.trainer = MassTrainer(num_classes, dim, lr=HD_LR, guard=guard)
        self._train_rng = derive_rng(root, "train")
        self.graph = StageGraph([
            FlattenStage(),
            ScaleStage(self.scaler),
            EncodeStage(self.encoder),
            ClassifyStage.from_trainer(self.trainer),
        ], name="vanillahd")

    def fit(self, images: np.ndarray, labels: np.ndarray, epochs: int = 20,
            batch_size: int = 64, checkpoint_path: Optional[str] = None,
            checkpoint_every: int = 1, resume: bool = False
            ) -> Dict[str, List[float]]:
        flat = np.asarray(images).reshape(len(images), -1)
        return self._fit_encoded(flat, labels, epochs, batch_size,
                                 checkpoint_path, checkpoint_every, resume)
