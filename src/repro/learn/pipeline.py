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
graph; and the training loops run individual stages through the graph
runner (which owns the ``stage.*`` telemetry spans).  Checkpoints hold
training state only: the pipeline class that restores one builds its own
graph, and a serve bundle describes its model through
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
from ..telemetry import clock, get_registry, span
from ..utils.rng import derive_rng, fresh_rng, get_rng_state, set_rng_state
from .callbacks import CheckpointCallback
from .distill import DistillationTrainer
from .manifold import ManifoldLearner
from .mass import MassTrainer

if TYPE_CHECKING:  # avoid an import cycle; the guard is duck-typed
    from ..reliability.guards import NumericsGuard

__all__ = ["FeatureScaler", "NSHD", "BaselineHD", "VanillaHD",
           "CHECKPOINT_VERSION"]

#: Version tag written into pipeline checkpoint manifests.
CHECKPOINT_VERSION = 1


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

    def _maybe_resume(self, checkpoint_path: Optional[str], resume: bool
                      ) -> Tuple[int, Optional[Dict[str, List[float]]]]:
        """Resolve resume semantics shared by the three ``fit`` paths.

        Returns ``(start_epoch, saved_history)``; a missing checkpoint
        under ``resume=True`` silently starts fresh (first run of a
        to-be-resumed job), while a *corrupt* one raises so the caller
        can decide how to degrade.
        """
        if not resume:
            return 0, None
        if not checkpoint_path:
            raise ValueError("resume=True requires checkpoint_path")
        if not os.path.exists(checkpoint_path):
            return 0, None
        epoch, history = self.load_checkpoint(checkpoint_path)
        return epoch, history

    def _trainer_fit_checkpointed(
            self, encoded: np.ndarray, labels: np.ndarray, epochs: int,
            batch_size: int, start_epoch: int,
            saved_history: Optional[Dict[str, List[float]]],
            checkpoint_path: Optional[str], checkpoint_every: int,
            extra_per_sample: Optional[Dict[str, np.ndarray]] = None,
            callbacks: Optional[List] = None
    ) -> Dict[str, List[float]]:
        """Run ``trainer.fit`` with per-epoch atomic checkpoint writes.

        Checkpointing rides the :class:`repro.learn.callbacks
        .CheckpointCallback` hook (the ad-hoc ``epoch_callback`` closure
        this used to build is gone); the callback also merges the history
        restored from a previous checkpoint into every write so the
        persisted history stays complete across resumes.  Caller-supplied
        ``callbacks`` (telemetry, HD diagnostics, early stopping) run
        before the checkpoint callback each epoch.
        """
        callbacks = list(callbacks or [])
        checkpoint_cb = None
        if checkpoint_path:
            checkpoint_cb = CheckpointCallback(
                self, checkpoint_path, every=checkpoint_every,
                total_epochs=epochs, history_prefix=saved_history)
            callbacks.append(checkpoint_cb)
        history = self.trainer.fit(
            encoded, labels, epochs=epochs, batch_size=batch_size,
            rng=self._train_rng, initialize=(start_epoch == 0),
            extra_per_sample=extra_per_sample, start_epoch=start_epoch,
            callbacks=callbacks)
        if checkpoint_cb is not None:
            return checkpoint_cb.merged_history(history)
        prefix = {key: list(values)
                  for key, values in (saved_history or {}).items()}
        for key, values in history.items():
            prefix[key] = prefix.get(key, []) + list(values)
        return prefix


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
                 alpha: float = 0.3, hd_lr: float = 0.05,
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
                self.num_classes, dim, lr=hd_lr, temperature=temperature,
                alpha=alpha, guard=guard)
        else:
            self.trainer = MassTrainer(self.num_classes, dim, lr=hd_lr,
                                       guard=guard)

        stages = [ExtractStage(self.extractor), ScaleStage(self.scaler)]
        if self.manifold is not None:
            stages.append(ManifoldReduceStage.from_learner(self.manifold))
        stages.append(EncodeStage(self.encoder))
        stages.append(ClassifyStage.from_trainer(self.trainer))
        self.graph = StageGraph(stages, name="nshd")

    # ------------------------------------------------------------------
    def _reduce_batch(self, features: np.ndarray) -> np.ndarray:
        """Instrumented manifold reduction for the training loop.

        With no manifold learner this is the identity — still wrapped in
        the historical ``stage.manifold`` span so ablation runs keep the
        same telemetry shape.
        """
        if self.manifold is not None:
            return self.graph.call("reduce", features)
        with span("stage.manifold",
                  nbytes=int(np.asarray(features).nbytes)):
            return features

    @property
    def _encode_start(self) -> str:
        return "reduce" if self.manifold is not None else "encode"

    def encode_features(self, features_scaled: np.ndarray) -> np.ndarray:
        return self.graph.run(features_scaled, start=self._encode_start,
                              stop="classify")

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
    def fit(self, images: np.ndarray, labels: np.ndarray, epochs: int = 20,
            batch_size: int = 64, verbose: bool = False,
            callbacks: Optional[List] = None) -> Dict[str, List[float]]:
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
                                 epochs=epochs, batch_size=batch_size,
                                 verbose=verbose, callbacks=callbacks)

    def fit_features(self, raw_features: np.ndarray, labels: np.ndarray,
                     teacher_logits: Optional[np.ndarray] = None,
                     epochs: int = 20, batch_size: int = 64,
                     initialize: bool = True,
                     verbose: bool = False,
                     checkpoint_path: Optional[str] = None,
                     checkpoint_every: int = 1,
                     resume: bool = False,
                     callbacks: Optional[List] = None
                     ) -> Dict[str, List[float]]:
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

        ``callbacks`` follow the :class:`repro.learn.callbacks
        .TrainerCallback` protocol (``on_fit_start`` receives the inner
        HD trainer so e.g. :class:`repro.telemetry.DiagnosticsCallback`
        can watch ``class_matrix``); ``should_stop()`` ends training
        early, mirroring :meth:`MassTrainer.fit`.
        """
        labels = np.asarray(labels)
        if self.use_distillation and teacher_logits is None:
            raise ValueError("distillation requires teacher_logits")
        callbacks = list(callbacks or [])

        start_epoch, saved_history = self._maybe_resume(checkpoint_path,
                                                        resume)
        if start_epoch > 0:
            # Scaler statistics (and everything else) came from the
            # checkpoint; do not re-fit or re-initialize.
            features = self.scaler.transform(raw_features)
            initialize = False
        else:
            features = self.scaler.fit_transform(raw_features)

        # Warm-start the manifold FC as an information-preserving (PCA)
        # projection of the pooled training features (Sec. IV-C), then
        # bootstrap M from centroids of the resulting encoding.
        if initialize:
            if self.manifold is not None:
                self.manifold.init_pca(features)
            self.trainer.initialize(self.encode_features(features), labels)

        history: Dict[str, List[float]] = {
            "train_acc": list((saved_history or {}).get("train_acc", [])),
            "manifold_loss": list((saved_history or {}).get("manifold_loss",
                                                            [])),
            "epoch_time": list((saved_history or {}).get("epoch_time", [])),
        }
        registry = get_registry()
        for callback in callbacks:
            callback.on_fit_start(self.trainer, epochs)
        for epoch in range(start_epoch, epochs):
            epoch_start = clock()
            # Fresh permutation per epoch: the ordering is a pure function
            # of the RNG state, which is what lets a restored checkpoint
            # replay the remaining epochs bit-exactly.
            indices = self._train_rng.permutation(len(features))
            epoch_losses = []
            for start in range(0, len(indices), batch_size):
                batch = indices[start:start + batch_size]
                feats_b = features[batch]
                reduced = self._reduce_batch(feats_b)
                encoded = self.graph.call("encode", reduced)
                kwargs = {}
                if self.use_distillation:
                    kwargs["teacher_logits"] = teacher_logits[batch]
                # Algorithm 1: update M from this batch ...
                applied = self.trainer.step(encoded, labels[batch], **kwargs)
                # ... then propagate the resulting error direction through
                # the HD encoder into the manifold FC (Sec. V-C).  A batch
                # vetoed by the numerics guard skips both halves.
                if applied and self.manifold is not None:
                    update = self.trainer.compute_update(
                        encoded, labels[batch], **kwargs)
                    loss = self.manifold.train_step(
                        feats_b, update, self.encoder,
                        self.trainer.class_matrix)
                    epoch_losses.append(loss)
            with span("pipeline.eval"):
                encoded_all = self.encode_features(features)
                train_acc = self.trainer.accuracy(encoded_all, labels)
            epoch_time = clock() - epoch_start
            history["train_acc"].append(train_acc)
            history["manifold_loss"].append(
                float(np.mean(epoch_losses)) if epoch_losses else 0.0)
            history["epoch_time"].append(epoch_time)
            registry.inc("train.epochs")
            registry.set_gauge("train.epoch", float(epoch))
            registry.set_gauge("train.train_acc", train_acc)
            registry.observe("train.epoch_time_s", epoch_time)
            metrics = {"epoch": epoch, "train_acc": train_acc,
                       "manifold_loss": history["manifold_loss"][-1],
                       "epoch_time_s": epoch_time, "history": history}
            for callback in callbacks:
                callback.on_epoch_end(epoch, metrics)
            if checkpoint_path and ((epoch + 1) % checkpoint_every == 0
                                    or epoch + 1 == epochs):
                self.save_checkpoint(checkpoint_path, epoch + 1, history)
            if verbose:
                print(f"NSHD epoch {len(history['train_acc'])}: "
                      f"train_acc={history['train_acc'][-1]:.3f}")
            if any(callback.should_stop() for callback in callbacks):
                break
        for callback in callbacks:
            callback.on_fit_end(history)
        return history


class BaselineHD(_HDPipeline):
    """Prior-work pipeline [9]: extractor + full-width projection + MASS."""

    def __init__(self, model: IndexedCNN, layer_index: int, dim: int = 3000,
                 hd_lr: float = 0.05, seed: int = 0,
                 guard: Optional["NumericsGuard"] = None):
        root = fresh_rng((seed, "baselinehd"))
        self.extractor = FeatureExtractor(model, layer_index)
        self.num_classes = model.num_classes
        self.dim = dim
        self.scaler = FeatureScaler()
        self.guard = guard
        self.encoder = RandomProjectionEncoder(
            self.extractor.num_features, dim, derive_rng(root, "projection"))
        self.trainer = MassTrainer(self.num_classes, dim, lr=hd_lr,
                                   guard=guard)
        self._train_rng = derive_rng(root, "train")
        self.graph = StageGraph([
            ExtractStage(self.extractor),
            ScaleStage(self.scaler),
            EncodeStage(self.encoder),
            ClassifyStage.from_trainer(self.trainer),
        ], name="baselinehd")

    def predict_features(self, raw_features: np.ndarray) -> np.ndarray:
        """Predict from precomputed extractor features."""
        encoded = self.graph.run(raw_features, start="scale",
                                 stop="classify")
        return np.asarray(self.graph.call("classify", encoded))

    def accuracy_features(self, raw_features: np.ndarray,
                          labels: np.ndarray) -> float:
        return float((self.predict_features(raw_features) ==
                      np.asarray(labels)).mean())

    def fit(self, images: np.ndarray, labels: np.ndarray, epochs: int = 20,
            batch_size: int = 64, checkpoint_path: Optional[str] = None,
            checkpoint_every: int = 1, resume: bool = False,
            callbacks: Optional[List] = None) -> Dict[str, List[float]]:
        raw_features = self.graph.call("extract", images)
        return self.fit_features(raw_features, labels,
                                 epochs=epochs, batch_size=batch_size,
                                 checkpoint_path=checkpoint_path,
                                 checkpoint_every=checkpoint_every,
                                 resume=resume, callbacks=callbacks)

    def fit_features(self, raw_features: np.ndarray, labels: np.ndarray,
                     epochs: int = 20, batch_size: int = 64,
                     checkpoint_path: Optional[str] = None,
                     checkpoint_every: int = 1, resume: bool = False,
                     callbacks: Optional[List] = None
                     ) -> Dict[str, List[float]]:
        """Like :meth:`fit` but on precomputed extractor features.

        Checkpoint/resume and callback semantics match
        :meth:`NSHD.fit_features`.
        """
        labels = np.asarray(labels)
        start_epoch, saved_history = self._maybe_resume(checkpoint_path,
                                                        resume)
        if start_epoch > 0:
            scaled = self.scaler.transform(raw_features)
        else:
            scaled = self.scaler.fit_transform(raw_features)
        encoded = self.graph.call("encode", scaled)
        return self._trainer_fit_checkpointed(
            encoded, labels, epochs, batch_size, start_epoch, saved_history,
            checkpoint_path, checkpoint_every, callbacks=callbacks)


class VanillaHD(_HDPipeline):
    """Standalone HD learning on raw pixels (nonlinear encoding [6])."""

    def __init__(self, num_classes: int, image_size: int = 32,
                 dim: int = 3000, hd_lr: float = 0.05,
                 bandwidth: float = 0.01, seed: int = 0,
                 guard: Optional["NumericsGuard"] = None):
        root = fresh_rng((seed, "vanillahd"))
        self.num_classes = num_classes
        self.dim = dim
        self.num_features = 3 * image_size * image_size
        self.scaler = FeatureScaler()
        self.guard = guard
        self.encoder = NonlinearEncoder(self.num_features, dim,
                                        derive_rng(root, "basis"),
                                        bandwidth=bandwidth)
        self.trainer = MassTrainer(num_classes, dim, lr=hd_lr, guard=guard)
        self._train_rng = derive_rng(root, "train")
        self.graph = StageGraph([
            FlattenStage(),
            ScaleStage(self.scaler),
            EncodeStage(self.encoder),
            ClassifyStage.from_trainer(self.trainer),
        ], name="vanillahd")

    def fit(self, images: np.ndarray, labels: np.ndarray, epochs: int = 20,
            batch_size: int = 64, checkpoint_path: Optional[str] = None,
            checkpoint_every: int = 1, resume: bool = False,
            callbacks: Optional[List] = None) -> Dict[str, List[float]]:
        labels = np.asarray(labels)
        flat = np.asarray(images).reshape(len(images), -1)
        start_epoch, saved_history = self._maybe_resume(checkpoint_path,
                                                        resume)
        if start_epoch > 0:
            features = self.scaler.transform(flat)
        else:
            features = self.scaler.fit_transform(flat)
        encoded = self.graph.call("encode", features)
        return self._trainer_fit_checkpointed(
            encoded, labels, epochs, batch_size, start_epoch, saved_history,
            checkpoint_path, checkpoint_every, callbacks=callbacks)
