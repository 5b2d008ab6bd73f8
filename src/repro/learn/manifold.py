"""The manifold learner: learning-driven feature compression (Sec. IV-C/V-C).

NSHD inserts a *manifold layer* between the CNN feature extractor and the
HD encoder: a max-pool (window 2) followed by a fully-connected regressor
``Ψ: R^F → R^F̂`` that shrinks the enormous convolutional feature count F
down to F̂ (100 in the paper) before the F̂×D random projection.

Training (Sec. V-C) backpropagates the class-hypervector errors *through
the HD encoder* into the FC layer:

* the class-wise error hypervectors are ``E = λ Uᵀ H`` (the same ``U`` as
  Algorithm 1);
* the non-differentiable ``sign`` in the encoder is bypassed with a
  straight-through estimator (BinaryNet-style);
* HD decoding — binding with the projection hypervectors ``P`` followed by
  a dot product — maps the error back to the manifold output space, which
  is algebraically the adjoint ``E @ Pᵀ``; from there ordinary
  backpropagation updates the FC weights.

The implementation realizes this by building the loss
``L = −⟨U, δ(M, Φ_P(Ψ(V)))⟩`` on the autograd tape with
:meth:`Tensor.sign_ste`; its gradient with respect to the FC output is
exactly the decoded error hypervector described in the paper.  The
same tape's hypervectors feed the MASS update of M, so a training batch
runs the forward once (:meth:`ManifoldLearner.train_step`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Tuple

import numpy as np

from .. import nn
from ..hd.encoders import RandomProjectionEncoder
from ..nn import Tensor
from ..nn import functional as F
from ..telemetry import get_registry, span

if TYPE_CHECKING:  # avoid an import cycle; the guard is duck-typed
    from ..reliability.guards import NumericsGuard
    from .mass import MassTrainer

__all__ = ["ManifoldLearner"]


class ManifoldLearner:
    """Max-pool + fully-connected feature compressor Ψ.

    Parameters
    ----------
    feature_shape:
        (C, H, W) of the extractor output at the chosen cut layer.
    out_features:
        F̂, the compressed feature count fed to the HD encoder.
    lr:
        Learning rate of the FC regressor's Adam optimizer.
    guard:
        Optional :class:`repro.reliability.NumericsGuard`; when set,
        losses and FC gradients are vetted before each optimizer step so
        a NaN batch can never corrupt the manifold weights.
    """

    def __init__(self, feature_shape: Tuple[int, int, int],
                 out_features: int = 100, lr: float = 1e-3,
                 rng: Optional[np.random.Generator] = None,
                 guard: Optional["NumericsGuard"] = None):
        if len(feature_shape) != 3:
            raise ValueError("feature_shape must be (C, H, W)")
        if out_features <= 0:
            raise ValueError("out_features must be positive")
        rng = rng or np.random.default_rng()
        self.feature_shape = tuple(int(s) for s in feature_shape)
        self.out_features = out_features
        channels, height, width = self.feature_shape
        self.pooling = height >= 2 and width >= 2
        if self.pooling:
            pooled = channels * (height // 2) * (width // 2)
        else:
            pooled = channels * height * width
        self.pooled_features = pooled
        self.in_features = channels * height * width
        self.guard = guard
        self.fc = nn.Linear(pooled, out_features, rng=rng)
        self.optimizer = nn.Adam(self.fc.parameters(), lr=lr)

    # ------------------------------------------------------------------
    def _pooled_tensor(self, features_flat: np.ndarray) -> Tensor:
        features_flat = np.atleast_2d(features_flat)
        if features_flat.shape[1] != self.in_features:
            raise ValueError(
                f"expected {self.in_features} features, got "
                f"{features_flat.shape[1]}")
        x = Tensor(features_flat.reshape(-1, *self.feature_shape))
        if self.pooling:
            x = F.max_pool2d(x, kernel=2)
        return x.flatten(1)

    def forward_tensor(self, features_flat: np.ndarray) -> Tensor:
        """Ψ(V) on the autograd tape (gradients flow into the FC layer)."""
        return self.fc(self._pooled_tensor(features_flat))

    def init_pca(self, features_flat: np.ndarray) -> None:
        """Warm-start the FC regressor with a PCA projection.

        The paper motivates the manifold layer as an "effective
        information-preserving projection" learned in the spirit of
        FitNets-style regression [19].  Starting the regressor at the
        top-F̂ principal components of the pooled training features gives
        it exactly that property from step one; the HD error-decoding
        updates (:meth:`train_step`) then specialize it to the
        classification objective.  Whitening (scaling each component to
        unit variance) keeps all F̂ outputs informative to the bipolar
        projection signs.
        """
        with nn.no_grad():
            pooled = self._pooled_tensor(features_flat).data
        mean = pooled.mean(axis=0)
        centered = pooled - mean
        # Economy SVD: components = right singular vectors.
        _, singular, vt = np.linalg.svd(centered, full_matrices=False)
        count = min(self.out_features, vt.shape[0])
        scales = singular[:count] / np.sqrt(max(1, len(pooled) - 1))
        scales = np.where(scales < 1e-8, 1.0, scales)
        weight = np.zeros((self.out_features, self.pooled_features))
        weight[:count] = vt[:count] / scales[:, None]
        self.fc.weight.data = weight
        if self.fc.bias is not None:
            self.fc.bias.data = -weight @ mean

    def transform(self, features_flat: np.ndarray) -> np.ndarray:
        """Ψ(V) as plain numpy (inference path)."""
        with nn.no_grad():
            return self.forward_tensor(features_flat).data

    # ------------------------------------------------------------------
    def train_step(self, features_flat: np.ndarray, labels: np.ndarray,
                   trainer: "MassTrainer", encoder: RandomProjectionEncoder,
                   **update_kwargs) -> Optional[float]:
        """Algorithm 1 on one batch, with the FC co-trained (Sec. V-C).

        The batch's one forward, Ψ → ``@ P`` → ``sign_ste``, is built on
        the autograd tape.  The trainer updates M from the tape's
        hypervectors; the update U against that new M, treated as a
        constant target, is then backpropagated through the same tape
        into the FC layer.

        Parameters
        ----------
        features_flat:
            ``(n, F)`` scaled extractor features for the batch.
        labels:
            ``(n,)`` class labels.
        trainer:
            The HD trainer that owns M (its ``step``, ``compute_update``
            and ``class_matrix``).
        encoder:
            The Φ_P random-projection encoder that follows Ψ.
        update_kwargs:
            Side inputs of the update rule (``teacher_logits``).

        Returns the scalar surrogate loss, or None when the numerics
        guard vetoes the MASS step or the FC step.
        """
        if encoder.in_features != self.out_features:
            raise ValueError("encoder input size must match manifold output")
        nbytes = int(np.asarray(features_flat).nbytes)
        with span("stage.manifold", nbytes=nbytes):
            reduced = self.forward_tensor(features_flat)
        # The encoder's own span and hd.encode.* counters: this `@ P` is
        # the batch's encode.
        with span("stage.encode", nbytes=int(reduced.data.nbytes)), \
                encoder._telemetry_span(reduced.data):
            encoded = (reduced @ Tensor(encoder.projection)).sign_ste()
        if not trainer.step(encoded.data, labels, **update_kwargs):
            return None
        update = trainer.compute_update(encoded.data, labels,
                                        **update_kwargs)
        with span("stage.manifold", nbytes=nbytes):
            # δ scaled by 1/D: constant positive factor, irrelevant to the
            # direction of the gradient, keeps magnitudes O(1).
            sims = ((encoded @ Tensor(trainer.class_matrix.T))
                    * (1.0 / encoder.dim))
            loss = -(Tensor(update) * sims).sum() * (1.0 / len(update))
            self.optimizer.zero_grad()
            loss.backward()
            if self.guard is not None and not self.guard.ok(
                    "manifold.step", np.asarray(loss.item()),
                    *[p.grad for p in self.fc.parameters()
                      if p.grad is not None]):
                # Veto: drop the poisoned gradients and leave the FC
                # weights and Adam state untouched.
                self.optimizer.zero_grad()
                get_registry().inc("manifold.vetoed_steps")
                return None
            self.optimizer.step()
            return float(loss.item())

    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Serializable learner state: FC weights *and* Adam moments.

        Including the optimizer slots (m, v, step) is what makes a resumed
        run bit-identical to an uninterrupted one — Adam's bias correction
        and effective step size depend on them.
        """
        state = {f"fc.{name}": value
                 for name, value in self.fc.state_dict().items()}
        state.update({f"optimizer.{name}": value
                      for name, value in self.optimizer.state_dict().items()})
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore state written by :meth:`state_dict`."""
        fc_state = {name[len("fc."):]: value for name, value in state.items()
                    if name.startswith("fc.")}
        opt_state = {name[len("optimizer."):]: value
                     for name, value in state.items()
                     if name.startswith("optimizer.")}
        unknown = sorted(set(state) - {f"fc.{k}" for k in fc_state}
                         - {f"optimizer.{k}" for k in opt_state})
        if unknown:
            raise ValueError(
                f"ManifoldLearner state dict has unknown keys {unknown}")
        self.fc.load_state_dict(fc_state)
        self.optimizer.load_state_dict(opt_state)

    # ------------------------------------------------------------------
    def macs_per_sample(self) -> int:
        """MACs for one Ψ forward: just the FC GEMM (pooling is compares)."""
        return self.pooled_features * self.out_features
