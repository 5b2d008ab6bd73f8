"""Optimizers and learning-rate schedules for the CNN substrate."""

from __future__ import annotations

from typing import Dict, Iterable, List

import numpy as np

from .tensor import Tensor

__all__ = ["Optimizer", "Adam", "CosineLR"]


class Optimizer:
    """Base optimizer holding a parameter list and a learning rate."""

    def __init__(self, params: Iterable[Tensor], lr: float):
        self.params: List[Tensor] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Checkpointing.  Slot state (momenta etc.) is keyed by the *index*
    # of each parameter in ``self.params`` so it survives serialization
    # (the in-memory keying by ``id()`` obviously does not).
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Serializable optimizer state (slot variables, step counters)."""
        return {}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore state written by :meth:`state_dict`."""
        if state:
            raise ValueError(
                f"{type(self).__name__} carries no state but got keys "
                f"{sorted(state)}")

    def _slot_from_state(self, key: str, value: np.ndarray) -> np.ndarray:
        """Validate an indexed slot entry against its parameter's shape."""
        index = int(key.rsplit(".", 1)[1])
        if not 0 <= index < len(self.params):
            raise ValueError(f"optimizer state key {key!r} indexes "
                             f"parameter {index} but only "
                             f"{len(self.params)} exist")
        value = np.asarray(value, dtype=np.float64)
        if value.shape != self.params[index].shape:
            raise ValueError(
                f"optimizer state {key!r} has shape {value.shape}, "
                f"expected {self.params[index].shape}")
        return value


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba)."""

    def __init__(self, params: Iterable[Tensor], lr: float = 1e-3,
                 betas=(0.9, 0.999), eps: float = 1e-8):
        super().__init__(params, lr)
        self.beta1, self.beta2 = betas
        self.eps = eps
        self._m: Dict[int, np.ndarray] = {}
        self._v: Dict[int, np.ndarray] = {}
        self._t = 0

    def step(self) -> None:
        self._t += 1
        bias1 = 1.0 - self.beta1 ** self._t
        bias2 = 1.0 - self.beta2 ** self._t
        for param in self.params:
            if param.grad is None:
                continue
            grad = param.grad
            m = self._m.get(id(param))
            v = self._v.get(id(param))
            if m is None:
                m = np.zeros_like(param.data)
                v = np.zeros_like(param.data)
            m = self.beta1 * m + (1.0 - self.beta1) * grad
            v = self.beta2 * v + (1.0 - self.beta2) * grad * grad
            self._m[id(param)] = m
            self._v[id(param)] = v
            m_hat = m / bias1
            v_hat = v / bias2
            param.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_dict(self) -> Dict[str, np.ndarray]:
        out: Dict[str, np.ndarray] = {"step": np.asarray(self._t)}
        for index, param in enumerate(self.params):
            m = self._m.get(id(param))
            if m is not None:
                out[f"m.{index}"] = m.copy()
                out[f"v.{index}"] = self._v[id(param)].copy()
        return out

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        if "step" not in state:
            raise ValueError("Adam state is missing the 'step' counter")
        moments_m: Dict[int, np.ndarray] = {}
        moments_v: Dict[int, np.ndarray] = {}
        for key, value in state.items():
            if key == "step":
                continue
            if key.startswith("m."):
                target = moments_m
            elif key.startswith("v."):
                target = moments_v
            else:
                raise ValueError(f"unknown Adam state key {key!r}")
            index = int(key.rsplit(".", 1)[1])
            target[id(self.params[index])] = self._slot_from_state(key, value)
        if set(moments_m) != set(moments_v):
            raise ValueError("Adam state has mismatched m/v entries")
        self._t = int(state["step"])
        self._m = moments_m
        self._v = moments_v


class CosineLR:
    """Cosine-annealed learning rate over ``total_epochs``."""

    def __init__(self, optimizer: Optimizer, total_epochs: int,
                 min_lr: float = 0.0):
        self.optimizer = optimizer
        self.total_epochs = max(1, total_epochs)
        self.min_lr = min_lr
        self.base_lr = optimizer.lr
        self.epoch = 0

    def step(self) -> None:
        self.epoch += 1
        progress = min(1.0, self.epoch / self.total_epochs)
        cosine = 0.5 * (1.0 + np.cos(np.pi * progress))
        self.optimizer.lr = self.min_lr + (self.base_lr - self.min_lr) * cosine
