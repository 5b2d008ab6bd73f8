"""Reverse-mode automatic differentiation on numpy arrays.

This module is the foundation of the deep-learning substrate used by the
NSHD reproduction.  It implements a small but complete autograd engine in
the style of PyTorch: a :class:`Tensor` wraps a ``numpy.ndarray`` and every
differentiable operation records a backward closure on a dynamically built
tape.  Calling :meth:`Tensor.backward` walks the tape in reverse
topological order and accumulates gradients.

Only the operations that the NSHD pipeline actually needs are implemented,
but each is implemented with full broadcasting support and is validated
against finite differences in the test suite.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

__all__ = ["Tensor", "no_grad", "stack", "concatenate"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient tape recording.

    Used for inference passes (e.g. running a frozen feature extractor)
    where building the tape would waste memory.
    """
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


ArrayLike = Union["Tensor", np.ndarray, float, int, list, tuple]


def _as_array(value: ArrayLike) -> np.ndarray:
    if isinstance(value, Tensor):
        return value.data
    return np.asarray(value, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """Reduce ``grad`` so that it matches ``shape``.

    Numpy broadcasting implicitly expands operands; the corresponding
    gradient operation is a sum over the broadcast axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor that supports reverse-mode autodiff.

    Parameters
    ----------
    data:
        Anything convertible to a ``numpy.ndarray`` of ``float64``.
    requires_grad:
        When ``True`` (and grad mode is enabled) operations involving this
        tensor are recorded so that :meth:`backward` can compute ``grad``.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data: ArrayLike, requires_grad: bool = False,
                 name: Optional[str] = None):
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: Optional[np.ndarray] = None
        self._backward: Optional[Callable[[np.ndarray], None]] = None
        self._parents: Tuple[Tensor, ...] = ()
        self.name = name

    # ------------------------------------------------------------------
    # Basic introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_note = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_note})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.item())

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Tape construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        requires = _GRAD_ENABLED and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.shape)
        if self.grad is None:
            self.grad = grad.copy()
        else:
            self.grad += grad

    def backward(self, grad: Optional[np.ndarray] = None) -> None:
        """Backpropagate from this tensor through the recorded tape."""
        if grad is None:
            if self.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a "
                    f"scalar tensor, got shape {self.shape}")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)
        if grad.shape != self.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match tensor shape "
                f"{self.shape}")

        order: List[Tensor] = []
        visited = set()

        def visit(node: Tensor) -> None:
            stack = [(node, iter(node._parents))]
            visited.add(id(node))
            while stack:
                current, parents = stack[-1]
                advanced = False
                for parent in parents:
                    if id(parent) not in visited and parent.requires_grad:
                        visited.add(id(parent))
                        stack.append((parent, iter(parent._parents)))
                        advanced = True
                        break
                if not advanced:
                    order.append(current)
                    stack.pop()

        visit(self)

        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other_t._accumulate(grad)

        return Tensor._make(data, (self, other_t), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other_t._accumulate(-grad)

        return Tensor._make(data, (self, other_t), backward)

    def __rsub__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other_t.data)
            other_t._accumulate(grad * self.data)

        return Tensor._make(data, (self, other_t), backward)

    __rmul__ = __mul__

    def __truediv__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other_t.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other_t.data)
            other_t._accumulate(-grad * self.data / (other_t.data ** 2))

        return Tensor._make(data, (self, other_t), backward)

    def __rtruediv__(self, other: ArrayLike) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        if not np.isscalar(exponent):
            raise TypeError("only scalar exponents are supported")
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1))

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other: ArrayLike) -> "Tensor":
        other_t = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other_t.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other_t.data.ndim == 1:
                    self._accumulate(np.outer(grad, other_t.data)
                                     if grad.ndim == 1 else
                                     grad[..., None] * other_t.data)
                else:
                    self._accumulate(grad @ np.swapaxes(other_t.data, -1, -2))
            if other_t.requires_grad:
                if self.data.ndim == 1:
                    other_t._accumulate(np.outer(self.data, grad)
                                        if grad.ndim == 1 else
                                        self.data[..., None] @ grad[None, :])
                else:
                    other_t._accumulate(np.swapaxes(self.data, -1, -2) @ grad)

        return Tensor._make(data, (self, other_t), backward)

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data * (1.0 - data))

        return Tensor._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward)

    def clamp(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)
        mask = (self.data > low) & (self.data < high)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)
        sign = np.sign(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * sign)

        return Tensor._make(data, (self,), backward)

    def sign_ste(self) -> "Tensor":
        """Sign with a straight-through estimator gradient.

        Forward: ``sign(x)`` (zeros map to +1 so outputs are bipolar;
        NaN maps to -1).
        Backward: identity gradient clipped to ``|x| <= 1``, the standard
        straight-through estimator used for binary neural networks
        (Courbariaux et al., BinaryNet) and adopted by NSHD's manifold
        training (Sec. V-C of the paper).
        """
        # The serving quantizer's expression (repro.hd.hypervector.
        # hard_quantize; importing it would cycle through telemetry), so
        # a trained manifold and the served encoder agree bit for bit.
        data = (self.data >= 0) * 2.0 - 1.0
        mask = np.abs(self.data) <= 1.0

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * mask)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(expanded, self.shape))

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded_val = data
            expanded_grad = grad
            if axis is not None and not keepdims:
                expanded_val = np.expand_dims(data, axis)
                expanded_grad = np.expand_dims(grad, axis)
            mask = (self.data == expanded_val)
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None \
                else mask.sum()
            self._accumulate(mask * expanded_grad / counts)

        return Tensor._make(data, (self,), backward)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        centered = self - mu
        return (centered * centered).mean(axis=axis, keepdims=keepdims)

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.shape))

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.transpose(inverse))

        return Tensor._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def flatten(self, start_axis: int = 1) -> "Tensor":
        """Flatten all axes from ``start_axis`` onward (batch-preserving)."""
        new_shape = self.shape[:start_axis] + (-1,)
        return self.reshape(new_shape)

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------------
    # Comparisons (no gradient; returned as plain arrays)
    # ------------------------------------------------------------------
    def argmax(self, axis=None) -> np.ndarray:
        return self.data.argmax(axis=axis)

    def __eq__(self, other):  # type: ignore[override]
        return self.data == _as_array(other)

    def __hash__(self):
        return id(self)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new axis, propagating gradients."""
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(data, tensors, backward)


def concatenate(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along an existing axis, propagating gradients."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad: np.ndarray) -> None:
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            index = [slice(None)] * grad.ndim
            index[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(index)])

    return Tensor._make(data, tensors, backward)
