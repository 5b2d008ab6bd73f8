"""Layer/module abstractions built on the autograd engine.

The :class:`Module` base class mirrors the familiar PyTorch contract:
child modules and parameters are discovered by attribute assignment,
``state_dict`` round-trips through plain numpy arrays, and ``train()`` /
``eval()`` toggle behaviour of dropout and batch norm.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import functional as F
from .init import UNFILLED, kaiming_normal, uniform_fan_in
from .tensor import Tensor

__all__ = [
    "Parameter", "Module", "Sequential", "Conv2d", "Linear", "BatchNorm2d",
    "MaxPool2d", "AdaptiveAvgPool2d",
    "ReLU", "ReLU6", "SiLU", "Sigmoid", "Dropout", "Flatten", "Identity",
    "trace", "TraceRecord",
]


class Parameter(Tensor):
    """A tensor registered as a trainable parameter of a module."""

    def __init__(self, data, name: Optional[str] = None):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class for neural-network modules."""

    def __init__(self):
        self._parameters: Dict[str, Parameter] = {}
        self._buffers: Dict[str, np.ndarray] = {}
        self._modules: Dict[str, "Module"] = {}
        self.training = True

    # ------------------------------------------------------------------
    # Registration via attribute assignment
    # ------------------------------------------------------------------
    def __setattr__(self, name: str, value) -> None:
        if isinstance(value, Parameter):
            self.__dict__.setdefault("_parameters", {})[name] = value
        elif isinstance(value, Module):
            self.__dict__.setdefault("_modules", {})[name] = value
        object.__setattr__(self, name, value)

    def register_buffer(self, name: str, value: np.ndarray) -> None:
        """Register non-trainable state (e.g. batch-norm running stats)."""
        self._buffers[name] = value
        object.__setattr__(self, name, value)

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        for name, param in self._parameters.items():
            yield prefix + name, param
        for name, module in self._modules.items():
            yield from module.named_parameters(prefix + name + ".")

    def parameters(self) -> List[Parameter]:
        return [p for _, p in self.named_parameters()]

    def named_buffers(self, prefix: str = "") -> Iterator[Tuple[str, np.ndarray]]:
        for name, buf in self._buffers.items():
            yield prefix + name, buf
        for name, module in self._modules.items():
            yield from module.named_buffers(prefix + name + ".")

    def modules(self) -> Iterator["Module"]:
        yield self
        for child in self._modules.values():
            yield from child.modules()

    def zero_grad(self) -> None:
        for param in self.parameters():
            param.zero_grad()

    def num_parameters(self) -> int:
        """Total number of scalar trainable parameters."""
        return sum(p.size for p in self.parameters())

    # ------------------------------------------------------------------
    # Mode switching
    # ------------------------------------------------------------------
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for child in self._modules.values():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        state = {name: param.data.copy()
                 for name, param in self.named_parameters()}
        state.update({name: buf.copy() for name, buf in self.named_buffers()})
        return state

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        own_params = dict(self.named_parameters())
        own_buffers = dict(self.named_buffers())
        missing = (set(own_params) | set(own_buffers)) - set(state)
        if missing:
            raise KeyError(f"state dict is missing keys: {sorted(missing)}")
        for name, param in own_params.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.shape}, "
                    f"got {value.shape}")
            param.data = value.copy()
        for name, buf in own_buffers.items():
            value = np.asarray(state[name], dtype=buf.dtype)
            buf[...] = value

    # ------------------------------------------------------------------
    def forward(self, x: Tensor) -> Tensor:
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        out = self.forward(*args, **kwargs)
        if _TRACE_STACK and not self._modules:
            # Only leaf modules are traced; containers delegate to children.
            in_shapes = tuple(a.shape for a in args if isinstance(a, Tensor))
            out_shape = out.shape if isinstance(out, Tensor) else None
            _TRACE_STACK[-1].append(TraceRecord(self, in_shapes, out_shape))
        return out


class TraceRecord:
    """One leaf-module invocation captured by :func:`trace`."""

    __slots__ = ("module", "input_shapes", "output_shape")

    def __init__(self, module: "Module", input_shapes, output_shape):
        self.module = module
        self.input_shapes = input_shapes
        self.output_shape = output_shape

    def __repr__(self) -> str:
        return (f"TraceRecord({type(self.module).__name__}, "
                f"in={self.input_shapes}, out={self.output_shape})")


_TRACE_STACK: List[List[TraceRecord]] = []


class trace:
    """Context manager capturing every leaf-module call inside the block.

    Used by ``repro.hardware`` to count MACs and memory traffic from real
    layer shapes instead of hand-maintained tables::

        with nn.trace() as records:
            model(x)
        macs = sum(conv_macs(r) for r in records)
    """

    def __enter__(self) -> List[TraceRecord]:
        records: List[TraceRecord] = []
        _TRACE_STACK.append(records)
        return records

    def __exit__(self, exc_type, exc, tb) -> None:
        _TRACE_STACK.pop()


class Sequential(Module):
    """Run child modules in order; supports indexing and slicing."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers = list(layers)
        for i, layer in enumerate(layers):
            self._modules[str(i)] = layer

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Sequential(*self.layers[index])
        return self.layers[index]

    def __iter__(self):
        return iter(self.layers)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x


class Conv2d(Module):
    """2-D convolution layer with optional grouping."""

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int,
                 stride: int = 1, padding: int = 0, groups: int = 1,
                 bias: bool = True, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding
        self.groups = groups
        fan_in = (in_channels // groups) * kernel_size * kernel_size
        shape = (out_channels, in_channels // groups, kernel_size, kernel_size)
        self.weight = Parameter(np.zeros(shape) if rng is UNFILLED
                                else kaiming_normal(shape, fan_in, rng))
        self.bias = Parameter(np.zeros(out_channels)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.conv2d(x, self.weight, self.bias, stride=self.stride,
                        padding=self.padding, groups=self.groups)


class Linear(Module):
    """Fully-connected layer ``y = x W^T + b``."""

    def __init__(self, in_features: int, out_features: int, bias: bool = True,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        shape = (out_features, in_features)
        self.weight = Parameter(np.zeros(shape) if rng is UNFILLED
                                else uniform_fan_in(shape, in_features, rng))
        self.bias = Parameter(np.zeros(out_features)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        return F.linear(x, self.weight, self.bias)


class BatchNorm2d(Module):
    """Batch normalization over NCHW channel axis with running statistics."""

    def __init__(self, num_features: int, momentum: float = 0.1,
                 eps: float = 1e-5):
        super().__init__()
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(np.ones(num_features))
        self.beta = Parameter(np.zeros(num_features))
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def forward(self, x: Tensor) -> Tensor:
        return F.batch_norm2d(x, self.gamma, self.beta, self.running_mean,
                              self.running_var, self.training,
                              momentum=self.momentum, eps=self.eps)


class MaxPool2d(Module):
    def __init__(self, kernel_size: int = 2, stride: Optional[int] = None,
                 padding: int = 0):
        super().__init__()
        self.kernel_size = kernel_size
        self.stride = kernel_size if stride is None else stride
        self.padding = padding

    def forward(self, x: Tensor) -> Tensor:
        return F.max_pool2d(x, self.kernel_size, self.stride, self.padding)


class AdaptiveAvgPool2d(Module):
    def __init__(self, output_size: int = 1):
        super().__init__()
        self.output_size = output_size

    def forward(self, x: Tensor) -> Tensor:
        return F.adaptive_avg_pool2d(x, self.output_size)


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu(x)


class ReLU6(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.relu6(x)


class SiLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.silu(x)


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return F.sigmoid(x)


class Dropout(Module):
    def __init__(self, p: float = 0.5,
                 rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.p = p
        self.rng = rng or np.random.default_rng()

    def forward(self, x: Tensor) -> Tensor:
        return F.dropout(x, self.p, self.training, self.rng)


class Flatten(Module):
    def __init__(self, start_axis: int = 1):
        super().__init__()
        self.start_axis = start_axis

    def forward(self, x: Tensor) -> Tensor:
        return x.flatten(self.start_axis)


class Identity(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x
