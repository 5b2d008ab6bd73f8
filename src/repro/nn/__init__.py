"""Minimal deep-learning substrate (autograd, layers, optimizers).

This package stands in for PyTorch in the NSHD reproduction: it provides
just enough machinery to (i) train the CNN feature extractors / teachers,
(ii) backpropagate through the manifold learner with a straight-through
estimator, and (iii) serialize trained models.
"""

from . import functional
from .layers import (AdaptiveAvgPool2d, AvgPool2d, BatchNorm2d, Conv2d,
                     DepthwiseConv2d, Dropout, Flatten, Identity, Linear,
                     MaxPool2d, Module, Parameter, ReLU, ReLU6, Sequential,
                     Sigmoid, SiLU, TraceRecord, trace)
from .optim import SGD, Adam, CosineLR, Optimizer
from .serialize import (CheckpointError, load_manifest, load_module,
                        load_state, load_state_with_manifest,
                        manifest_section, save_module, save_state)
from .tensor import Tensor, concatenate, is_grad_enabled, no_grad, stack

__all__ = [
    "Tensor", "no_grad", "is_grad_enabled", "stack", "concatenate",
    "functional",
    "Module", "Parameter", "Sequential", "Conv2d", "DepthwiseConv2d",
    "Linear", "BatchNorm2d", "MaxPool2d", "AvgPool2d", "AdaptiveAvgPool2d",
    "ReLU", "ReLU6", "SiLU", "Sigmoid", "Dropout", "Flatten", "Identity",
    "trace", "TraceRecord",
    "Optimizer", "SGD", "Adam", "CosineLR",
    "save_state", "load_state", "save_module", "load_module",
    "load_manifest", "load_state_with_manifest", "manifest_section",
    "CheckpointError",
]
