"""Minimal deep-learning substrate (autograd, layers, optimizers).

This package stands in for PyTorch in the NSHD reproduction: it provides
just enough machinery to (i) train the CNN feature extractors / teachers,
(ii) backpropagate through the manifold learner with a straight-through
estimator, and (iii) serialize trained models.

The exports are lazy (:mod:`repro._lazy`): reading a model bundle needs
:mod:`~repro.nn.serialize` alone, so a serving process does not import
the autograd tensor, the layers or the optimizers.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "tensor": ["Tensor", "no_grad", "stack", "concatenate"],
    "functional": ["functional"],
    "layers": ["Module", "Parameter", "Sequential", "Conv2d", "Linear",
               "BatchNorm2d", "MaxPool2d", "AdaptiveAvgPool2d", "ReLU",
               "ReLU6", "SiLU", "Sigmoid", "Dropout", "Flatten", "Identity",
               "trace", "TraceRecord"],
    "optim": ["Optimizer", "Adam", "CosineLR"],
    "serialize": ["save_state", "load_state", "save_module", "load_module",
                  "load_manifest", "load_state_with_manifest",
                  "manifest_section", "CheckpointError"],
})
