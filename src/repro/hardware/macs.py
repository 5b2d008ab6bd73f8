"""MAC and parameter counting for CNN trunks and HD stages.

All CNN counts are measured from a *traced* forward pass (``nn.trace``),
so they reflect the actual layer shapes rather than hand-maintained
tables.  HD-stage counts follow the paper's Fig. 5 accounting: binding/
bundling are element-wise multiply/accumulate pairs, so encoding F
features into D dimensions costs F·D MACs and a k-class similarity sweep
costs k·D.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .. import nn
from ..models.base import IndexedCNN
from ..nn import Tensor

__all__ = ["LayerCost", "layer_cost", "trace_costs", "model_macs",
           "trunk_macs", "hd_encode_macs", "hd_similarity_macs",
           "nshd_macs", "baselinehd_macs", "count_parameters"]


@dataclass
class LayerCost:
    """MACs and parameter count of one traced leaf-module call."""

    kind: str
    macs: int
    params: int
    output_elems: int


def layer_cost(module: nn.Module,
               output_shape: Optional[tuple]) -> LayerCost:
    """MAC/parameter cost of one leaf-module call with a given output shape.

    The traced Fig. 5 accounting below costs every
    :class:`repro.nn.TraceRecord` with it.
    """
    out_shape = tuple(output_shape or ())
    out_elems = int(np.prod(out_shape[1:])) if len(out_shape) > 1 else 0
    kind = type(module).__name__

    if isinstance(module, nn.Conv2d):
        per_output = (module.in_channels // module.groups) * \
            module.kernel_size ** 2
        macs = out_elems * per_output
        params = module.weight.size + (module.bias.size
                                       if module.bias is not None else 0)
    elif isinstance(module, nn.Linear):
        macs = module.in_features * module.out_features
        params = module.weight.size + (module.bias.size
                                       if module.bias is not None else 0)
    elif isinstance(module, nn.BatchNorm2d):
        # At inference BN folds into the preceding convolution: zero MACs,
        # but its affine parameters still count toward model size.
        macs = 0
        params = module.gamma.size + module.beta.size
    else:
        # Pooling, activations, dropout, flatten: comparisons / element
        # ops, no multiply-accumulates and no parameters.
        macs = 0
        params = 0
    return LayerCost(kind=kind, macs=macs, params=params,
                     output_elems=out_elems)


def _record_cost(record: nn.TraceRecord) -> LayerCost:
    return layer_cost(record.module, record.output_shape)


def trace_costs(run, image_size: int = 32) -> List[LayerCost]:
    """Trace ``run(x)`` on a dummy image and cost every leaf module."""
    with nn.no_grad():
        with nn.trace() as records:
            run(Tensor(np.zeros((1, 3, image_size, image_size))))
    return [_record_cost(record) for record in records]


def model_macs(model: IndexedCNN) -> int:
    """Per-sample MACs of the full CNN (trunk + head + classifier)."""
    was_training = model.training
    model.eval()
    costs = trace_costs(model.forward, model.image_size)
    model.train(was_training)
    return sum(cost.macs for cost in costs)


def trunk_macs(model: IndexedCNN, layer_index: int) -> int:
    """Per-sample MACs of the truncated trunk up to ``layer_index``."""
    was_training = model.training
    model.eval()
    costs = trace_costs(lambda x: model.features_at(x, layer_index),
                        model.image_size)
    model.train(was_training)
    return sum(cost.macs for cost in costs)


def count_parameters(model: IndexedCNN,
                     layer_index: Optional[int] = None) -> int:
    """Scalar parameter count (full model, or trunk up to a cut layer)."""
    if layer_index is None:
        return model.num_parameters()
    total = 0
    for layer in model.features[:layer_index + 1]:
        total += layer.num_parameters()
    return total


def hd_encode_macs(num_features: int, dim: int) -> int:
    """Random-projection encoding cost: F bind+bundle ops per dimension."""
    return num_features * dim


def hd_similarity_macs(num_classes: int, dim: int) -> int:
    """Class-similarity sweep cost: one dot product per class."""
    return num_classes * dim


def nshd_macs(model: IndexedCNN, layer_index: int, dim: int,
              reduced_features: int, num_classes: int) -> Dict[str, int]:
    """Per-sample inference MACs of the full NSHD pipeline, by stage.

    trunk → manifold (pool + FC) → HD encode (F̂·D) → similarity (k·D).
    """
    channels, height, width = model.feature_shape(layer_index)
    pooled = channels * max(1, height // 2) * max(1, width // 2) \
        if height >= 2 and width >= 2 else channels * height * width
    stages = {
        "trunk": trunk_macs(model, layer_index),
        "manifold": pooled * reduced_features,
        "encode": hd_encode_macs(reduced_features, dim),
        "similarity": hd_similarity_macs(num_classes, dim),
    }
    stages["total"] = sum(stages.values())
    return stages


def baselinehd_macs(model: IndexedCNN, layer_index: int, dim: int,
                    num_classes: int) -> Dict[str, int]:
    """Per-sample inference MACs of BaselineHD (no manifold layer).

    The full F extracted features go straight into the F×D encoding —
    the cost the manifold learner exists to remove (Fig. 5).
    """
    num_features = model.feature_count(layer_index)
    stages = {
        "trunk": trunk_macs(model, layer_index),
        "manifold": 0,
        "encode": hd_encode_macs(num_features, dim),
        "similarity": hd_similarity_macs(num_classes, dim),
    }
    stages["total"] = sum(stages.values())
    return stages
