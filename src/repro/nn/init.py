"""Weight initializers for the neural-network substrate."""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

__all__ = ["kaiming_normal", "uniform_fan_in", "UNFILLED"]

#: Pass as a layer's (or a model's) ``rng`` when stored weights are
#: loaded into it right after construction: no initializer runs and
#: nothing is drawn; the weights start at zero.
UNFILLED = object()


def kaiming_normal(shape: Tuple[int, ...], fan_in: int,
                   rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """He-normal initialization, appropriate for ReLU-family activations."""
    rng = rng or np.random.default_rng()
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape)


def uniform_fan_in(shape: Tuple[int, ...], fan_in: int,
                   rng: Optional[np.random.Generator] = None) -> np.ndarray:
    """PyTorch-default linear-layer initialization (U(-1/sqrt(fan_in), ...))."""
    rng = rng or np.random.default_rng()
    limit = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-limit, limit, size=shape)
