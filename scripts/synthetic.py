"""Synthetic model bundles for the serving gates.

:func:`synthetic_bundle` builds a structurally valid bundle from random
weights, so a gate can boot a server in milliseconds instead of training
a CNN first.  ``check_serve.sh``, ``check_trace.py``, ``check_quality.py``,
``check_online.py`` and ``chaos_serve.py`` import it; the caller puts
``src/`` on ``sys.path`` first.
"""

import os
import time

import numpy as np

from repro.serve import ModelBundle
from repro.serve.bundle import BUNDLE_VERSION
from repro.telemetry.ledger import config_fingerprint, git_info
from repro.utils.rng import fresh_rng

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def synthetic_bundle(dim: int, features: int, classes: int,
                     seed: int) -> ModelBundle:
    """A structurally-valid random bundle (throughput depends only on
    shapes, so random weights bench the same code path as real ones)."""
    rng = fresh_rng((seed, "serve-bench"))
    projection = np.where(rng.random((features, dim)) < 0.5, -1.0, 1.0)
    class_matrix = np.where(rng.random((classes, dim)) < 0.5, -1.0, 1.0)
    config = {"synthetic": True, "dim": dim, "features": features,
              "classes": classes, "seed": seed}
    arrays = {
        "scaler.mean": np.zeros(features),
        "scaler.std": np.ones(features),
        "encoder.projection": projection,
        "classes": class_matrix,
    }
    info = {
        "bundle_version": BUNDLE_VERSION,
        "pipeline": "SyntheticHD",
        "dim": dim, "num_classes": classes,
        "created_at": float(time.time()),
        "git": git_info(REPO_ROOT),
        "config": config,
        "config_fingerprint": config_fingerprint(config),
        "binarized": True, "quantize_bits": None,
        "encoder": {"type": "random_projection", "in_features": features,
                    "dim": dim, "quantize": True},
        "extractor": None, "manifold": None,
        "arrays": sorted(arrays),
    }
    return ModelBundle(arrays, info)
