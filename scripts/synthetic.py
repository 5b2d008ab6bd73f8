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
                     seed: int, reduced: int = 0) -> ModelBundle:
    """A structurally-valid random bundle (throughput depends only on
    shapes, so random weights bench the same code path as real ones).

    With ``reduced > 0`` the bundle has a manifold stage, as NSHD's do:
    the ``features`` columns are ``(features // 64, 8, 8)`` feature maps,
    max-pooled to ``(features // 64, 4, 4)`` and mapped by a random FC
    layer to ``reduced`` outputs, which the encoder reads.
    """
    rng = fresh_rng((seed, "serve-bench"))
    encoded_from = reduced or features
    projection = np.where(rng.random((encoded_from, dim)) < 0.5, -1.0, 1.0)
    class_matrix = np.where(rng.random((classes, dim)) < 0.5, -1.0, 1.0)
    config = {"synthetic": True, "dim": dim, "features": features,
              "classes": classes, "seed": seed}
    arrays = {
        "scaler.mean": np.zeros(features),
        "scaler.std": np.ones(features),
        "encoder.projection": projection,
        "classes": class_matrix,
    }
    manifold = None
    if reduced:
        if features % 64:
            raise ValueError(f"a manifold bundle needs 64 | features, "
                             f"got {features}")
        channels = features // 64
        manifold = {"feature_shape": [channels, 8, 8],
                    "out_features": int(reduced), "pooling": True,
                    "has_bias": True}
        config["reduced"] = int(reduced)
        fc = fresh_rng((seed, "serve-bench-manifold"))
        pooled = channels * 16
        arrays["manifold.weight"] = fc.standard_normal(
            (reduced, pooled)) / np.sqrt(pooled)
        arrays["manifold.bias"] = 0.1 * fc.standard_normal(reduced)
    info = {
        "bundle_version": BUNDLE_VERSION,
        "pipeline": "SyntheticHD",
        "dim": dim, "num_classes": classes,
        "created_at": float(time.time()),
        "git": git_info(REPO_ROOT),
        "config": config,
        "config_fingerprint": config_fingerprint(config),
        "binarized": True, "quantize_bits": None,
        "encoder": {"type": "random_projection",
                    "in_features": encoded_from, "dim": dim,
                    "quantize": True},
        "extractor": None, "manifold": manifold,
        "arrays": sorted(arrays),
    }
    return ModelBundle(arrays, info)
