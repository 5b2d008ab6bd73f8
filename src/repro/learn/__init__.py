"""The paper's learning contribution: MASS, distillation, manifold, NSHD.

Training rules (:mod:`repro.learn.mass`, :mod:`repro.learn.distill`), the
manifold feature compressor (:mod:`repro.learn.manifold`) and the three
end-to-end systems compared in the evaluation
(:mod:`repro.learn.pipeline`).
"""

from .callbacks import CheckpointCallback, TrainerCallback
from .centroid import train_centroids
from .distill import DistillationTrainer
from .manifold import ManifoldLearner
from .mass import MassTrainer
from .pipeline import NSHD, BaselineHD, FeatureScaler, VanillaHD

__all__ = [
    "train_centroids",
    "MassTrainer",
    "DistillationTrainer",
    "ManifoldLearner",
    "NSHD", "BaselineHD", "VanillaHD", "FeatureScaler",
    "TrainerCallback", "CheckpointCallback",
]
