"""The paper's learning contribution: MASS, distillation, manifold, NSHD.

Training rules (:mod:`repro.learn.mass`, :mod:`repro.learn.distill`), the
manifold feature compressor (:mod:`repro.learn.manifold`) and the three
end-to-end systems compared in the evaluation
(:mod:`repro.learn.pipeline`).

The exports are lazy (:mod:`repro._lazy`): a serving worker's online
learner uses only the MASS rule, and importing it must not compile the
pipelines, the manifold learner and the autograd stack behind them.
"""

from .._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "centroid": ["train_centroids"],
    "mass": ["MassTrainer"],
    "distill": ["DistillationTrainer"],
    "manifold": ["ManifoldLearner"],
    "pipeline": ["NSHD", "BaselineHD", "VanillaHD", "FeatureScaler"],
})
