"""NSHD: neuro-symbolic integration of HD computing with deep learning.

Reproduction of Lee et al., "Comprehensive Integration of Hyperdimensional
Computing with Deep Learning towards Neuro-Symbolic AI" (DAC 2023).

Subpackages
-----------
``repro.nn``
    From-scratch autograd/CNN substrate (PyTorch stand-in).
``repro.models``
    Layer-indexed CNN zoo (VGG16 / MobileNetV2 / EfficientNet-B0/B7 styles),
    feature extractors and teachers.
``repro.hd``
    Hyperdimensional computing core: hypervector algebra, encoders,
    similarity, decoding, bit-packed binary backend.
``repro.learn``
    The paper's contribution: MASS retraining, knowledge-distillation
    retraining (Algorithm 1), the manifold learner, and the end-to-end
    ``NSHD`` / ``BaselineHD`` / ``VanillaHD`` pipelines.
``repro.hardware``
    Analytic efficiency substrate: MAC/parameter counting, Xavier-style GPU
    energy model, ZCU104 DPU FPGA model, model-size accounting.
``repro.data``
    Synthetic CIFAR-style image benchmark and loaders.
``repro.analysis``
    t-SNE, KD hyperparameter search, interpretability metrics.
``repro.reliability``
    Numerics guards, fault injection, graceful degradation.
``repro.telemetry``
    Observability: metrics registry, tracing spans, exporters, HD
    diagnostics and streaming drift monitors.
``repro.serve``
    Inference serving: frozen model bundles, the fused (bit-packed)
    inference engine, dynamic micro-batching, and the HTTP model server.
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
