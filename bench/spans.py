"""Timing wrappers for the benchmark's traced runs.

A traced run wraps public functions of the program (and one private
engine hook, the drift-monitor call) so that each call runs inside a
``repro.telemetry.tracing.span`` on a private ``Tracer``.  The tracer's
span tree gives every layer its *self time* (total minus child spans),
so the self times of all layers add up to the time the outermost spans
cover.  The rows a call handles are recorded as the span's ``nbytes``.

The wrappers time the program from the outside: no file under ``src/``
knows about them.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from typing import Callable, Dict

import numpy as np

from repro.telemetry.tracing import Tracer, span

#: ``(module, class, attribute, span name, count rows)``.  A class is
#: patched only where it defines the attribute itself, so an override and
#: the method it overrides are both timed and never double-wrapped.
TARGETS = (
    ("repro.models.extractor", "FeatureExtractor", "extract",
     "models.extract", True),
    ("repro.models.extractor", "TeacherModel", "logits",
     "models.teacher", True),
    ("repro.pipeline.stages", "FeatureScaler", "fit_transform",
     "learn.init", False),
    ("repro.learn.manifold", "ManifoldLearner", "init_pca",
     "learn.init", False),
    ("repro.learn.mass", "MassTrainer", "initialize", "learn.init", False),
    ("repro.learn.mass", "MassTrainer", "step", "learn.step", True),
    ("repro.learn.mass", "MassTrainer", "compute_update",
     "learn.update", False),
    ("repro.learn.distill", "DistillationTrainer", "compute_update",
     "learn.update", False),
    ("repro.learn.manifold", "ManifoldLearner", "train_step",
     "learn.manifold_step", False),
    ("repro.learn.mass", "MassTrainer", "accuracy", "learn.eval", False),
    ("repro.pipeline.stages", "ScaleStage", "__call__",
     "pipeline.scale", True),
    ("repro.pipeline.stages", "ScalePoolStage", "__call__",
     "pipeline.scale", True),
    ("repro.pipeline.stages", "ManifoldReduceStage", "__call__",
     "pipeline.reduce", True),
    ("repro.pipeline.stages", "EncodeStage", "__call__",
     "pipeline.encode", True),
    ("repro.pipeline.stages", "FusedEncodeStage", "__call__",
     "pipeline.encode", True),
    ("repro.pipeline.stages", "ClassifyStage", "__call__",
     "pipeline.classify", True),
    ("repro.pipeline.stages", "PackedClassifyStage", "__call__",
     "pipeline.classify", True),
    ("repro.serve.engine", "InferenceEngine", "predict_features",
     "engine.predict", True),
    # Self time of encode_features is the per-row sha1 + LRU work; the
    # stage calls it makes are its children.
    ("repro.serve.engine", "InferenceEngine", "encode_features",
     "engine.lru", False),
    # DriftMonitor.observe plus the similarities it is fed.
    ("repro.serve.engine", "InferenceEngine", "_observe_quality",
     "quality.observe", False),
    ("repro.online.learner", "OnlineLearner", "feedback",
     "online.feedback", False),
    # Self time of route_predict is hashing, breakers and bookkeeping;
    # the wait on the worker's answer is its router.forward child.
    ("repro.serve.router", "Router", "route_predict", "router.route",
     False),
    ("repro.serve.router", "_WorkerClient", "request", "router.forward",
     False),
)

Table = Dict[str, Dict[str, float]]


def _rows(batch) -> int:
    shape = np.shape(batch)
    return int(shape[0]) if len(shape) > 1 else 1


def _wrap(fn, name: str, count_rows: bool, tracer: Tracer):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        rows = _rows(args[1]) if count_rows and len(args) > 1 else 0
        with span(name, nbytes=rows, tracer=tracer):
            return fn(*args, **kwargs)
    return traced


def install(tracer: Tracer) -> Callable[[], None]:
    """Run every target's calls in a span of ``tracer``; returns the
    function that puts the originals back."""
    patched = []
    for module, cls_name, attr, name, count_rows in TARGETS:
        cls = getattr(importlib.import_module(module), cls_name)
        original = cls.__dict__.get(attr)
        if original is None:
            continue
        setattr(cls, attr, _wrap(original, name, count_rows, tracer))
        patched.append((cls, attr, original))

    def uninstall() -> None:
        for cls, attr, original in reversed(patched):
            setattr(cls, attr, original)
    return uninstall


def table(tracer: Tracer) -> Table:
    """``{name: {"calls", "total_s", "self_s", "rows"}}``."""
    out = tracer.aggregate()
    for entry in out.values():
        entry["rows"] = entry.pop("bytes")
    return out


def write(tracer: Tracer, path: str) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(table(tracer), handle)


def read_dir(path: str) -> Table:
    """The sum of the tables in the ``spans-*.json`` files under
    ``path``, one per traced process."""
    out: Table = {}
    for name in sorted(os.listdir(path)) if os.path.isdir(path) else []:
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(path, name)) as handle:
                for span_name, entry in json.load(handle).items():
                    total = out.setdefault(span_name, dict.fromkeys(entry, 0))
                    for key, value in entry.items():
                        total[key] += value
    return out
