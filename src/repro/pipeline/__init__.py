"""Composable stage graph: the single executable model representation.

``repro.pipeline`` owns the NSHD stage math (extract → scale → reduce →
encode → classify) exactly once.  The ``repro.learn`` pipelines build
live graphs for training, checkpoints and serve bundles persist graph
topology + per-stage arrays, and the serving engine executes frozen
graphs.  See ``docs/STAGE_GRAPH.md`` for the protocol and serialization
layout.

The compiler layer (``compile_graph``) rewrites frozen graphs with
fusion passes (:mod:`repro.pipeline.passes`) and binds pluggable
per-stage executors (:mod:`repro.pipeline.executors`); it alone decides
where the packed classify executor may run.
"""

from .compile import (CompileError, CompilePlan, CompileResult,
                      auto_executors, compile_graph, resolve_passes)
from .executors import (EXECUTORS, ExecutorStage, StageExecutor,
                        register_executor)
from .graph import StageGraph, canonical_json
from .passes import PASSES, fuse_pool, fuse_scale_encode, register_pass
from .stages import (STAGE_TYPES, ClassifyStage, EncodeStage, ExtractStage,
                     FeatureScaler, FlattenStage, FusedEncodeStage,
                     ManifoldReduceStage, PackedClassifyStage,
                     ScalePoolStage, ScaleStage, Stage, StageError,
                     clamped_norms, cosine_similarities, encoder_spec,
                     register_stage, stage_from_spec)

__all__ = [
    "Stage", "StageGraph", "StageError", "FeatureScaler",
    "ExtractStage", "FlattenStage", "ScaleStage", "ManifoldReduceStage",
    "EncodeStage", "FusedEncodeStage", "ScalePoolStage",
    "ClassifyStage", "PackedClassifyStage",
    "cosine_similarities", "clamped_norms", "encoder_spec",
    "register_stage", "stage_from_spec", "STAGE_TYPES",
    # compiler layer
    "compile_graph", "CompileError", "CompilePlan", "CompileResult",
    "resolve_passes", "auto_executors", "PASSES", "register_pass",
    "fuse_scale_encode", "fuse_pool",
    "EXECUTORS", "StageExecutor", "ExecutorStage", "register_executor",
    "canonical_json",
]
