"""Composable stage graph: the single executable model representation.

``repro.pipeline`` owns the NSHD stage math (extract → scale → reduce →
encode → classify) exactly once.  The ``repro.learn`` pipelines build
live graphs for training, serve bundles store the stages' arrays and
descriptions, and the serving engine executes the frozen graph a bundle
builds.  See ``docs/STAGE_GRAPH.md`` for the protocol and the on-disk
layout.

:func:`packed_refusal` is the one rule for where the bit-packed
:class:`PackedClassifyStage` may replace a frozen graph's float classify
stage.
"""

from .graph import StageGraph
from .stages import (ClassifyStage, EncodeStage, ExtractStage,
                     FeatureScaler, FlattenStage, FusedEncodeStage,
                     ManifoldReduceStage, PackedClassifyStage,
                     ScalePoolStage, ScaleStage, Stage, StageError,
                     encoder_spec, packed_refusal)

__all__ = [
    "Stage", "StageGraph", "StageError", "FeatureScaler",
    "ExtractStage", "FlattenStage", "ScaleStage", "ManifoldReduceStage",
    "EncodeStage", "FusedEncodeStage", "ScalePoolStage",
    "ClassifyStage", "PackedClassifyStage", "packed_refusal",
    "encoder_spec",
]
