"""The stage-graph compiler: passes → executor binding → verification.

``compile_graph`` takes a **frozen** :class:`StageGraph` (built from a
persisted ``topology()``; see :mod:`repro.pipeline.passes` for why live
graphs must be frozen first) and returns a :class:`CompileResult` whose
graph has (a) the requested fusion passes applied and (b) the requested
per-stage executors bound.  The compiled graph is still serializable —
fused stages are registered topology types, executor wrappers are
serialization-transparent — and compilation is a fixed point:
re-compiling a compiled topology with the same passes changes nothing.

A :class:`CompilePlan` is the JSON-serializable request (pass names +
``{stage name → executor name}`` map or ``"auto"``) that
``serve.bundle`` persists under ``info["compile"]`` and the serve CLI
accepts as a ``[compile]`` section; pre-compile bundles simply have no
plan and decode to the empty plan (no passes, no executors).

Metrics: ``compile.runs``, ``compile.passes_applied``,
``compile.executors_bound``, ``compile.verify_failures``.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Union

import numpy as np

from ..telemetry import get_registry
from .executors import EXECUTORS
from .graph import StageGraph
from .passes import PASSES
from .stages import StageError

__all__ = ["CompileError", "CompilePlan", "CompileResult",
           "auto_executors", "compile_graph", "resolve_passes"]

PassSpec = Union[None, str, Sequence[str]]
ExecutorSpec = Union[None, str, Dict[str, str]]


class CompileError(StageError):
    """A compile request references unknown passes/executors or the
    compiled graph failed verification against the interpreted one."""


def resolve_passes(passes: PassSpec) -> List[str]:
    """Normalize a pass request to an ordered list of registered names.

    ``None``/``"none"``/``[]`` → no passes; ``"all"`` → every
    registered pass in canonical order; a list is validated (and
    applied) in the order given.
    """
    if passes is None or passes == "none":
        return []
    if passes == "all":
        return list(PASSES)
    if isinstance(passes, str):
        passes = [passes]
    names = [str(name) for name in passes]
    unknown = [name for name in names if name not in PASSES]
    if unknown:
        raise CompileError(
            f"unknown compile passes {unknown}; registered: "
            f"{list(PASSES)}")
    return names


def _queries_bipolar(graph: StageGraph) -> bool:
    """Packed classify packs the *queries* too: every encode stage in
    the graph must hard-quantize."""
    encoders = [stage for stage in graph.stages
                if getattr(stage, "encoder_type", None) is not None]
    return bool(encoders) and all(
        getattr(stage, "quantize", False) for stage in encoders)


def auto_executors(graph: StageGraph) -> Dict[str, str]:
    """The ``"auto"`` executor plan: packed classify wherever it
    applies, nothing else."""
    if not _queries_bipolar(graph):
        return {}
    packed = EXECUTORS["packed"]
    return {stage.name: "packed" for stage in graph.stages
            if packed.applicable(stage)}


def _resolve_executors(graph: StageGraph, executors: ExecutorSpec
                       ) -> Dict[str, str]:
    """Normalize an executor request to ``{stage name → executor name}``.

    ``"auto"`` is :func:`auto_executors`.  Explicit maps are validated:
    the stage must exist in the *compiled* graph and the executor must
    be registered and applicable (``packed`` also needs quantizing
    encoders, as under ``"auto"``).
    """
    if executors is None:
        return {}
    if executors == "auto":
        return auto_executors(graph)
    if not isinstance(executors, dict):
        raise CompileError(
            f"executors must be None, 'auto', or a {{stage: executor}} "
            f"map, got {executors!r}")
    plan = {}
    for stage_name, executor_name in executors.items():
        stage_name, executor_name = str(stage_name), str(executor_name)
        if stage_name not in graph:
            raise CompileError(
                f"executor plan references unknown stage "
                f"{stage_name!r}; compiled graph has {graph.names}")
        executor = EXECUTORS.get(executor_name)
        if executor is None:
            raise CompileError(
                f"unknown executor {executor_name!r}; registered: "
                f"{sorted(EXECUTORS)}")
        stage = graph.stage(stage_name)
        if not executor.applicable(stage):
            raise CompileError(executor.why_not(stage))
        if executor_name == "packed" and not _queries_bipolar(graph):
            raise CompileError(
                "executor 'packed' requires a quantizing encoder (the "
                "queries must be bipolar to bit-pack); this graph's "
                "encoder emits continuous hypervectors")
        plan[stage_name] = executor_name
    return plan


class CompilePlan:
    """Serializable compile request: pass names + executor assignment."""

    def __init__(self, passes: PassSpec = None,
                 executors: ExecutorSpec = None):
        self.passes = resolve_passes(passes)
        if executors is not None and executors != "auto" \
                and not isinstance(executors, dict):
            raise CompileError(
                f"executors must be None, 'auto', or a {{stage: "
                f"executor}} map, got {executors!r}")
        if isinstance(executors, dict):
            unknown = [name for name in executors.values()
                       if str(name) not in EXECUTORS]
            if unknown:
                raise CompileError(
                    f"unknown executors {unknown}; registered: "
                    f"{sorted(EXECUTORS)}")
            executors = {str(k): str(v) for k, v in executors.items()}
        self.executors: ExecutorSpec = executors

    def is_empty(self) -> bool:
        return not self.passes and not self.executors

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"passes": list(self.passes)}
        if self.executors is not None:
            out["executors"] = (self.executors if isinstance(
                self.executors, str) else dict(self.executors))
        return out

    @classmethod
    def from_dict(cls, data: Optional[Dict[str, Any]]) -> "CompilePlan":
        data = data or {}
        return cls(passes=data.get("passes"),
                   executors=data.get("executors"))

    def __repr__(self) -> str:
        return (f"CompilePlan(passes={self.passes}, "
                f"executors={self.executors!r})")


class CompileResult:
    """What ``compile_graph`` hands back: the graph + what happened."""

    def __init__(self, graph: StageGraph, passes: List[str],
                 passes_applied: List[str],
                 executor_plan: Dict[str, str]):
        self.graph = graph
        self.passes = list(passes)
        self.passes_applied = list(passes_applied)
        self.executor_plan = dict(executor_plan)

    def describe(self) -> Dict[str, Any]:
        return {"passes": list(self.passes),
                "passes_applied": list(self.passes_applied),
                "executors": dict(self.executor_plan),
                "graph": self.graph.describe()}

    def __repr__(self) -> str:
        return (f"CompileResult({self.graph.describe()}, "
                f"applied={self.passes_applied}, "
                f"executors={self.executor_plan})")


def compile_graph(graph: StageGraph, passes: PassSpec = "all",
                  executors: ExecutorSpec = None,
                  verify_batch: Optional[np.ndarray] = None,
                  tolerance: float = 1e-9) -> CompileResult:
    """Apply fusion passes and bind executors to a frozen graph.

    Parameters
    ----------
    graph:
        A frozen :class:`StageGraph` (passes snapshot weights — do not
        compile live training graphs directly; freeze via
        ``from_topology`` or ``pipeline.compiled()`` first).
    passes:
        ``"all"`` (default), ``"none"``/``None``, or an ordered list of
        registered pass names.
    executors:
        ``None`` (interpreted), ``"auto"`` (packed classify where
        applicable), or an explicit ``{stage name → executor name}``
        map validated against the registry.
    verify_batch:
        Optional input batch for the *full* graph; when given, the
        compiled graph must agree with the interpreted one on it —
        exactly for integer outputs (labels), within ``tolerance`` for
        float outputs — or :class:`CompileError` is raised.
    """
    registry = get_registry()
    registry.inc("compile.runs")
    pass_names = resolve_passes(passes)
    compiled = graph
    applied: List[str] = []
    for name in pass_names:
        rewritten = PASSES[name](compiled)
        if rewritten is not None:
            compiled = rewritten
            applied.append(name)
            registry.inc("compile.passes_applied")

    plan = _resolve_executors(compiled, executors)
    if plan:
        stages = [(EXECUTORS[plan[s.name]].bind(s) if s.name in plan
                   else s) for s in compiled.stages]
        registry.inc("compile.executors_bound", len(plan))
        compiled = StageGraph(stages, name=compiled.name)

    result = CompileResult(compiled, pass_names, applied, plan)
    if verify_batch is not None:
        _verify(graph, compiled, verify_batch, tolerance)
    return result


def _verify(reference: StageGraph, compiled: StageGraph,
            batch: np.ndarray, tolerance: float) -> None:
    """Legalize-then-verify: compiled output must match interpreted."""
    want = np.asarray(reference.run(batch))
    got = np.asarray(compiled.run(batch))
    ok = want.shape == got.shape
    if ok:
        if np.issubdtype(want.dtype, np.integer):
            ok = bool(np.array_equal(got, want))
        else:
            ok = bool(np.allclose(got, want, rtol=tolerance,
                                  atol=tolerance))
    if not ok:
        get_registry().inc("compile.verify_failures")
        raise CompileError(
            f"compiled graph disagrees with the interpreted graph on "
            f"the verify batch (shape {want.shape} vs {got.shape}, "
            f"tolerance {tolerance})")
