"""The StageGraph: one executable representation for train *and* serve.

A :class:`StageGraph` is an ordered list of named
:class:`~repro.pipeline.stages.Stage` objects.  It is the single
executable description of an NSHD-family model:

* the ``repro.learn`` pipelines build **live** graphs whose stages share
  weights with the training objects (ManifoldLearner, MASS trainer), so
  ``graph.run`` always reflects the current training state;
* checkpoints and serve bundles persist ``graph.topology()`` (a list of
  JSON stage specs) next to ``graph.state_arrays()`` (the flat weight
  archive with the historical key names), and ``StageGraph.from_topology``
  rebuilds a **frozen** graph from the two;
* the serving engine is a thin executor around a frozen graph — it calls
  ``run``/``call`` and adds caching/batching, never math.

Telemetry: the graph runner is the single place that emits ``stage.*``
spans.  Training loops run stages with ``instrument=True`` (preserving
the historical ``stage.extract`` / ``stage.manifold`` / ``stage.encode``
/ ``stage.similarity`` span stream the run ledger and regression gate
key on); inference/eval paths pass ``instrument=False``, which keeps
the stage spans out of the aggregate tree (matching the pre-refactor
behaviour where predict did not emit per-stage spans) but still records
them into an active request trace.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import Any, Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..telemetry import span
from .stages import Stage, StageError, stage_from_spec

__all__ = ["StageGraph", "canonical_json"]

#: Version of the serialized topology layout (bump on breaking change).
TOPOLOGY_VERSION = 1


def _canonical(obj: Any) -> Any:
    """Normalize scalars so equal values always serialize identically."""
    if isinstance(obj, dict):
        return {str(key): _canonical(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(value) for value in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if math.isnan(value) or math.isinf(value):
            raise ValueError("canonical JSON cannot encode NaN/Inf")
        return value + 0.0  # collapses -0.0 to 0.0
    raise TypeError(
        f"cannot canonicalize {type(obj).__name__} values for JSON")


def canonical_json(obj: Any) -> str:
    """Deterministic JSON emit: sorted keys, compact separators,
    numpy scalars coerced, ``-0.0`` normalized, NaN/Inf rejected."""
    return json.dumps(_canonical(obj), sort_keys=True,
                      separators=(",", ":"), allow_nan=False)


class StageGraph:
    """An ordered, named, serializable composition of stages."""

    def __init__(self, stages: Sequence[Stage], name: str = "graph"):
        stages = list(stages)
        if not stages:
            raise StageError("a StageGraph needs at least one stage")
        names = [stage.name for stage in stages]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise StageError(f"duplicate stage names: {dupes}")
        self.name = str(name)
        self.stages: List[Stage] = stages
        self._index: Dict[str, int] = {s.name: i
                                       for i, s in enumerate(stages)}

    # -- introspection -------------------------------------------------
    @property
    def names(self) -> List[str]:
        return [stage.name for stage in self.stages]

    def __len__(self) -> int:
        return len(self.stages)

    def __iter__(self) -> Iterator[Stage]:
        return iter(self.stages)

    def __contains__(self, name: str) -> bool:
        return name in self._index

    def stage(self, name: str) -> Stage:
        try:
            return self.stages[self._index[name]]
        except KeyError:
            raise StageError(
                f"graph {self.name!r} has no stage {name!r}; "
                f"stages: {self.names}") from None

    def describe(self) -> str:
        """One-line ``a -> b -> c`` summary (used by engine/CLI)."""
        return " -> ".join(self.names)

    def __repr__(self) -> str:
        return f"StageGraph({self.describe()})"

    # -- execution -----------------------------------------------------
    def _slice(self, start: Optional[str], stop: Optional[str]
               ) -> List[Stage]:
        lo = 0 if start is None else self._index_of(start)
        hi = len(self.stages) if stop is None else self._index_of(stop)
        if hi < lo:
            raise StageError(
                f"stage slice start={start!r} comes after stop={stop!r}")
        return self.stages[lo:hi]

    def _index_of(self, name: str) -> int:
        if name not in self._index:
            raise StageError(
                f"graph {self.name!r} has no stage {name!r}; "
                f"stages: {self.names}")
        return self._index[name]

    def call(self, name: str, batch: np.ndarray,
             ctx: Optional[dict] = None) -> np.ndarray:
        """Run a single stage *with* its telemetry span.

        This is what training loops use for per-batch stage execution —
        the span stream is identical to the hand-instrumented
        pre-refactor loops.
        """
        stage = self.stage(name)
        with span(stage.span_name,
                  nbytes=int(np.asarray(batch).nbytes)):
            return stage(batch, ctx)

    def run(self, batch: np.ndarray, start: Optional[str] = None,
            stop: Optional[str] = None, ctx: Optional[dict] = None,
            instrument: bool = False) -> np.ndarray:
        """Execute stages ``[start, stop)`` (``stop`` exclusive) in order.

        Each stage runs in its ``stage.*`` span.  ``instrument`` decides
        only whether that span also enters the aggregate tree: the
        default ``False`` matches the historical inference paths, which
        did not emit per-stage spans (keeping ledger stage accounting
        comparable across the refactor).  Inside an active request
        trace, the span is recorded into the request either way, once.
        """
        out = batch
        for stage in self._slice(start, stop):
            with span(stage.span_name, nbytes=int(np.asarray(out).nbytes),
                      aggregate=instrument):
                out = stage(out, ctx)
        return out

    # -- serialization -------------------------------------------------
    def topology(self) -> Dict[str, Any]:
        """JSON-serializable graph description (specs only, no weights)."""
        return {"version": TOPOLOGY_VERSION, "name": self.name,
                "stages": [stage.spec() for stage in self.stages]}

    def topology_json(self) -> str:
        """Canonical topology emit — byte-stable across processes.

        Sorted keys, compact separators, numpy scalars coerced to
        Python, ``-0.0`` normalized, NaN/Inf rejected: two processes
        holding the same graph always emit identical bytes, so
        :meth:`topology_digest` is a stable cross-process cache /
        fingerprint key.
        """
        return canonical_json(self.topology())

    def topology_digest(self) -> str:
        """sha1 hex digest of :meth:`topology_json` (stable identity)."""
        return hashlib.sha1(
            self.topology_json().encode("utf-8")).hexdigest()

    def state_arrays(self) -> Dict[str, np.ndarray]:
        """Merged per-stage weight arrays (historical flat key names)."""
        merged: Dict[str, np.ndarray] = {}
        for stage in self.stages:
            for key, value in stage.state_arrays().items():
                if key in merged:
                    raise StageError(
                        f"stage {stage.name!r} re-defines array {key!r}")
                merged[key] = value
        return merged

    def load_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        for stage in self.stages:
            stage.load_arrays(arrays)

    @classmethod
    def from_topology(cls, topology: Dict[str, Any],
                      arrays: Dict[str, np.ndarray]) -> "StageGraph":
        """Rebuild a frozen graph from a persisted topology + archive."""
        if isinstance(topology, str):
            topology = json.loads(topology)
        version = int(topology.get("version", 1))
        if version > TOPOLOGY_VERSION:
            raise StageError(
                f"graph topology version {version} is newer than this "
                f"build supports ({TOPOLOGY_VERSION})")
        specs = topology.get("stages") or []
        if not specs:
            raise StageError("graph topology has no stages")
        stages = [stage_from_spec(spec, arrays) for spec in specs]
        return cls(stages, name=topology.get("name", "graph"))
