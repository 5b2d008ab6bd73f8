"""The StageGraph: one executable representation for train *and* serve.

A :class:`StageGraph` is an ordered list of named
:class:`~repro.pipeline.stages.Stage` objects.  It is the single
executable description of an NSHD-family model:

* the ``repro.learn`` pipelines build **live** graphs whose stages share
  weights with the training objects (ManifoldLearner, MASS trainer), so
  ``graph.run`` always reflects the current training state;
* serve bundles store ``graph.state_arrays()`` (the flat weight archive
  with the historical key names) next to the extract, reduce and encode
  stages' ``spec()`` descriptions, and
  :meth:`repro.serve.ModelBundle.build_graph` builds a **frozen** graph
  from the two;
* the serving engine is a thin executor around a frozen graph — it calls
  ``run``/``call`` and adds caching/batching, never math.

Telemetry: the graph runner is the single place that emits ``stage.*``
spans.  Training loops run stages with ``instrument=True`` (preserving
the historical ``stage.extract`` / ``stage.manifold`` / ``stage.encode``
/ ``stage.similarity`` span stream the run report's stage breakdown
keys on); inference/eval paths pass ``instrument=False``, which keeps
the stage spans out of the aggregate tree (matching the pre-refactor
behaviour where predict did not emit per-stage spans) but still records
them into an active request trace.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from ..telemetry import span
from .stages import Stage, StageError

__all__ = ["StageGraph"]


class StageGraph:
    """An ordered, named composition of stages."""

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
        did not emit per-stage spans (keeping the run report's stage
        accounting comparable across the refactor).  Inside an active
        request trace, the span is recorded into the request either way,
        once.
        """
        out = batch
        for stage in self._slice(start, stop):
            with span(stage.span_name, nbytes=int(np.asarray(out).nbytes),
                      aggregate=instrument):
                out = stage(out, ctx)
        return out

    # -- export --------------------------------------------------------
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
