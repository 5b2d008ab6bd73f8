"""Pluggable per-stage executors for the stage-graph compiler.

An *executor* is an execution strategy for a stage — same math, same
serialization, different kernel.  The compiler binds executors at
freeze/compile time by wrapping stages in :class:`ExecutorStage`
subclasses that delegate everything serialization-related
(``spec`` / ``state_arrays`` / ``load_arrays`` / ``span_name``) to
the wrapped stage and only override ``__call__`` —
so a compiled graph's topology is byte-identical to the uncompiled
one, and the wrappers never appear in a persisted artifact.

Shipped executors (registry :data:`EXECUTORS`):

* ``numpy`` — the default interpreted path (identity bind);
* ``threaded`` — row-tiled encode GEMM fanned across a thread pool
  (NumPy releases the GIL inside BLAS).  Per-row results can differ
  from the single-call GEMM at the last ulp (BLAS blocking differs by
  tile height), so the parity gate asserts *labels* bit-exact and raw
  encodings within float tolerance;
* ``packed`` — the uint64 XOR-popcount classify path.  Only applicable
  to a frozen classify stage over a bipolar class matrix (where it
  ranks identically to float cosine: integer dots, no rounding); the
  compiler additionally requires every encode stage to quantize, since
  the queries are bit-packed too.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional

import numpy as np

from ..hd.hypervector import is_bipolar
from .stages import ClassifyStage, PackedClassifyStage, Stage, StageError

__all__ = ["EXECUTORS", "StageExecutor", "ExecutorStage",
           "register_executor", "NumpyExecutor", "ThreadedEncodeExecutor",
           "PackedClassifyExecutor"]


class StageExecutor:
    """An execution strategy: tests applicability, binds to a stage."""

    #: Registry key (set by subclasses).
    name: str = ""

    def applicable(self, stage: Stage) -> bool:
        raise NotImplementedError

    def why_not(self, stage: Stage) -> str:
        """Human-readable reason :meth:`applicable` returned False."""
        return (f"executor {self.name!r} is not applicable to stage "
                f"{stage.name!r} ({type(stage).__name__})")

    def bind(self, stage: Stage) -> Stage:
        raise NotImplementedError


#: Registered executors: ``name → StageExecutor`` instance.
EXECUTORS: Dict[str, StageExecutor] = {}


def register_executor(cls):
    """Class decorator instantiating + registering an executor."""
    EXECUTORS[cls.name] = cls()
    return cls


class ExecutorStage(Stage):
    """Serialization-transparent wrapper: delegates everything except
    ``__call__`` to the wrapped stage."""

    def __init__(self, inner: Stage, executor: str):
        Stage.__init__(self, inner.name)
        self.inner = inner
        self.executor = str(executor)

    @property
    def span_name(self) -> str:
        return self.inner.span_name

    def spec(self) -> Dict[str, Any]:
        return self.inner.spec()

    def state_arrays(self) -> Dict[str, np.ndarray]:
        return self.inner.state_arrays()

    def load_arrays(self, arrays: Dict[str, np.ndarray]) -> None:
        self.inner.load_arrays(arrays)

    def __getattr__(self, attr: str) -> Any:
        # Delegate introspection (encoder_type, quantize, class_matrix,
        # similarities, ...) so wrapped stages duck-type as the inner
        # stage.  Only called for attributes not found normally.
        if attr == "inner":  # guard recursion before __init__ finishes
            raise AttributeError(attr)
        return getattr(self.inner, attr)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}[{self.executor}]"
                f"({self.inner!r})")


@register_executor
class NumpyExecutor(StageExecutor):
    """The default interpreted path — binding is the identity."""

    name = "numpy"

    def applicable(self, stage: Stage) -> bool:
        return True

    def bind(self, stage: Stage) -> Stage:
        return stage


class _ThreadedStage(ExecutorStage):
    """Row-tiled execution of an encode stage across a thread pool."""

    def __init__(self, inner: Stage, workers: int, min_rows: int):
        super().__init__(inner, "threaded")
        self.workers = int(workers)
        self.min_rows = int(min_rows)

    def __call__(self, batch: np.ndarray, ctx: Optional[dict] = None
                 ) -> np.ndarray:
        batch = np.atleast_2d(np.asarray(batch))
        n = len(batch)
        if self.workers < 2 or n < max(2, self.min_rows):
            return self.inner(batch, ctx)
        tile = -(-n // self.workers)  # ceil division
        bounds = [(lo, min(lo + tile, n)) for lo in range(0, n, tile)]
        with ThreadPoolExecutor(max_workers=len(bounds)) as pool:
            parts = list(pool.map(
                lambda b: self.inner(batch[b[0]:b[1]], ctx), bounds))
        return np.concatenate(parts, axis=0)


@register_executor
class ThreadedEncodeExecutor(StageExecutor):
    """Tile-parallel GEMM for encode stages (plain or fused).

    Rows are independent in every encoder, so the batch is split into
    per-worker tiles executed concurrently — NumPy's BLAS releases the
    GIL, so this scales on multi-core hosts for large eval batches.
    Small batches (``< min_rows``) fall through to the single-call path
    to avoid pool overhead on the request path.
    """

    name = "threaded"

    def __init__(self, workers: Optional[int] = None, min_rows: int = 64):
        self.workers = int(workers or min(8, os.cpu_count() or 1))
        self.min_rows = int(min_rows)

    def applicable(self, stage: Stage) -> bool:
        return getattr(stage, "encoder_type", None) is not None

    def why_not(self, stage: Stage) -> str:
        return (f"executor 'threaded' only applies to encode stages; "
                f"stage {stage.name!r} is {type(stage).__name__}")

    def bind(self, stage: Stage) -> Stage:
        if not self.applicable(stage):
            raise StageError(self.why_not(stage))
        return _ThreadedStage(stage, self.workers, self.min_rows)


class _PackedStage(ExecutorStage):
    """Executes a frozen classify stage via uint64 XOR-popcount."""

    def __init__(self, inner: ClassifyStage):
        super().__init__(inner, "packed")
        self.packed = PackedClassifyStage.from_classify(inner)

    def __call__(self, batch: np.ndarray, ctx: Optional[dict] = None
                 ) -> np.ndarray:
        return self.packed(batch, ctx)


@register_executor
class PackedClassifyExecutor(StageExecutor):
    """The bit-packed XOR-popcount classify fast path as an executor."""

    name = "packed"

    def applicable(self, stage: Stage) -> bool:
        return (isinstance(stage, ClassifyStage) and stage.frozen
                and is_bipolar(np.asarray(stage.class_matrix)))

    def why_not(self, stage: Stage) -> str:
        if not isinstance(stage, ClassifyStage):
            return (f"executor 'packed' only applies to classify stages; "
                    f"stage {stage.name!r} is {type(stage).__name__}")
        if not stage.frozen:
            return ("executor 'packed' requires a frozen classify stage "
                    "(live training matrices mutate under the packing)")
        return ("executor 'packed' requires a bipolar class matrix — "
                "export the bundle with binarize=True")

    def bind(self, stage: Stage) -> Stage:
        if not self.applicable(stage):
            raise StageError(self.why_not(stage))
        return _PackedStage(stage)
