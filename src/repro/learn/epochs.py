"""The one epoch loop behind every HD fit.

:func:`run_epochs` is the epoch loop of :meth:`MassTrainer.fit` (and so
of the distillation trainer) and of the NSHD, BaselineHD and VanillaHD
pipelines.  It owns the per-epoch shuffle, batching, epoch timing, the
history and the ``train.*`` epoch metrics; its callers supply only a
per-batch body and a per-epoch evaluation.  A pipeline that writes
checkpoints runs it over the epochs between two checkpoints at a time.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from ..telemetry import clock, get_registry

__all__ = ["run_epochs"]


def run_epochs(rows: Mapping[str, np.ndarray],
               batch_step: Callable[..., object],
               evaluate: Callable[[List[object]], Dict[str, float]], *,
               epochs: int, batch_size: int, rng: np.random.Generator,
               start_epoch: int = 0,
               history: Optional[Dict[str, List[float]]] = None,
               initialize: Optional[Callable[[], None]] = None
               ) -> Dict[str, List[float]]:
    """Train epochs ``[start_epoch, epochs)``; returns the history.

    ``rows`` are per-sample arrays of one length; any other length
    raises ``ValueError`` before ``initialize``.  Each epoch draws one
    ``rng.permutation`` of the rows and calls ``batch_step(**batch)``
    with every array sliced to the batch; ``evaluate(outputs)`` then
    receives the batch steps' return values and returns the epoch's
    numeric metrics (at least ``train_acc``).  ``history`` holds the
    epochs already run (restored from a checkpoint, or an earlier call)
    and is extended in a copy, not replaced.  ``initialize`` runs once,
    before any batch.

    Every epoch publishes ``train.epochs``, ``train.epoch``,
    ``train.epoch_time_s`` and a ``train.<metric>`` gauge per evaluated
    metric, and appends its metrics and ``epoch_time`` to the history.
    """
    if not 0 <= start_epoch <= epochs:
        raise ValueError(f"start_epoch {start_epoch} outside "
                         f"[0, {epochs}]")
    rows = {name: np.asarray(value) for name, value in rows.items()}
    first = next(iter(rows))
    num_rows = len(rows[first])
    for name, value in rows.items():
        if len(value) != num_rows:
            raise ValueError(f"{name} has {len(value)} rows; expected "
                             f"{num_rows}, one per {first} row")
    if initialize is not None:
        initialize()
    history = {key: list(values) for key, values in (history or {}).items()}
    registry = get_registry()
    for epoch in range(start_epoch, epochs):
        epoch_start = clock()
        # A fresh permutation per epoch (rather than in-place shuffling
        # of a persistent index array) makes each epoch's ordering a pure
        # function of the RNG state — the property checkpoint resume
        # relies on for bit-exact continuation.
        indices = rng.permutation(num_rows)
        outputs = []
        for start in range(0, num_rows, batch_size):
            batch = indices[start:start + batch_size]
            outputs.append(batch_step(**{name: value[batch]
                                         for name, value in rows.items()}))
        scores = evaluate(outputs)
        epoch_time = clock() - epoch_start
        for key, value in scores.items():
            history.setdefault(key, []).append(value)
            registry.set_gauge(f"train.{key}", float(value))
        history.setdefault("epoch_time", []).append(epoch_time)
        registry.inc("train.epochs")
        registry.set_gauge("train.epoch", float(epoch))
        registry.observe("train.epoch_time_s", epoch_time)
    return history
