"""Numerics guards: catch NaN/Inf/overflow before they corrupt a model.

Long HD training runs fail in one characteristic way: a single bad batch
(NaN features from a corrupted shard, an exploding distillation update, a
degenerate similarity) silently poisons the class-hypervector matrix and
every later epoch trains on garbage.  :class:`NumericsGuard` is the
checkpoint-free half of the reliability story — it sits at the update
boundaries of every trainer (:class:`repro.learn.MassTrainer`,
:class:`repro.learn.DistillationTrainer`,
:class:`repro.learn.ManifoldLearner`, and the CNN pretraining loop in
:mod:`repro.models.trainer`) and vets batches/gradients *before* they are
applied, so model state is never corrupted regardless of policy.

Policies
--------
``raise``
    Abort immediately with :class:`NumericsError` (default; best for
    debugging and CI).
``warn``
    Emit a :class:`NumericsWarning` and *skip* the offending update.
``skip_batch``
    Silently skip the offending update, counting it in
    :attr:`NumericsGuard.batches_skipped` (best for long unattended runs).

The guard is deliberately dependency-free (numpy + stdlib + the equally
dependency-free :mod:`repro.telemetry`) so every layer of the code base
can hook it without import cycles.  Guard events additionally increment
the process-global telemetry counters ``guard.nan_batches``,
``guard.inf_batches``, ``guard.overflow_batches``, ``guard.violations``
and ``guard.skipped_batches`` so long unattended runs surface guard
activity in the run report and Prometheus exposition.
"""

from __future__ import annotations

import warnings
from typing import Dict, List, Optional

import numpy as np

from ..telemetry import get_registry

__all__ = ["NumericsError", "NumericsWarning", "NumericsGuard", "POLICIES"]

POLICIES = ("raise", "warn", "skip_batch")

#: Violation messages a guard retains in :attr:`NumericsGuard.violations`.
MAX_LOG = 100


class NumericsError(RuntimeError):
    """Raised by a ``policy="raise"`` guard on NaN/Inf/overflow."""


class NumericsWarning(UserWarning):
    """Emitted by a ``policy="warn"`` guard (distinct from numpy's
    RuntimeWarning so warnings-as-errors CI jobs can treat them apart)."""


class NumericsGuard:
    """Detect non-finite or overflowing values at trainer update points.

    Parameters
    ----------
    policy:
        One of :data:`POLICIES` — what to do when a check fails.
    max_abs:
        Magnitude threshold above which finite values count as overflow
        (guards against silent float64 blow-up long before ``inf``).
    name:
        Label used in error/warning messages (useful when several guards
        watch different pipelines).
    """

    def __init__(self, policy: str = "raise", max_abs: float = 1e12,
                 name: str = "NumericsGuard"):
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, "
                             f"got {policy!r}")
        if max_abs <= 0:
            raise ValueError("max_abs must be positive")
        self.policy = policy
        self.max_abs = float(max_abs)
        self.name = name
        self.checks = 0
        self.batches_skipped = 0
        self.counts: Dict[str, int] = {"nan": 0, "inf": 0, "overflow": 0}
        self.violations: List[str] = []

    # ------------------------------------------------------------------
    def _describe(self, array: np.ndarray) -> Optional[str]:
        """Return a human-readable defect description, or None if clean."""
        data = np.asarray(array)
        if data.dtype.kind not in "fc":  # ints/bools cannot be non-finite
            return None
        if data.size == 0:
            return None
        nan = int(np.isnan(data).sum())
        inf = int(np.isinf(data).sum())
        registry = get_registry()
        if nan or inf:
            self.counts["nan"] += nan
            self.counts["inf"] += inf
            if nan:
                registry.inc("guard.nan_batches")
            if inf:
                registry.inc("guard.inf_batches")
            return f"{nan} NaN and {inf} Inf of {data.size} values"
        peak = float(np.abs(data).max())
        if peak > self.max_abs:
            self.counts["overflow"] += 1
            registry.inc("guard.overflow_batches")
            return (f"finite overflow: max |x| = {peak:.3e} exceeds "
                    f"max_abs = {self.max_abs:.1e}")
        return None

    def _handle(self, message: str) -> bool:
        if len(self.violations) < MAX_LOG:
            self.violations.append(message)
        get_registry().inc("guard.violations")
        if self.policy == "raise":
            raise NumericsError(message)
        if self.policy == "warn":
            warnings.warn(message, NumericsWarning, stacklevel=3)
        self.batches_skipped += 1
        get_registry().inc("guard.skipped_batches")
        return False

    # ------------------------------------------------------------------
    def ok(self, tag: str, *arrays) -> bool:
        """Vet arrays at the update point ``tag``.

        Returns True when everything is finite and bounded.  Otherwise the
        configured policy fires: ``raise`` raises :class:`NumericsError`;
        ``warn`` emits :class:`NumericsWarning` and returns False;
        ``skip_batch`` silently returns False.  Callers must not apply the
        guarded update when this returns False.
        """
        self.checks += 1
        problems = []
        for index, array in enumerate(arrays):
            description = self._describe(array)
            if description is not None:
                problems.append(f"array {index}: {description}")
        if not problems:
            return True
        message = (f"{self.name}: numerics violation at {tag!r} — "
                   + "; ".join(problems))
        return self._handle(message)

    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Clear all counters and the violation log."""
        self.checks = 0
        self.batches_skipped = 0
        self.counts = {"nan": 0, "inf": 0, "overflow": 0}
        self.violations = []

    def summary(self) -> Dict[str, object]:
        """Counters snapshot for logging/reporting."""
        return {
            "policy": self.policy,
            "checks": self.checks,
            "batches_skipped": self.batches_skipped,
            "nan_values": self.counts["nan"],
            "inf_values": self.counts["inf"],
            "overflows": self.counts["overflow"],
            "last_violation": self.violations[-1] if self.violations
            else None,
        }

    def __repr__(self) -> str:
        return (f"NumericsGuard(policy={self.policy!r}, checks={self.checks}, "
                f"skipped={self.batches_skipped})")
