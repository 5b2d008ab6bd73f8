"""Promotion gating: decide whether the shadow may replace the live model.

:class:`PromotionController` is deliberately *pure decision logic* — it
reads a :class:`~repro.online.shadow.ShadowModel` and the live class
matrix and returns a structured verdict; the actual bundle export and
``/reload`` hot swap live in :class:`~repro.online.learner.OnlineLearner`
so the gates are unit-testable without a server.

Every gate must pass (logical AND):

``min_feedback``
    Enough applied feedback this generation — one lucky sample is not a
    trend.
``min_validation``
    Enough held-back samples in the validation ring for the accuracy
    comparison to mean anything.
``accuracy``
    ``shadow − live ≥ min_accuracy_gain`` on the ring — promotion must
    buy something.
``shadow_accuracy``
    ``shadow ≥ min_shadow_accuracy`` *absolutely*.  This is the poison
    backstop: against a mislabelled ring the live model is
    systematically wrong (accuracy ≈ 0), so a relative gain alone can
    be met by a junk shadow scoring at chance.  A genuine label shift
    is *consistent* — the shadow can actually fit it and scores high —
    while inconsistent poison leaves the shadow near chance, under any
    sensible floor.
``confusability``
    The shadow's max off-diagonal class cosine may exceed the base
    matrix's by at most ``max_confusability_increase`` — feedback that
    smears class hypervectors into each other is structural damage even
    if ring accuracy momentarily holds.
``saturation``
    Shadow saturation fraction ≤ ``max_saturation`` — update blow-up
    concentrates mass in few dimensions long before accuracy collapses.
``drift``
    Optional: relative Frobenius drift of the shared class rows vs the
    base ≤ ``max_relative_drift`` (``None`` disables — class growth and
    heavy label shift legitimately move the matrix a lot).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional

import numpy as np

from ..telemetry import get_registry, matrix_health
from .shadow import ShadowModel

__all__ = ["PromotionController"]


class PromotionController:
    """Evaluate shadow-vs-live promotion gates; see the module docstring."""

    def __init__(self, min_feedback: int = 64, min_validation: int = 16,
                 min_accuracy_gain: float = 0.01,
                 min_shadow_accuracy: float = 0.5,
                 max_confusability_increase: float = 0.15,
                 max_saturation: float = 0.15,
                 max_relative_drift: Optional[float] = None):
        if min_feedback < 0 or min_validation < 0:
            raise ValueError("min_feedback/min_validation must be >= 0")
        if not 0.0 <= min_shadow_accuracy <= 1.0:
            raise ValueError("min_shadow_accuracy must be in [0, 1]")
        if max_saturation < 0 or max_saturation > 1:
            raise ValueError("max_saturation must be in [0, 1]")
        if max_relative_drift is not None and max_relative_drift <= 0:
            raise ValueError("max_relative_drift must be positive")
        self.min_feedback = int(min_feedback)
        self.min_validation = int(min_validation)
        self.min_accuracy_gain = float(min_accuracy_gain)
        self.min_shadow_accuracy = float(min_shadow_accuracy)
        self.max_confusability_increase = float(max_confusability_increase)
        self.max_saturation = float(max_saturation)
        self.max_relative_drift = max_relative_drift

    def config(self) -> Dict[str, object]:
        return {
            "min_feedback": self.min_feedback,
            "min_validation": self.min_validation,
            "min_accuracy_gain": self.min_accuracy_gain,
            "min_shadow_accuracy": self.min_shadow_accuracy,
            "max_confusability_increase": self.max_confusability_increase,
            "max_saturation": self.max_saturation,
            "max_relative_drift": self.max_relative_drift,
        }

    # ------------------------------------------------------------------
    def evaluate(self, shadow: ShadowModel,
                 live_matrix: np.ndarray) -> Dict[str, object]:
        """Run every gate; returns the full decision record.

        ``{"promote": bool, "reasons": [failed gate names],
        "checks": {gate: {"passed", ...detail}}, "evaluation": ring
        accuracies, "health": shadow matrix health}`` — the record is
        JSON-safe and is surfaced verbatim on ``/onlinez``.
        """
        registry = get_registry()
        registry.inc("online.promotion.evaluations")
        checks: Dict[str, Dict[str, object]] = {}

        applied = shadow.applied
        checks["feedback"] = {
            "passed": applied >= self.min_feedback,
            "applied": int(applied),
            "required": self.min_feedback,
        }

        evaluation = shadow.evaluate(live_matrix)
        size = int(evaluation["size"])
        checks["validation"] = {
            "passed": size >= self.min_validation,
            "size": size,
            "required": self.min_validation,
        }

        shadow_acc = evaluation["shadow_accuracy"]
        live_acc = evaluation["live_accuracy"]
        if shadow_acc is None or live_acc is None:
            checks["accuracy"] = {"passed": False, "gain": None,
                                  "required": self.min_accuracy_gain}
            checks["shadow_accuracy"] = {
                "passed": False, "accuracy": None,
                "required": self.min_shadow_accuracy}
        else:
            gain = float(shadow_acc) - float(live_acc)
            checks["accuracy"] = {
                "passed": gain >= self.min_accuracy_gain,
                "gain": gain,
                "shadow": float(shadow_acc),
                "live": float(live_acc),
                "required": self.min_accuracy_gain,
            }
            checks["shadow_accuracy"] = {
                "passed": float(shadow_acc) >= self.min_shadow_accuracy,
                "accuracy": float(shadow_acc),
                "required": self.min_shadow_accuracy,
            }

        health = shadow.health()
        base_health = matrix_health(shadow.base,
                                    sat_factor=shadow.sat_factor)
        shadow_conf = health["confusability"]["off_diag_max"]
        base_conf = base_health["confusability"]["off_diag_max"]
        if isinstance(shadow_conf, float) and math.isfinite(shadow_conf):
            budget = (base_conf if isinstance(base_conf, float)
                      and math.isfinite(base_conf) else 0.0)
            budget += self.max_confusability_increase
            checks["confusability"] = {
                "passed": shadow_conf <= budget,
                "off_diag_max": shadow_conf,
                "budget": budget,
            }
        else:  # fewer than two classes — nothing to confuse
            checks["confusability"] = {"passed": True,
                                       "off_diag_max": None,
                                       "budget": None}

        saturation = float(health["saturation_fraction"])
        checks["saturation"] = {
            "passed": saturation <= self.max_saturation,
            "fraction": saturation,
            "limit": self.max_saturation,
        }

        drift = health.get("drift")
        relative = (drift.get("relative")
                    if isinstance(drift, dict) else None)
        if self.max_relative_drift is None:
            checks["drift"] = {"passed": True, "relative": relative,
                               "limit": None}
        elif isinstance(relative, float) and math.isfinite(relative):
            checks["drift"] = {
                "passed": relative <= self.max_relative_drift,
                "relative": relative,
                "limit": self.max_relative_drift,
            }
        else:  # no comparable reference — cannot certify, so fail safe
            checks["drift"] = {"passed": False, "relative": None,
                               "limit": self.max_relative_drift}

        reasons: List[str] = [name for name, check in checks.items()
                              if not check["passed"]]
        promote = not reasons
        if not promote:
            registry.inc("online.promotion.rejected")
        return {
            "promote": promote,
            "reasons": reasons,
            "checks": checks,
            "evaluation": evaluation,
            "health": health,
        }
