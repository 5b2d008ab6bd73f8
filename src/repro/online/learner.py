"""OnlineLearner: the server-side façade tying feedback to promotion.

One instance rides a :class:`~repro.serve.server.ModelServer`:

* ``POST /feedback`` bodies land in :meth:`feedback` — either inline
  ``features`` or a ``request_id`` previously returned by ``/predict``
  (the learner remembers the features of the last
  :data:`REMEMBER_REQUESTS` single-row requests, so a client can say
  "that prediction was actually class 3" without re-uploading them).
  Features are encoded through the *live* engine's frozen encoder and
  fed to the :class:`~repro.online.shadow.ShadowModel`.
* Every ``promote_every`` applied samples (and on explicit ``POST
  /promote``) the :class:`~repro.online.promote.PromotionController`
  gates run.  On a pass the learner exports a version-bumped bundle
  (:meth:`~repro.serve.bundle.ModelBundle.promoted` — quality-baseline
  class priors recomputed from shadow predictions on the validation
  ring, so ``/driftz`` prediction-skew does not permanently fire after
  class-incremental growth) and calls the server's existing
  :meth:`~repro.serve.server.ModelServer.reload` — the same verified
  atomic hot swap operators already use, so in-flight ``/predict``
  batches finish on the engine snapshot they started with.  The
  exported bundle reaches a fleet through the router's ``/reload``
  fan-out.
* After a successful promotion the shadow is rebased onto the newly
  live matrix and the generation counter bumps.  An *external* reload
  (operator swapped bundles underneath us) is detected by fingerprint
  on the next touch and triggers the same rebase — the shadow never
  learns against a stale base.
"""

from __future__ import annotations

import os
import tempfile
import threading
import time
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..hd.backend import unpack_bipolar
from ..hd.similarity import cosine_similarity
from ..serve.handler import json_floats
from ..telemetry import get_registry
from .promote import PromotionController
from .shadow import FeedbackError, ShadowModel

__all__ = ["OnlineLearner"]

#: How many recent single-row /predict requests feedback can name by
#: request_id.
REMEMBER_REQUESTS = 1024


class OnlineLearner:
    """Serve-path continual learning controller (see module docstring).

    Constructed by :class:`~repro.serve.server.ModelServer` from the
    ``[online]`` config section; every keyword maps 1:1 to a TOML key.
    """

    def __init__(self, server: Any, lr: float = 0.05,
                 max_update_norm: float = 1.0,
                 rate_limit_per_s: Optional[float] = None,
                 holdout_every: int = 8,
                 promote_every: int = 64, auto_promote: bool = True,
                 export_dir: Optional[str] = None,
                 min_feedback: int = 64, min_validation: int = 16,
                 min_accuracy_gain: float = 0.01,
                 min_shadow_accuracy: float = 0.5,
                 max_confusability_increase: float = 0.15,
                 max_saturation: float = 0.15):
        if promote_every < 0:
            raise ValueError("promote_every must be >= 0")
        self._server = server
        self.promote_every = int(promote_every)
        self.auto_promote = bool(auto_promote)
        self.export_dir = export_dir
        self.generation = 0
        self.shadow = ShadowModel(
            self.engine.class_matrix, lr=lr,
            max_update_norm=max_update_norm,
            rate_limit_per_s=rate_limit_per_s,
            holdout_every=holdout_every)
        self.controller = PromotionController(
            min_feedback=min_feedback, min_validation=min_validation,
            min_accuracy_gain=min_accuracy_gain,
            min_shadow_accuracy=min_shadow_accuracy,
            max_confusability_increase=max_confusability_increase,
            max_saturation=max_saturation)
        self._live_fingerprint = self._engine_fingerprint()
        self._recent: "OrderedDict[str, np.ndarray]" = OrderedDict()
        self._recent_lock = threading.Lock()
        self._promote_lock = threading.Lock()
        self._since_eval = 0
        self.last_decision: Optional[Dict[str, object]] = None
        self.promotions = 0

    # -- live-engine accessors -----------------------------------------
    @property
    def engine(self) -> Any:
        return self._server.engine

    def _engine_fingerprint(self) -> Optional[str]:
        return self.engine.bundle.info.get("config_fingerprint")

    def _sync_base(self) -> None:
        """Rebase the shadow if the live engine changed underneath us."""
        fingerprint = self._engine_fingerprint()
        if fingerprint != self._live_fingerprint:
            self.shadow.reset_to(self.engine.class_matrix)
            self._live_fingerprint = fingerprint
            self._since_eval = 0

    # -- request memory (request_id → features) ------------------------
    def remember(self, request_id: str, features: np.ndarray) -> None:
        """Retain a served request's features for later feedback.

        Only single-row requests are retained — feedback carries exactly
        one label, so a multi-row batch is ambiguous.
        """
        if len(features) != 1:
            return
        with self._recent_lock:
            self._recent[request_id] = np.array(features[0],
                                                dtype=np.float64)
            while len(self._recent) > REMEMBER_REQUESTS:
                self._recent.popitem(last=False)

    def recall(self, request_id: str) -> Optional[np.ndarray]:
        with self._recent_lock:
            features = self._recent.get(request_id)
            return None if features is None else features.copy()

    # -- feedback ------------------------------------------------------
    def feedback(self, payload: Dict[str, Any]
                 ) -> Tuple[int, Dict[str, Any]]:
        """Handle one ``POST /feedback`` body; returns (status, body).

        Body: ``{"label": int, "features": [...]}`` or ``{"label": int,
        "request_id": "..."}``.  200 applied/held_out/new_class, 400
        malformed, 404 unknown request_id, 422 guard-rejected, 429
        rate-limited.
        """
        registry = get_registry()
        self._sync_base()
        label = payload.get("label")
        if not isinstance(label, int) or isinstance(label, bool):
            return 400, {"error": "feedback requires an integer 'label'"}
        features = payload.get("features")
        request_id = payload.get("request_id")
        if (features is None) == (request_id is None):
            return 400, {"error": "provide exactly one of 'features' or "
                                  "'request_id'"}
        if request_id is not None:
            if not isinstance(request_id, str):
                return 400, {"error": "'request_id' must be a string"}
            features = self.recall(request_id)
            if features is None:
                registry.inc("online.feedback.unknown_request")
                return 404, {"error": f"request_id {request_id!r} not in "
                                      f"the recent-request window"}
        try:
            row = json_floats(features)
        except (TypeError, ValueError) as exc:
            return 400, {"error": f"features are not numeric: {exc}"}
        row = np.atleast_2d(row)
        if row.ndim != 2 or row.shape[0] != 1:
            return 400, {"error": "features must be a single sample "
                                  "(one row)"}
        if not np.isfinite(row).all():
            return 400, {"error": "features contain NaN/Inf"}
        engine = self.engine
        try:
            encoded = engine.encode_features(row)
            if engine.use_packed:
                encoded = unpack_bipolar(encoded, engine.dim)
            status = self.shadow.ingest(encoded, label)
        except FeedbackError as exc:
            return 400, {"error": str(exc)}
        except ValueError as exc:  # e.g. feature-width mismatch
            return 400, {"error": str(exc)}
        body: Dict[str, Any] = {
            "status": status,
            "label": label,
            "classes": self.shadow.num_classes,
            "generation": self.generation,
        }
        if status == "rate_limited":
            return 429, body
        if status == "rejected":
            body["error"] = "feedback rejected by the numerics guard"
            return 422, body
        if status in ("applied", "new_class"):
            self._since_eval += 1
            if (self.auto_promote and self.promote_every
                    and self._since_eval >= self.promote_every):
                decision = self.try_promote()
                body["promotion"] = {
                    "promote": decision["promote"],
                    "reasons": decision["reasons"],
                    "promoted": decision.get("promoted", False),
                }
                body["generation"] = self.generation
        return 200, body

    # -- promotion -----------------------------------------------------
    def _class_priors(self, matrix: np.ndarray) -> Optional[np.ndarray]:
        """Laplace-smoothed class priors from shadow ring predictions.

        This is the satellite-2 recompute: after class-incremental
        growth the promoted bundle's baseline must carry a prior for
        the *new* class — copying the parent's priors would leave
        ``/driftz`` prediction-skew permanently firing on it.  Returns
        ``None`` when the parent bundle carries no quality baseline.
        """
        if self.engine.bundle.info.get("quality_baseline") is None:
            return None
        k = int(matrix.shape[0])
        counts = np.ones(k)  # Laplace prior: every class representable
        hvs, _ = self.shadow.validation_set()
        if len(hvs):
            preds = cosine_similarity(matrix, hvs).argmax(axis=1)
            counts += np.bincount(preds, minlength=k)
        return counts / counts.sum()

    def _export_path(self) -> str:
        directory = self.export_dir
        if directory is None:
            base = getattr(self._server, "bundle_path", None)
            directory = (os.path.dirname(os.path.abspath(base))
                         if base else tempfile.mkdtemp(prefix="online-"))
            self.export_dir = directory
        os.makedirs(directory, exist_ok=True)
        return os.path.join(directory,
                            f"online-gen{self.generation + 1:03d}.npz")

    def try_promote(self) -> Dict[str, object]:
        """Evaluate the gates now; promote atomically if every gate passes.

        Serialized by a lock — concurrent ``/promote`` calls and the
        auto-promotion path cannot double-export.  The decision record
        (gate checks, ring accuracies, shadow health, and on success the
        exported path + reload info) is retained for ``/onlinez``.
        """
        registry = get_registry()
        with self._promote_lock:
            self._sync_base()
            self._since_eval = 0
            decision = self.controller.evaluate(
                self.shadow, self.engine.class_matrix)
            decision["generation"] = self.generation
            decision["evaluated_at"] = time.time()
            if decision["promote"]:
                try:
                    self._promote(decision)
                except Exception as exc:
                    # Export/reload failure must not take the serving
                    # path down: record it, keep the old engine live.
                    decision["promoted"] = False
                    decision["error"] = f"{type(exc).__name__}: {exc}"
                    registry.inc("online.promotion.failed")
            self.last_decision = decision
            return decision

    def _promote(self, decision: Dict[str, object]) -> None:
        matrix = self.shadow.snapshot()
        priors = self._class_priors(matrix)
        child = self.engine.bundle.promoted(
            matrix, generation=self.generation + 1,
            feedback_count=self.shadow.applied,
            class_priors=priors)
        path = self._export_path()
        child.save(path)
        info = self._server.reload(path)  # the existing atomic hot swap
        self.generation += 1
        self.promotions += 1
        self._live_fingerprint = self._engine_fingerprint()
        self.shadow.reset_to(self.engine.class_matrix)
        get_registry().inc("online.promotion.promoted")
        decision["promoted"] = True
        decision["bundle_path"] = path
        decision["reload"] = info

    # -- status --------------------------------------------------------
    def status(self) -> Dict[str, object]:
        """The ``GET /onlinez`` payload."""
        self._sync_base()
        return {
            "enabled": True,
            "generation": self.generation,
            "promotions": self.promotions,
            "live_fingerprint": self._live_fingerprint,
            "auto_promote": self.auto_promote,
            "promote_every": self.promote_every,
            "export_dir": self.export_dir,
            "remembered_requests": len(self._recent),
            "shadow": self.shadow.status(),
            "gates": self.controller.config(),
            "last_decision": self.last_decision,
        }
