"""Serve-path continual learning: guarded feedback, shadow models,
gated atomic promotion.

The paper's core economic claim — class hypervectors admit cheap
one-shot updates — is exactly what makes *learning in production*
viable: a labelled feedback sample is one guarded MASS step,
not a retraining job.  This package closes the repo's train/serve
split into that loop:

* :class:`~repro.online.shadow.ShadowModel` — a float64 shadow copy of
  the live engine's frozen class-hypervector matrix.  ``POST
  /feedback`` samples update the *shadow* (never the serving matrix)
  through the MASS rule, wrapped in a
  :class:`~repro.reliability.NumericsGuard`, bounded per-class update
  norms (:func:`~repro.learn.mass.clip_update_norms`), and a token-
  bucket rate limit.  Every ``holdout_every``-th sample is held back
  into a validation ring instead of being learned from.  Feedback with
  a previously unseen label allocates a **new class hypervector with
  no retrain** (class-incremental arrival, ImageHD-style).
* :class:`~repro.online.promote.PromotionController` — evaluates the
  shadow against the live matrix on the held-back ring and the
  :mod:`repro.telemetry.diagnostics` matrix-health view (accuracy
  delta, confusability, saturation, minimum feedback/validation
  counts; drift is reported, not gated).  Every gate must pass; a
  poisoned feedback stream fails the accuracy-gain and confusability
  gates and never reaches production.
* :class:`~repro.online.learner.OnlineLearner` — the server-side
  façade: resolves ``/feedback`` bodies (inline features or a
  remembered ``request_id``), feeds the shadow, and on a passing
  evaluation performs **atomic promotion** — export a version-bumped
  bundle (:meth:`~repro.serve.bundle.ModelBundle.promoted`, with
  recomputed quality-baseline class priors) and reuse the existing
  ``/reload`` hot swap, so in-flight ``/predict`` batches finish on
  whichever engine they started with.

Everything is observable under ``online.*`` / ``serve.feedback.*``
metrics (see docs/OBSERVABILITY.md) and ``GET /onlinez``; the tier-2
gate is ``scripts/check_online.sh``.  See docs/ONLINE.md.
"""

from .learner import OnlineLearner
from .promote import PromotionController
from .shadow import FeedbackError, ShadowModel

__all__ = ["OnlineLearner", "PromotionController", "ShadowModel",
           "FeedbackError"]
