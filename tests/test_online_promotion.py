"""Unit tests for promotion gating and the bundle promotion path.

Covers every :class:`~repro.online.promote.PromotionController` gate
failing individually (including the ``min_shadow_accuracy`` poison
backstop), :meth:`~repro.serve.bundle.ModelBundle.promoted` (version
bump, re-quantization parity, recomputed class priors, refusal modes),
and the :class:`~repro.online.learner.OnlineLearner` promote flow
against a fake server (export → reload → rebase, failure containment,
external-reload detection).
"""

import os

import numpy as np
import pytest

from repro.online import OnlineLearner, PromotionController, ShadowModel
from repro.online import learner as learner_module
from repro.serve import BundleError, InferenceEngine, ModelBundle
from repro.telemetry import MetricsRegistry, use_registry
from repro.telemetry.quality import QualityBaseline

from .conftest import _synthetic_bundle


@pytest.fixture(autouse=True)
def registry():
    fresh = MetricsRegistry()
    with use_registry(fresh):
        yield fresh


DIM = 64
FEATURES = 16


def make_base(classes=3, dim=DIM, seed=0):
    rng = np.random.default_rng(seed)
    return np.where(rng.random((classes, dim)) < 0.5, -1.0, 1.0)


def recovered_shadow(seed=1, samples=150):
    """A shadow that learned a 0<->1 label swap on clustered data —
    a scenario where every (lenient) gate should pass."""
    base = make_base(seed=seed)
    shadow = ShadowModel(base, lr=8.0, max_update_norm=8.0,
                         holdout_every=4)
    rng = np.random.default_rng(seed + 100)
    swap = {0: 1, 1: 0, 2: 2}
    for _ in range(samples):
        cluster = int(rng.integers(0, 3))
        hv = np.sign(base[cluster] + rng.normal(0, 0.4, DIM))
        hv[hv == 0] = 1.0
        shadow.ingest(hv[None, :], swap[cluster])
    return shadow, base


def lenient(**overrides):
    kwargs = dict(min_feedback=16, min_validation=8,
                  min_accuracy_gain=0.01, min_shadow_accuracy=0.5,
                  max_confusability_increase=0.6, max_saturation=0.6)
    kwargs.update(overrides)
    return PromotionController(**kwargs)


class TestControllerConstruction:
    @pytest.mark.parametrize("kwargs", [
        {"min_feedback": -1},
        {"min_validation": -1},
        {"min_shadow_accuracy": 1.5},
        {"max_saturation": 2.0},
        {"max_saturation": -0.1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            PromotionController(**kwargs)

    def test_config_round_trip(self):
        controller = lenient()
        config = controller.config()
        assert config["min_shadow_accuracy"] == 0.5
        assert PromotionController(**config).config() == config


class TestGates:
    def test_all_gates_pass_on_recovered_shadow(self, registry):
        shadow, base = recovered_shadow()
        decision = lenient().evaluate(shadow, base)
        assert decision["promote"] is True
        assert decision["reasons"] == []
        assert all(check["passed"]
                   for check in decision["checks"].values())
        assert registry.counter("online.promotion.evaluations").value == 1

    def test_feedback_gate(self, registry):
        shadow, base = recovered_shadow()
        decision = lenient(min_feedback=10 ** 6).evaluate(shadow, base)
        assert not decision["promote"]
        assert decision["reasons"] == ["feedback"]
        assert registry.counter("online.promotion.rejected").value == 1

    def test_validation_gate(self):
        shadow, base = recovered_shadow()
        decision = lenient(min_validation=10 ** 6).evaluate(shadow, base)
        assert decision["reasons"] == ["validation"]

    def test_accuracy_gate(self):
        shadow, base = recovered_shadow()
        decision = lenient(min_accuracy_gain=1.1).evaluate(shadow, base)
        assert "accuracy" in decision["reasons"]
        assert decision["checks"]["accuracy"]["gain"] is not None

    def test_shadow_accuracy_gate_blocks_poison(self):
        """The poison backstop: random labels leave the shadow near
        chance while the live model is systematically wrong, so the
        *relative* gain can look positive — the absolute floor must
        still veto."""
        base = make_base(seed=5)
        shadow = ShadowModel(base, lr=8.0,
                             max_update_norm=8.0, holdout_every=4)
        rng = np.random.default_rng(6)
        for _ in range(150):
            cluster = int(rng.integers(0, 3))
            wrong = int((cluster + rng.integers(1, 3)) % 3)
            hv = np.sign(base[cluster] + rng.normal(0, 0.4, DIM))
            hv[hv == 0] = 1.0
            shadow.ingest(hv[None, :], wrong)
        decision = lenient(min_accuracy_gain=-1.0).evaluate(shadow, base)
        assert not decision["promote"]
        assert "shadow_accuracy" in decision["reasons"]
        acc = decision["checks"]["shadow_accuracy"]["accuracy"]
        assert acc < 0.5  # near chance on an inconsistent stream

    def test_empty_ring_fails_accuracy_gates(self):
        shadow = ShadowModel(make_base(), holdout_every=0)
        decision = lenient().evaluate(shadow, shadow.base)
        assert not decision["checks"]["accuracy"]["passed"]
        assert not decision["checks"]["shadow_accuracy"]["passed"]
        assert decision["checks"]["accuracy"]["gain"] is None

    def test_confusability_gate(self):
        shadow, base = recovered_shadow()
        # Smash two class rows together: off-diagonal cosine -> 1.0.
        shadow.trainer.class_matrix[1] = shadow.trainer.class_matrix[0]
        decision = lenient(
            max_confusability_increase=0.01).evaluate(shadow, base)
        assert "confusability" in decision["reasons"]
        assert decision["checks"]["confusability"]["off_diag_max"] == \
            pytest.approx(1.0)

    def test_confusability_trivially_passes_without_signal(self):
        """A non-finite off-diagonal cosine (degenerate matrix) means
        there is nothing to confuse — the gate passes vacuously."""
        class _DegenerateShadow:
            applied = 100
            base = np.ones((2, 8))

            def evaluate(self, live_matrix):
                return {"size": 100, "shadow_accuracy": 1.0,
                        "live_accuracy": 0.0}

            def health(self):
                return {"confusability":
                        {"off_diag_max": float("nan")},
                        "saturation_fraction": 0.0,
                        "drift": {"relative": 0.0}}

        decision = lenient().evaluate(_DegenerateShadow(), np.ones((2, 8)))
        assert decision["checks"]["confusability"]["passed"]
        assert decision["checks"]["confusability"]["off_diag_max"] is None

    def test_saturation_gate(self):
        shadow, base = recovered_shadow()
        shadow.trainer.class_matrix[0, :8] = 1e4  # blown dimensions
        decision = lenient(max_saturation=0.01).evaluate(shadow, base)
        assert "saturation" in decision["reasons"]

    def test_drift_is_reported_not_gated(self):
        # A label shift moves the matrix a lot, and that is the point.
        shadow, base = recovered_shadow()
        decision = lenient().evaluate(shadow, base)
        assert decision["promote"] is True
        assert "drift" not in decision["checks"]
        assert decision["health"]["drift"]["relative"] > 0.1


def baselined_bundle(seed=0, classes=4):
    bundle = _synthetic_bundle(dim=DIM, features=FEATURES,
                               classes=classes, seed=seed)
    bundle.capture_baseline(
        np.random.default_rng(seed).normal(size=(256, FEATURES)))
    return bundle


class TestBundlePromoted:
    def test_version_bump_and_provenance(self):
        bundle = _synthetic_bundle(dim=DIM, features=FEATURES,
                                   classes=4, seed=1)
        matrix = np.asarray(bundle.arrays["classes"]).copy()
        child = bundle.promoted(matrix, generation=3, feedback_count=77)
        online = child.info["online"]
        assert online["generation"] == 3
        assert online["feedback_count"] == 77
        assert online["classes_added"] == 0
        assert online["parent_fingerprint"] == \
            bundle.info["config_fingerprint"]
        assert child.info["config_fingerprint"] != \
            bundle.info["config_fingerprint"]

    def test_binarized_requantize_keeps_untouched_rows_bit_exact(self):
        bundle = _synthetic_bundle(dim=DIM, features=FEATURES,
                                   classes=4, seed=2)
        matrix = np.asarray(bundle.arrays["classes"],
                            dtype=np.float64).copy()
        matrix[0] += np.random.default_rng(3).normal(0, 5.0, DIM)
        child = bundle.promoted(matrix)
        promoted = child.arrays["classes"]
        assert set(np.unique(promoted)) <= {-1.0, 1.0}  # re-quantized
        assert np.array_equal(promoted[1:],
                              bundle.arrays["classes"][1:])

    def test_class_incremental_growth(self):
        bundle = _synthetic_bundle(dim=DIM, features=FEATURES,
                                   classes=3, seed=4)
        grown = np.vstack([np.asarray(bundle.arrays["classes"]),
                           np.ones((1, DIM))])
        child = bundle.promoted(grown)
        assert child.info["num_classes"] == 4
        assert child.info["online"]["classes_added"] == 1

    def test_rejects_wrong_dim(self):
        bundle = _synthetic_bundle(dim=DIM, classes=3, seed=5)
        with pytest.raises(BundleError, match="dim"):
            bundle.promoted(np.ones((3, DIM + 1)))

    def test_rejects_class_removal(self):
        bundle = _synthetic_bundle(dim=DIM, classes=3, seed=6)
        with pytest.raises(BundleError, match="fewer"):
            bundle.promoted(np.ones((2, DIM)))

    def test_rejects_nonfinite(self):
        bundle = _synthetic_bundle(dim=DIM, classes=3, seed=7)
        bad = np.ones((3, DIM))
        bad[0, 0] = np.nan
        with pytest.raises(BundleError, match="NaN"):
            bundle.promoted(bad)

    def test_priors_require_baseline(self):
        bundle = _synthetic_bundle(dim=DIM, classes=3, seed=8)
        with pytest.raises(BundleError, match="quality_baseline"):
            bundle.promoted(np.ones((3, DIM)),
                            class_priors=np.full(3, 1 / 3))

    def test_growth_on_baselined_bundle_requires_priors(self):
        bundle = baselined_bundle(seed=9, classes=3)
        grown = np.vstack([np.asarray(bundle.arrays["classes"]),
                           np.ones((1, DIM))])
        with pytest.raises(BundleError, match="class_priors"):
            bundle.promoted(grown)

    def test_recomputed_priors_cover_new_class(self):
        bundle = baselined_bundle(seed=10, classes=3)
        grown = np.vstack([np.asarray(bundle.arrays["classes"]),
                           np.ones((1, DIM))])
        priors = np.full(4, 0.25)
        child = bundle.promoted(grown, class_priors=priors)
        baseline = QualityBaseline.from_dict(
            child.info["quality_baseline"])
        np.testing.assert_allclose(baseline.class_priors, priors)

    def test_promoted_survives_save_load(self, tmp_path):
        bundle = _synthetic_bundle(dim=DIM, classes=3, seed=11)
        child = bundle.promoted(np.asarray(bundle.arrays["classes"]),
                                generation=2)
        path = str(tmp_path / "promoted.npz")
        child.save(path)
        loaded = ModelBundle.load(path)
        assert loaded.info["online"]["generation"] == 2


class FakeServer:
    """The slice of ModelServer the learner touches: engine + reload."""

    def __init__(self, bundle, bundle_path=None):
        self.engine = InferenceEngine(bundle, build_extractor=False)
        self.bundle_path = bundle_path
        self.reloads = []

    def reload(self, path=None):
        self.engine = InferenceEngine.from_path(path,
                                                build_extractor=False)
        self.reloads.append(path)
        return {"bundle_path": path}


def feature_prototypes(classes=4, seed=0):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(classes, FEATURES)) * 3.0


def learner_on(bundle, tmp_path, **overrides):
    kwargs = dict(lr=8.0, max_update_norm=8.0,
                  holdout_every=4, promote_every=0, auto_promote=False,
                  export_dir=str(tmp_path), min_feedback=16,
                  min_validation=8, min_accuracy_gain=0.01,
                  min_shadow_accuracy=0.5,
                  max_confusability_increase=0.6, max_saturation=0.6)
    kwargs.update(overrides)
    server = FakeServer(bundle, bundle_path=None)
    return server, OnlineLearner(server, **kwargs)


def feed(learner, protos, labels, count, seed=0):
    # Random label order: a fixed cycle would alias with holdout_every
    # (every held-out sample the same class, which then never trains).
    rng = np.random.default_rng(seed)
    for i in range(count):
        label = int(labels[rng.integers(0, len(labels))])
        features = protos[label] + rng.normal(0, 0.1, FEATURES)
        status, body = learner.feedback({"label": label,
                                         "features": features.tolist()})
        assert status == 200, body


class TestLearnerFlow:
    def test_feedback_validation(self, tmp_path):
        bundle = _synthetic_bundle(dim=DIM, features=FEATURES,
                                   classes=4, seed=20)
        _, learner = learner_on(bundle, tmp_path)
        assert learner.feedback({"label": True,
                                 "features": [0.0] * FEATURES})[0] == 400
        assert learner.feedback({"label": "3",
                                 "features": [0.0] * FEATURES})[0] == 400
        assert learner.feedback({"label": 0})[0] == 400  # neither
        assert learner.feedback(
            {"label": 0, "features": [0.0] * FEATURES,
             "request_id": "x"})[0] == 400  # both
        assert learner.feedback(
            {"label": 0, "request_id": "missing"})[0] == 404
        assert learner.feedback(
            {"label": 0,
             "features": [float("nan")] * FEATURES})[0] == 400
        assert learner.feedback(
            {"label": 0, "features": [0.0] * (FEATURES + 1)})[0] == 400
        assert learner.feedback(
            {"label": 99, "features": [0.0] * FEATURES})[0] == 400

    def test_packed_engine_feedback_matches_float_engine(self, tmp_path):
        """Feedback encoded by a packed engine (sign words, unpacked by
        the learner) trains the shadow exactly as a float engine's
        hypervectors do."""
        fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "fixtures")
        bundle = ModelBundle.load(
            os.path.join(fixtures, "golden_nshd_bundle_packed.npz"))
        with np.load(os.path.join(fixtures, "golden_inputs.npz")) as golden:
            raw = golden["nshd.raw_features"]
            labels = golden["y_te"]
        shadows = {}
        for use_packed in (True, False):
            server, learner = learner_on(bundle, tmp_path)
            server.engine = InferenceEngine(bundle, build_extractor=False,
                                            use_packed=use_packed)
            for row, label in zip(raw, labels):
                status, body = learner.feedback(
                    {"label": int(label), "features": row.tolist()})
                assert status == 200, body
            assert learner.shadow.applied > 0
            shadows[use_packed] = (learner.shadow.snapshot(),
                                   *learner.shadow.validation_set())
        for got, want in zip(shadows[True], shadows[False]):
            np.testing.assert_array_equal(got, want)
        assert not np.array_equal(shadows[True][0], bundle.class_matrix())

    def test_remember_recall_bounded(self, tmp_path, monkeypatch):
        monkeypatch.setattr(learner_module, "REMEMBER_REQUESTS", 3)
        bundle = _synthetic_bundle(dim=DIM, features=FEATURES,
                                   classes=4, seed=21)
        _, learner = learner_on(bundle, tmp_path)
        for i in range(5):
            learner.remember(f"req-{i}", np.zeros((1, FEATURES)) + i)
        assert learner.recall("req-0") is None  # evicted
        assert learner.recall("req-4")[0] == pytest.approx(4.0)
        learner.remember("multi", np.zeros((2, FEATURES)))
        assert learner.recall("multi") is None  # batches are ambiguous

    def test_request_id_feedback_path(self, tmp_path):
        bundle = _synthetic_bundle(dim=DIM, features=FEATURES,
                                   classes=4, seed=22)
        _, learner = learner_on(bundle, tmp_path)
        learner.remember("req-a", np.zeros((1, FEATURES)))
        status, body = learner.feedback({"label": 1,
                                         "request_id": "req-a"})
        assert status == 200
        assert body["status"] in ("applied", "held_out")

    def test_manual_promotion_exports_and_reloads(self, tmp_path):
        bundle = _synthetic_bundle(dim=DIM, features=FEATURES,
                                   classes=4, seed=23)
        server, learner = learner_on(bundle, tmp_path)
        protos = feature_prototypes(seed=23)
        feed(learner, protos, [0, 1, 2, 3], 120, seed=23)
        decision = learner.try_promote()
        assert decision["promote"], decision["reasons"]
        assert decision["promoted"] is True
        assert os.path.exists(decision["bundle_path"])
        assert server.reloads == [decision["bundle_path"]]
        assert learner.generation == 1
        assert learner.shadow.applied == 0  # rebased onto the new live
        assert learner.shadow.base_classes == 4
        assert server.engine.bundle.info["online"]["generation"] == 1

    def test_auto_promote_triggers_on_cadence(self, tmp_path, registry):
        bundle = _synthetic_bundle(dim=DIM, features=FEATURES,
                                   classes=4, seed=24)
        server, learner = learner_on(bundle, tmp_path, promote_every=40,
                                     auto_promote=True)
        protos = feature_prototypes(seed=24)
        feed(learner, protos, [0, 1, 2, 3], 200, seed=24)
        assert learner.generation >= 1
        assert server.reloads
        assert registry.counter("online.promotion.promoted").value >= 1

    def test_promotion_recomputes_priors_after_growth(self, tmp_path):
        bundle = baselined_bundle(seed=25, classes=3)
        server, learner = learner_on(bundle, tmp_path)
        protos = feature_prototypes(classes=4, seed=25)
        feed(learner, protos, [0, 1, 2], 60, seed=25)
        feed(learner, protos, [3], 60, seed=26)  # brand-new class
        decision = learner.try_promote()
        assert decision["promoted"], decision
        baseline = server.engine.bundle.info["quality_baseline"]
        priors = np.asarray(baseline["class_priors"])
        assert priors.shape == (4,)
        assert priors[3] > 0  # the new class has mass
        np.testing.assert_allclose(priors.sum(), 1.0)

    def test_promotion_failure_is_contained(self, tmp_path, registry):
        bundle = _synthetic_bundle(dim=DIM, features=FEATURES,
                                   classes=4, seed=27)
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file where the export dir should be")
        server, learner = learner_on(bundle, tmp_path,
                                     export_dir=str(blocker))
        protos = feature_prototypes(seed=27)
        feed(learner, protos, [0, 1, 2, 3], 120, seed=27)
        old_fingerprint = learner._engine_fingerprint()
        decision = learner.try_promote()
        assert decision["promote"] is True  # gates passed...
        assert decision["promoted"] is False  # ...but export failed
        assert "error" in decision
        assert server.reloads == []
        assert learner._engine_fingerprint() == old_fingerprint
        assert registry.counter("online.promotion.failed").value == 1

    def test_external_reload_rebases_shadow(self, tmp_path):
        bundle = _synthetic_bundle(dim=DIM, features=FEATURES,
                                   classes=4, seed=28)
        server, learner = learner_on(bundle, tmp_path)
        protos = feature_prototypes(seed=28)
        feed(learner, protos, [0, 1], 20, seed=28)
        assert learner.shadow.applied > 0
        # Operator swaps the bundle underneath the learner.
        other = _synthetic_bundle(dim=DIM, features=FEATURES,
                                  classes=5, seed=99)
        server.engine = InferenceEngine(other, build_extractor=False)
        status, body = learner.feedback(
            {"label": 0, "features": [0.0] * FEATURES})
        assert status == 200
        assert learner.shadow.base_classes == 5  # rebased, not stale

    def test_status_payload(self, tmp_path):
        bundle = _synthetic_bundle(dim=DIM, features=FEATURES,
                                   classes=4, seed=29)
        _, learner = learner_on(bundle, tmp_path)
        status = learner.status()
        assert status["enabled"] is True
        assert status["generation"] == 0
        assert status["shadow"]["base_classes"] == 4
        assert status["gates"]["min_shadow_accuracy"] == 0.5
        assert status["last_decision"] is None
