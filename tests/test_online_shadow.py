"""Unit tests for the serve-path shadow model (repro.online.shadow).

Covers guarded feedback ingestion (statuses, label validation, class
growth budget), the holdout validation ring, token-bucket rate
limiting, numerics-guard rejection, class-incremental parity for
pre-existing rows, update-norm bounding, rebase/reset semantics, and
shadow-vs-live ring evaluation.
"""

import numpy as np
import pytest

from repro.online import FeedbackError, ShadowModel
from repro.online import shadow as shadow_module
from repro.online.shadow import MAX_NEW_CLASSES, _TokenBucket
from repro.reliability.guards import NumericsGuard
from repro.telemetry import MetricsRegistry, use_registry


@pytest.fixture(autouse=True)
def registry():
    fresh = MetricsRegistry()
    with use_registry(fresh):
        yield fresh


DIM = 64


def make_base(classes=3, dim=DIM, seed=0):
    rng = np.random.default_rng(seed)
    return np.where(rng.random((classes, dim)) < 0.5, -1.0, 1.0)


def sample(base, label, noise=0.4, seed=None, rng=None):
    rng = rng or np.random.default_rng(seed)
    hv = np.sign(base[label] + rng.normal(0, noise, size=base.shape[1]))
    hv[hv == 0] = 1.0
    return hv[None, :]


@pytest.fixture
def frozen_clock(monkeypatch):
    """Stop the token bucket's clock: no tokens refill mid-test."""
    monkeypatch.setattr(shadow_module, "clock", lambda: 0.0)


class TestConstruction:
    # Only None turns rate limiting off: 0 used to, and NaN or inf
    # admitted every sample, so each would silently drop the defense.
    @pytest.mark.parametrize("kwargs", [
        {"holdout_every": -1},
        {"rate_limit_per_s": 0.0},
        {"rate_limit_per_s": float("nan")},
        {"rate_limit_per_s": float("inf")},
        {"rate_limit_per_s": -1.0},
    ])
    def test_bad_parameters_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            ShadowModel(make_base(), **kwargs)

    def test_base_is_copied_not_aliased(self):
        base = make_base()
        shadow = ShadowModel(base, holdout_every=0)
        shadow.ingest(sample(base, 0, seed=1), 1)  # wrong label → update
        assert np.array_equal(base, make_base())  # caller's array intact
        assert np.array_equal(shadow.base, base)


class TestIngestStatuses:
    def test_applied_known_label(self):
        base = make_base()
        shadow = ShadowModel(base, holdout_every=0)
        assert shadow.ingest(sample(base, 0, seed=2), 0) == "applied"
        assert shadow.applied == 1

    def test_holdout_every_nth(self):
        base = make_base()
        shadow = ShadowModel(base, holdout_every=2)
        statuses = [shadow.ingest(sample(base, 0, seed=i), 0)
                    for i in range(6)]
        assert statuses == ["applied", "held_out"] * 3
        assert shadow.held_out == 3 and shadow.applied == 3
        hvs, labels = shadow.validation_set()
        assert len(labels) == 3 and set(labels) == {0}
        assert hvs.shape == (3, DIM)

    def test_holdout_disabled(self):
        base = make_base()
        shadow = ShadowModel(base, holdout_every=0)
        for i in range(8):
            assert shadow.ingest(sample(base, 1, seed=i), 1) == "applied"
        assert shadow.held_out == 0
        assert shadow.validation_set()[1].size == 0

    def test_ring_wraps_at_capacity(self, monkeypatch):
        monkeypatch.setattr(shadow_module, "VALIDATION_CAPACITY", 4)
        base = make_base()
        shadow = ShadowModel(base, holdout_every=1)
        for i in range(10):
            shadow.ingest(sample(base, i % 3, seed=i), i % 3)
        hvs, labels = shadow.validation_set()
        assert len(labels) == 4  # bounded, oldest overwritten

    def test_rate_limited(self, frozen_clock):
        base = make_base()
        # The burst is max(1, rate): two samples, then nothing refills.
        shadow = ShadowModel(base, holdout_every=0, rate_limit_per_s=2.0)
        statuses = [shadow.ingest(sample(base, 0, seed=i), 0)
                    for i in range(4)]
        assert statuses[:2] == ["applied", "applied"]
        assert statuses[2:] == ["rate_limited", "rate_limited"]
        assert shadow.rate_limited == 2
        assert shadow.applied == 2  # limited samples never learned from

    def test_guard_rejects_nonfinite(self):
        base = make_base()
        shadow = ShadowModel(base, holdout_every=0)
        poisoned = sample(base, 0, seed=3)
        poisoned[0, 7] = np.nan
        before = shadow.snapshot()
        assert shadow.ingest(poisoned, 0) == "rejected"
        assert shadow.rejected == 1
        assert np.array_equal(shadow.matrix, before)  # matrix untouched

    def test_shape_mismatch_raises(self):
        shadow = ShadowModel(make_base())
        with pytest.raises(FeedbackError, match="shape"):
            shadow.ingest(np.ones((1, DIM + 1)), 0)
        with pytest.raises(FeedbackError, match="shape"):
            shadow.ingest(np.ones((2, DIM)), 0)

    def test_flat_vector_accepted(self):
        base = make_base()
        shadow = ShadowModel(base, holdout_every=0)
        assert shadow.ingest(sample(base, 0, seed=4)[0], 0) == "applied"


class TestLabelValidation:
    def test_out_of_range_labels_raise(self):
        shadow = ShadowModel(make_base())
        hv = sample(shadow.base, 0, seed=5)
        with pytest.raises(FeedbackError, match="outside"):
            shadow.ingest(hv, -1)
        with pytest.raises(FeedbackError, match="outside"):
            shadow.ingest(hv, 4)  # next unseen label is 3, not 4

    def test_growth_budget_enforced(self):
        base = make_base()
        shadow = ShadowModel(base, holdout_every=0)
        for label in range(3, 3 + MAX_NEW_CLASSES):
            assert shadow.ingest(sample(base, 0, seed=label),
                                 label) == "new_class"
        with pytest.raises(FeedbackError, match="budget"):
            shadow.ingest(sample(base, 0, seed=7), 3 + MAX_NEW_CLASSES)

    def test_growth_disabled(self):
        # An exhausted budget disables growth for the rest of the
        # generation; a rebase starts a new one.
        base = make_base()
        shadow = ShadowModel(base, holdout_every=0)
        for label in range(3, 3 + MAX_NEW_CLASSES):
            shadow.ingest(sample(base, 0, seed=label), label)
        grown = shadow.snapshot()
        for _ in range(2):
            with pytest.raises(FeedbackError, match="budget"):
                shadow.ingest(sample(base, 0, seed=8), grown.shape[0])
        shadow.reset_to(grown)
        assert shadow.ingest(sample(base, 0, seed=9),
                             grown.shape[0]) == "new_class"


class TestClassIncremental:
    def test_new_class_seeds_then_bundles(self):
        base = make_base()
        shadow = ShadowModel(base, holdout_every=0)
        rng = np.random.default_rng(9)
        proto = np.where(rng.random(DIM) < 0.5, -1.0, 1.0)
        first = proto[None, :]
        assert shadow.ingest(first, 3) == "new_class"
        assert shadow.num_classes == 4 and shadow.classes_added == 1
        np.testing.assert_allclose(shadow.matrix[3], proto)
        # Later samples accumulate into the new row only.
        second = np.sign(proto + rng.normal(0, 0.3, DIM))[None, :]
        second[second == 0] = 1.0
        assert shadow.ingest(second, 3) == "applied"
        np.testing.assert_allclose(shadow.matrix[3],
                                   proto + second[0])

    def test_preexisting_rows_bit_exact(self):
        """New-class feedback must never move rows < base_classes —
        the parity guarantee the live gate asserts end-to-end."""
        base = make_base()
        shadow = ShadowModel(base, holdout_every=0)
        rng = np.random.default_rng(10)
        proto = np.where(rng.random(DIM) < 0.5, -1.0, 1.0)
        for _ in range(20):
            hv = np.sign(proto + rng.normal(0, 0.4, DIM))[None, :]
            hv[hv == 0] = 1.0
            shadow.ingest(hv, 3)
        assert np.array_equal(shadow.matrix[:3], base)


class TestBounds:
    def test_update_norm_capped_per_row(self):
        base = make_base()
        cap = 0.25
        shadow = ShadowModel(base, lr=50.0,
                             max_update_norm=cap, holdout_every=0)
        before = shadow.snapshot()
        shadow.ingest(sample(base, 0, seed=11), 1)  # deliberately wrong
        moved = np.linalg.norm(shadow.matrix - before, axis=1)
        assert moved.max() <= cap * (1 + 1e-9)
        assert moved.max() > 0  # and it did move

    @pytest.mark.parametrize("cap", [0, 0.0, float("nan"), float("inf")])
    def test_update_cap_must_be_finite_and_positive(self, cap):
        # Only None turns the clip off.
        with pytest.raises(ValueError, match="max_update_norm"):
            ShadowModel(make_base(), max_update_norm=cap)

    def test_unclipped_update_moves_past_the_default_cap(self):
        base = make_base()
        shadow = ShadowModel(base, lr=50.0, max_update_norm=None,
                             holdout_every=0)
        before = shadow.snapshot()
        shadow.ingest(sample(base, 0, seed=11), 1)
        assert np.linalg.norm(shadow.matrix - before, axis=1).max() > 1.0

    def test_update_norm_histogram_observed(self, registry):
        base = make_base()
        shadow = ShadowModel(base, holdout_every=0)
        shadow.ingest(sample(base, 0, seed=12), 1)
        assert "online.update_norm" in registry


class TestLifecycle:
    def test_reset_to_clears_state(self):
        base = make_base()
        shadow = ShadowModel(base, holdout_every=2)
        for i in range(8):
            shadow.ingest(sample(base, 0, seed=i), 0)
        new_base = make_base(classes=4, seed=99)
        shadow.reset_to(new_base)
        assert shadow.num_classes == 4
        assert shadow.applied == shadow.held_out == 0
        assert shadow.generation_feedback == 0
        assert shadow.validation_set()[1].size == 0
        assert np.array_equal(shadow.base, new_base)

    def test_snapshot_is_a_copy(self):
        shadow = ShadowModel(make_base())
        snap = shadow.snapshot()
        snap[:] = 0.0
        assert not np.array_equal(shadow.matrix, snap)


class TestEvaluation:
    def test_empty_ring_yields_none(self):
        shadow = ShadowModel(make_base())
        result = shadow.evaluate(shadow.base)
        assert result == {"size": 0, "shadow_accuracy": None,
                          "live_accuracy": None}

    def test_shadow_beats_stale_live_after_shift(self):
        """Swap labels 0<->1 via feedback; on the held-out ring the
        shadow should outscore the stale live matrix."""
        base = make_base(seed=13)
        shadow = ShadowModel(base, lr=8.0,
                             max_update_norm=8.0, holdout_every=4)
        rng = np.random.default_rng(14)
        swap = {0: 1, 1: 0, 2: 2}
        for _ in range(120):
            cluster = int(rng.integers(0, 3))
            hv = sample(base, cluster, noise=0.4, rng=rng)
            shadow.ingest(hv, swap[cluster])
        result = shadow.evaluate(base)
        assert result["size"] >= 8
        assert result["shadow_accuracy"] > result["live_accuracy"]
        assert result["shadow_accuracy"] > 0.8

    def test_health_reports_drift(self, registry):
        base = make_base()
        shadow = ShadowModel(base, holdout_every=0, lr=1.0,
                             max_update_norm=None)
        health = shadow.health()
        assert health["drift"]["relative"] == 0.0
        for i in range(10):
            shadow.ingest(sample(base, 0, seed=20 + i), 1)
        health = shadow.health()
        assert health["drift"]["relative"] > 0.0
        assert "online.shadow.drift" in registry

    def test_status_shape(self):
        shadow = ShadowModel(make_base(), rate_limit_per_s=10.0)
        status = shadow.status()
        assert status["base_classes"] == 3
        assert status["feedback"] == {"seen": 0, "applied": 0,
                                      "held_out": 0, "rejected": 0,
                                      "rate_limited": 0}


class TestTokenBucket:
    def test_burst_then_deny(self, frozen_clock):
        bucket = _TokenBucket(rate_per_s=3.0)
        assert [bucket.allow() for _ in range(4)] == \
            [True, True, True, False]
        slow = _TokenBucket(rate_per_s=0.001)  # burst is at least 1
        assert [slow.allow() for _ in range(2)] == [True, False]

    def test_validation(self):
        for rate in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="rate_limit_per_s"):
                _TokenBucket(rate_per_s=rate)

    def test_guard_counts_surface_in_status(self):
        guard = NumericsGuard(policy="skip_batch", name="online")
        shadow = ShadowModel(make_base(), guard=guard, holdout_every=0)
        bad = np.full((1, DIM), np.inf)
        assert shadow.ingest(bad, 0) == "rejected"
        assert sum(shadow.status()["guard"].values()) >= 1
