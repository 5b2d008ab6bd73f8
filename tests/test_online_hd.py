"""Tests for the OnlineHD trainer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hd.backend import pack_bipolar
from repro.hd.hypervector import is_bipolar
from repro.learn import MassTrainer
from repro.learn.mass import clip_update_norms
from repro.learn.online import OnlineHDTrainer


def make_problem(num_classes=4, per_class=40, dim=512, noise=0.8, seed=0):
    rng = np.random.default_rng(seed)
    protos = rng.choice([-1.0, 1.0], size=(num_classes, dim))
    labels = np.repeat(np.arange(num_classes), per_class)
    hvs = np.sign(protos[labels] + rng.normal(0, noise, size=(len(labels),
                                                              dim)))
    hvs[hvs == 0] = 1
    return hvs, labels


class TestOnlineHDTrainer:
    def test_update_sparsity(self):
        hvs, labels = make_problem()
        trainer = OnlineHDTrainer(4, hvs.shape[1])
        trainer.initialize(hvs, labels)
        update = trainer.compute_update(hvs, labels)
        # At most two nonzero entries per row (correct + predicted).
        assert (np.abs(update) > 0).sum(axis=1).max() <= 2

    def test_no_update_when_correct(self):
        hvs, labels = make_problem(noise=0.1, seed=1)
        trainer = OnlineHDTrainer(4, hvs.shape[1])
        trainer.initialize(hvs, labels)
        correct = trainer.predict(hvs) == labels
        update = trainer.compute_update(hvs, labels)
        assert np.all(update[correct] == 0.0)

    def test_reinforce_correct_option(self):
        hvs, labels = make_problem(noise=0.1, seed=2)
        trainer = OnlineHDTrainer(4, hvs.shape[1], reinforce_correct=True)
        trainer.initialize(hvs, labels)
        correct = trainer.predict(hvs) == labels
        update = trainer.compute_update(hvs, labels)
        assert np.any(update[correct] != 0.0)

    def test_learns_clustered_problem(self):
        hvs, labels = make_problem(noise=1.0, seed=3)
        trainer = OnlineHDTrainer(4, hvs.shape[1], lr=0.1)
        trainer.fit(hvs, labels, epochs=20, rng=np.random.default_rng(0))
        assert trainer.accuracy(hvs, labels) > 0.9

    def test_mass_uses_richer_signal(self):
        """MASS updates all classes; OnlineHD only two — MASS should not
        be worse on a many-class problem at matched budget (the CascadeHD
        argument)."""
        hvs, labels = make_problem(num_classes=8, per_class=25, noise=1.2,
                                   seed=4)
        mass = MassTrainer(8, hvs.shape[1], lr=0.05)
        mass.fit(hvs, labels, epochs=8, rng=np.random.default_rng(0))
        online = OnlineHDTrainer(8, hvs.shape[1], lr=0.05)
        online.fit(hvs, labels, epochs=8, rng=np.random.default_rng(0))
        assert mass.accuracy(hvs, labels) >= \
            online.accuracy(hvs, labels) - 0.05


class TestOnlineHDProperties:
    """Property tests for the sparse two-class rule (hypothesis)."""

    @given(seed=st.integers(0, 2 ** 16), num_classes=st.integers(2, 6),
           dim=st.sampled_from([64, 128]), n=st.integers(1, 8),
           reinforce=st.booleans(),
           rate=st.floats(0.0, 1.0, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_sparse_update_structure(self, seed, num_classes, dim, n,
                                     reinforce, rate):
        """Every update row has at most two nonzeros — the label and the
        prediction — with the OnlineHD magnitudes; correct rows carry
        only the ``reinforce_rate``-scaled consolidation term."""
        rng = np.random.default_rng(seed)
        hvs = rng.choice([-1.0, 1.0], size=(n, dim))
        labels = rng.integers(0, num_classes, size=n)
        trainer = OnlineHDTrainer(num_classes, dim,
                                  reinforce_correct=reinforce,
                                  reinforce_rate=rate)
        trainer.class_matrix = rng.choice([-1.0, 1.0],
                                          size=(num_classes, dim))
        sims = trainer.similarities(hvs)
        preds = sims.argmax(axis=1)
        update = trainer.compute_update(hvs, labels)
        assert (np.abs(update) > 0).sum(axis=1).max() <= 2
        for i in range(n):
            allowed = {int(labels[i]), int(preds[i])}
            off = [j for j in range(num_classes) if j not in allowed]
            assert np.all(update[i, off] == 0.0)
            if preds[i] != labels[i]:
                assert update[i, labels[i]] == \
                    pytest.approx(1.0 - sims[i, labels[i]])
                assert update[i, preds[i]] == \
                    pytest.approx(-(1.0 - sims[i, preds[i]]))
            elif reinforce:
                assert update[i, labels[i]] == \
                    pytest.approx(rate * (1.0 - sims[i, labels[i]]))
            else:
                assert np.all(update[i] == 0.0)

    @given(seed=st.integers(0, 2 ** 16), num_classes=st.integers(3, 8),
           reinforce=st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_single_step_preserves_untouched_rows_bit_exact(
            self, seed, num_classes, reinforce):
        """One sparse step moves at most the label and predicted rows;
        every other class row — and therefore its bit-packed form — is
        bit-identical, the invariant the serve-path shadow model's
        parity guarantee builds on."""
        dim = 128
        rng = np.random.default_rng(seed)
        trainer = OnlineHDTrainer(num_classes, dim, lr=0.5,
                                  reinforce_correct=reinforce)
        trainer.class_matrix = rng.choice([-1.0, 1.0],
                                          size=(num_classes, dim))
        before = trainer.class_matrix.copy()
        packed_before = pack_bipolar(before)
        hv = rng.choice([-1.0, 1.0], size=(1, dim))
        label = int(rng.integers(0, num_classes))
        pred = int(trainer.similarities(hv).argmax(axis=1)[0])
        assert trainer.step(hv, np.array([label]))
        touched = {label, pred}
        for row in range(num_classes):
            if row in touched:
                continue
            assert np.array_equal(trainer.class_matrix[row], before[row])
            assert is_bipolar(trainer.class_matrix[row])
            assert np.array_equal(
                pack_bipolar(trainer.class_matrix[row:row + 1]),
                packed_before[row:row + 1])

    @given(seed=st.integers(0, 2 ** 16),
           max_norm=st.floats(0.01, 10.0, allow_nan=False),
           rows=st.integers(1, 6))
    @settings(max_examples=60, deadline=None)
    def test_clip_update_norms_bounds_and_identity(self, seed, max_norm,
                                                   rows):
        """Clipped rows land on the max-norm ball; rows already under
        the cap pass through bit-exact."""
        rng = np.random.default_rng(seed)
        delta = rng.standard_normal((rows, 32)) * \
            rng.choice([0.01, 1.0, 100.0], size=(rows, 1))
        clipped = clip_update_norms(delta, max_norm)
        norms = np.linalg.norm(clipped, axis=1)
        assert np.all(norms <= max_norm * (1 + 1e-12))
        under = np.linalg.norm(delta, axis=1) <= max_norm
        assert np.array_equal(clipped[under], delta[under])

    def test_reinforce_rate_zero_matches_disabled(self):
        hvs, labels = make_problem(noise=0.5, seed=7)
        on = OnlineHDTrainer(4, hvs.shape[1], reinforce_correct=True,
                             reinforce_rate=0.0)
        off = OnlineHDTrainer(4, hvs.shape[1], reinforce_correct=False)
        for trainer in (on, off):
            trainer.initialize(hvs, labels)
        assert np.array_equal(on.compute_update(hvs, labels),
                              off.compute_update(hvs, labels))

    def test_reinforce_rate_validated(self):
        with pytest.raises(ValueError):
            OnlineHDTrainer(4, 64, reinforce_correct=True,
                            reinforce_rate=-0.1)

