"""Property tests for the bit-flip injector (hypothesis-driven), and
truncated checkpoints refused on load.

The injector contracts the robustness sweep relies on:

* rate 0 is the identity, rate 1 is full sign inversion;
* corruption is a pure function of ``(seed, array)`` — re-applying the
  same injector yields bit-identical corruption;
* the realized flip fraction concentrates around the configured rate;
* inputs are never mutated.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn.serialize import CheckpointError, load_state, save_state
from repro.reliability import BitFlipInjector, flip_bits
from repro.utils.rng import fresh_rng


def bipolar(shape, seed=0):
    return fresh_rng((seed, "bipolar")).choice([-1.0, 1.0], size=shape)


def truncate(path, keep_fraction):
    """Cut a file to its first ``keep_fraction`` of bytes (a mid-write
    kill or a dying disk)."""
    os.truncate(path, int(os.path.getsize(path) * keep_fraction))


# ----------------------------------------------------------------------
# BitFlipInjector properties
# ----------------------------------------------------------------------

class TestBitFlipProperties:
    @given(rows=st.integers(1, 20), cols=st.integers(1, 64),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_rate_zero_is_identity(self, rows, cols, seed):
        hvs = bipolar((rows, cols), seed)
        np.testing.assert_array_equal(
            BitFlipInjector(0.0, seed=seed).apply(hvs), hvs)

    @given(rows=st.integers(1, 20), cols=st.integers(1, 64),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_rate_one_is_full_inversion(self, rows, cols, seed):
        hvs = bipolar((rows, cols), seed)
        np.testing.assert_array_equal(
            BitFlipInjector(1.0, seed=seed).apply(hvs), -hvs)

    @given(rate=st.floats(0.0, 1.0, allow_nan=False),
           seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_seeding_is_idempotent(self, rate, seed):
        hvs = bipolar((8, 96), seed)
        injector = BitFlipInjector(rate, seed=seed)
        np.testing.assert_array_equal(injector.apply(hvs),
                                      injector.apply(hvs))

    @given(rate=st.floats(0.05, 0.95), seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_flip_fraction_tracks_rate(self, rate, seed):
        hvs = bipolar((40, 500), seed)
        corrupted = BitFlipInjector(rate, seed=seed).apply(hvs)
        realized = float((corrupted != hvs).mean())
        # 40*500 = 20k Bernoulli trials: 5 sigma of p=0.5 is ~0.018
        assert abs(realized - rate) < 0.02

    @given(seed=st.integers(0, 2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_input_never_mutated(self, seed):
        hvs = bipolar((5, 32), seed)
        original = hvs.copy()
        BitFlipInjector(0.7, seed=seed).apply(hvs)
        np.testing.assert_array_equal(hvs, original)

    def test_different_seeds_differ(self):
        hvs = bipolar((10, 256))
        a = BitFlipInjector(0.3, seed=1).apply(hvs)
        b = BitFlipInjector(0.3, seed=2).apply(hvs)
        assert not np.array_equal(a, b)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            BitFlipInjector(1.5)
        with pytest.raises(ValueError):
            flip_bits(np.ones(4), -0.1, fresh_rng(0))


# ----------------------------------------------------------------------
# Checkpoint truncation → CheckpointError on load
# ----------------------------------------------------------------------

class TestCheckpointTruncation:
    @pytest.mark.parametrize("keep", [0.0, 0.3, 0.9])
    def test_truncated_checkpoint_fails_to_load(self, tmp_path, keep):
        path = str(tmp_path / "state.npz")
        save_state({"w": np.arange(4096, dtype=np.float64)}, path)
        truncate(path, keep)
        with pytest.raises(CheckpointError):
            load_state(path)

    def test_keep_all_still_loads(self, tmp_path):
        path = str(tmp_path / "state.npz")
        save_state({"w": np.ones(16)}, path)
        truncate(path, 1.0)
        np.testing.assert_array_equal(load_state(path)["w"], np.ones(16))
