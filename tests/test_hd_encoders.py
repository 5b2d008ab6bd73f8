"""Tests for feature encoders and the HD decode path."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hd import (IDLevelEncoder, LSHEncoder, NonlinearEncoder,
                      RandomProjectionEncoder, pack_signs)
from repro.hd.encoders import CERTIFIED_MAX_FEATURES, certified_signs
from repro.pipeline import EncodeStage


def rng(seed=0):
    return np.random.default_rng(seed)


class TestRandomProjection:
    def test_output_bipolar(self):
        enc = RandomProjectionEncoder(10, 64, rng())
        out = enc.encode(rng(1).normal(size=(5, 10)))
        assert out.shape == (5, 64)
        assert set(np.unique(out)) <= {-1.0, 1.0}

    def test_matches_paper_formula(self):
        """Encoding equals sign(Σ_f V_f ⊗ P_f)."""
        enc = RandomProjectionEncoder(4, 32, rng(2))
        v = rng(3).normal(size=4)
        manual = np.sign(sum(v[f] * enc.projection[f] for f in range(4)))
        manual[manual == 0] = 1.0
        np.testing.assert_allclose(enc.encode(v)[0], manual)

    def test_similar_inputs_similar_codes(self):
        enc = RandomProjectionEncoder(50, 4096, rng(4))
        base = rng(5).normal(size=50)
        near = base + rng(6).normal(scale=0.01, size=50)
        far = rng(7).normal(size=50)
        h_base, h_near, h_far = enc.encode(np.stack([base, near, far]))
        assert np.dot(h_base, h_near) > np.dot(h_base, h_far)

    def test_feature_count_validation(self):
        enc = RandomProjectionEncoder(10, 64)
        with pytest.raises(ValueError):
            enc.encode(np.zeros((2, 11)))

    def test_raw_encoding_no_sign(self):
        enc = RandomProjectionEncoder(5, 16, rng(8), quantize=False)
        v = rng(9).normal(size=(3, 5))
        np.testing.assert_allclose(enc.encode(v), v @ enc.projection)

    def test_encode_raw_equals_prequantize(self):
        enc = RandomProjectionEncoder(5, 16, rng(10))
        v = rng(11).normal(size=(2, 5))
        raw = enc.encode_raw(v)
        np.testing.assert_allclose(np.where(raw >= 0, 1.0, -1.0),
                                   enc.encode(v))

    def test_decode_recovers_features(self):
        """P Pᵀ ≈ D·I ⇒ decode(encode_raw(v)) ≈ v (paper Sec. V-C)."""
        enc = RandomProjectionEncoder(20, 20000, rng(12))
        v = rng(13).normal(size=(3, 20))
        recovered = enc.decode(enc.encode_raw(v))
        np.testing.assert_allclose(recovered, v, atol=0.2)

    def test_decode_shape_single(self):
        enc = RandomProjectionEncoder(6, 128, rng(14))
        assert enc.decode(np.ones(128)).shape == (1, 6)

    def test_macs_per_sample(self):
        enc = RandomProjectionEncoder(100, 3000)
        assert enc.macs_per_sample() == 300_000
        assert enc.parameter_count() == 300_000

    def test_deterministic_given_rng(self):
        a = RandomProjectionEncoder(8, 32, rng(42))
        b = RandomProjectionEncoder(8, 32, rng(42))
        np.testing.assert_allclose(a.projection, b.projection)

    @given(st.integers(min_value=1, max_value=16),
           st.integers(min_value=8, max_value=128),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_property_scale_invariance(self, features, dim, seed):
        """sign(cV @ P) == sign(V @ P) for c>0: encoding is scale-free."""
        g = np.random.default_rng(seed)
        enc = RandomProjectionEncoder(features, dim, g)
        v = g.normal(size=(2, features)) + 0.1
        np.testing.assert_allclose(enc.encode(v), enc.encode(3.7 * v))


def _sign_probe_rows(g, k, n, scale_exp):
    """``(n, K)`` rows mixing continuous values, dyadic integers (whose
    sums are exact, so ties are common), planted exact ties, zeros,
    ``-0.0``, NaN/±Inf entries and near-cancellations, all scaled by
    ``2**scale_exp``."""
    x = g.standard_normal((n, k))
    for r in range(n):
        kind = g.integers(7)
        if kind == 0:
            x[r] = g.integers(-4, 5, size=k)
        elif kind == 1 and k >= 2:
            # Equal features on two P rows, the rest zero: v is exactly
            # 0 wherever those rows have opposite signs.
            i, i2 = g.choice(k, size=2, replace=False)
            x[r] = 0.0
            x[r, [i, i2]] = g.standard_normal()
        elif kind == 2:
            x[r] = 0.0
        elif kind == 3:
            x[r, g.integers(k)] = -0.0
        elif kind == 4:
            x[r, g.integers(k)] = g.choice([np.nan, np.inf, -np.inf])
        elif k >= 2:
            # Near-cancellation: float32 rounds the 2**-30 gap away and
            # the 2**-40 rest can give v32 the wrong sign.
            i, i2 = g.choice(k, size=2, replace=False)
            x[r] *= 2.0 ** -40
            x[r, i] = 1.0 + g.standard_normal() * 2.0 ** -30
            x[r, i2] = 1.0
    return x * 2.0 ** scale_exp


class TestCertifiedSigns:
    """The packed encode's float32 GEMM returns the float64 signs."""

    @given(st.integers(min_value=1, max_value=24),
           st.integers(min_value=1, max_value=200),
           st.sampled_from([0, 1, 37]),
           st.sampled_from([0, 120, -120]),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_property_signs_equal_float64_signs(self, k, d, n, scale_exp,
                                                seed):
        g = np.random.default_rng(seed)
        encoder = RandomProjectionEncoder(k, d, g)
        fast = encoder.for_signs()
        assert fast._projection32 is not None
        x = _sign_probe_rows(g, k, n, scale_exp)
        want = encoder.encode_raw(x) >= 0
        np.testing.assert_array_equal(fast.signs(x), want)
        words = EncodeStage(encoder).packed()(x)
        np.testing.assert_array_equal(words, pack_signs(want))

    def test_clear_entries_skip_the_float64_gemm(self):
        """Entries outside the error bound are decided in float32: a
        float64 operand that disagrees is never read for them, while a
        planted exact tie sends the whole call to it."""
        g = np.random.default_rng(5)
        encoder = RandomProjectionEncoder(16, 100, g)
        p, p32 = encoder.projection, encoder.projection.astype(np.float32)
        x = g.standard_normal((8, 16))
        np.testing.assert_array_equal(certified_signs(x, -p, p32),
                                      x @ p >= 0)
        j = int(np.flatnonzero(p[0] != p[1])[0])
        x[3] = 0.0
        x[3, [0, 1]] = 0.5  # v[3, j] == 0 exactly
        np.testing.assert_array_equal(certified_signs(x, -p, p32),
                                      x @ -p >= 0)
        assert (x @ p)[3, j] == 0.0

    @pytest.mark.parametrize("scale", [0.0, 1e39, 1e-300, np.nan])
    def test_degenerate_rows(self, scale):
        g = np.random.default_rng(6)
        encoder = RandomProjectionEncoder(100, 300, g)
        x = g.standard_normal((4, 100))
        x[1] *= scale
        np.testing.assert_array_equal(encoder.for_signs().signs(x),
                                      encoder.encode_raw(x) >= 0)

    def test_for_signs_keeps_float64_where_the_bound_fails(self):
        encoder = RandomProjectionEncoder(8, 16, rng(7))
        encoder.projection = encoder.projection * 0.5
        assert encoder.for_signs() is encoder
        wide = RandomProjectionEncoder(CERTIFIED_MAX_FEATURES + 1, 8, rng(8))
        assert wide.for_signs() is wide
        assert wide._projection32 is None

    def test_from_arrays_refuses_non_bipolar(self):
        projection = np.ones((3, 8))
        projection[1, 2] = 0.5
        with pytest.raises(ValueError, match="bipolar"):
            RandomProjectionEncoder.from_arrays(projection)


class TestNonlinearEncoder:
    def test_output_range_soft(self):
        enc = NonlinearEncoder(10, 128, rng(15))
        out = enc.encode(rng(16).normal(size=(4, 10)))
        assert np.all(np.abs(out) <= 1.0)

    def test_quantized_output_bipolar(self):
        enc = NonlinearEncoder(10, 128, rng(17), quantize=True)
        out = enc.encode(rng(18).normal(size=(4, 10)))
        assert set(np.unique(out)) <= {-1.0, 1.0}

    def test_locality(self):
        enc = NonlinearEncoder(30, 4096, rng(19), bandwidth=0.5)
        base = rng(20).normal(size=30)
        near = base + 0.01 * rng(21).normal(size=30)
        far = base + 3.0 * rng(22).normal(size=30)
        h = enc.encode(np.stack([base, near, far]))
        assert np.dot(h[0], h[1]) > np.dot(h[0], h[2])

    def test_macs(self):
        assert NonlinearEncoder(10, 100).macs_per_sample() == 1000


class TestIDLevelEncoder:
    def test_quantization_bounds(self):
        enc = IDLevelEncoder(4, 64, levels=8, value_range=(0, 1), rng=rng(23))
        indices = enc.quantize_values(np.array([[-5.0, 0.0, 0.999, 5.0]]))
        np.testing.assert_array_equal(indices, [[0, 0, 7, 7]])

    def test_level_hvs_correlated_by_distance(self):
        enc = IDLevelEncoder(4, 4096, levels=16, rng=rng(24))
        lv = enc.level_memory
        near = np.dot(lv[0], lv[1])
        far = np.dot(lv[0], lv[15])
        assert near > far

    def test_encode_bipolar(self):
        enc = IDLevelEncoder(6, 128, levels=4, rng=rng(25))
        out = enc.encode(rng(26).uniform(size=(3, 6)))
        assert out.shape == (3, 128)
        assert set(np.unique(out)) <= {-1.0, 1.0}

    def test_levels_validation(self):
        with pytest.raises(ValueError):
            IDLevelEncoder(4, 64, levels=1)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            IDLevelEncoder(4, 64, value_range=(1.0, 0.0))


class TestLSHEncoder:
    def test_output_bipolar_and_shape(self):
        enc = LSHEncoder(100, 20, rng(27))
        out = enc.encode(rng(28).normal(size=(7, 100)))
        assert out.shape == (7, 20)
        assert set(np.unique(out)) <= {-1.0, 1.0}

    def test_preserves_angular_locality(self):
        enc = LSHEncoder(50, 2048, rng(29))
        base = rng(30).normal(size=50)
        near = base + 0.05 * rng(31).normal(size=50)
        far = rng(32).normal(size=50)
        h = enc.encode(np.stack([base, near, far]))
        assert np.dot(h[0], h[1]) > np.dot(h[0], h[2])

    def test_macs(self):
        assert LSHEncoder(50, 100).macs_per_sample() == 5000
