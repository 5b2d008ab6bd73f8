"""Unit + property tests for hypervector algebra and similarity metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import hd
from repro.nn import Tensor


def rng(seed=0):
    return np.random.default_rng(seed)


class TestCreation:
    def test_bipolar_values(self):
        hvs = hd.random_bipolar(10, 256, rng())
        assert hvs.shape == (10, 256)
        assert set(np.unique(hvs)) <= {-1.0, 1.0}

    def test_bipolar_balance(self):
        hvs = hd.random_bipolar(1, 100_000, rng())
        assert abs(hvs.mean()) < 0.02

    def test_invalid_sizes_rejected(self):
        with pytest.raises(ValueError):
            hd.random_bipolar(0, 10)
        with pytest.raises(ValueError):
            hd.random_gaussian(10, 0)

    def test_quasi_orthogonality_statistics(self):
        """Random HV pairs overlap in D/2 bits with std sqrt(D/4) (Sec. II)."""
        dim = 4096
        hvs = hd.random_bipolar(200, dim, rng(1))
        a, b = hvs[:100], hvs[100:]
        overlaps = ((a * b) > 0).sum(axis=1)
        assert abs(overlaps.mean() - dim / 2) < 5 * hd.expected_overlap_std(dim)
        observed_std = overlaps.std()
        assert 0.6 * hd.expected_overlap_std(dim) < observed_std < \
            1.5 * hd.expected_overlap_std(dim)

    def test_is_bipolar(self):
        assert hd.is_bipolar(np.array([1.0, -1.0, 1.0]))
        assert not hd.is_bipolar(np.array([1.0, 0.5]))


class TestAlgebra:
    def test_bind_self_inverse(self):
        a = hd.random_bipolar(1, 128, rng(2))[0]
        b = hd.random_bipolar(1, 128, rng(3))[0]
        np.testing.assert_allclose(hd.bind(hd.bind(a, b), b), a)

    def test_bind_orthogonal_to_inputs(self):
        dim = 8192
        a = hd.random_bipolar(1, dim, rng(4))[0]
        b = hd.random_bipolar(1, dim, rng(5))[0]
        bound = hd.bind(a, b)
        assert abs(np.dot(bound, a)) < 4 * np.sqrt(dim)
        assert abs(np.dot(bound, b)) < 4 * np.sqrt(dim)

    def test_bundle_similar_to_inputs(self):
        dim = 8192
        hvs = hd.random_bipolar(5, dim, rng(6))
        composite = hd.bundle(hvs)
        for hv in hvs:
            assert np.dot(composite, hv) > dim / 2  # far above noise floor

    def test_bundle_varargs(self):
        a = np.ones(4)
        b = -np.ones(4)
        np.testing.assert_allclose(hd.bundle(a, b), np.zeros(4))

    def test_bundle_requires_input(self):
        with pytest.raises(ValueError):
            hd.bundle()

    def test_hard_quantize(self):
        np.testing.assert_allclose(hd.hard_quantize(np.array([-0.2, 0.0, 3.0])),
                                   [-1.0, 1.0, 1.0])

    @pytest.mark.parametrize("dtype, width", [(np.float64, 64),
                                              (np.float32, 32)])
    @given(data=st.data())
    @settings(max_examples=50, deadline=None)
    def test_property_quantizers_match_where(self, dtype, width, data):
        """The serving quantizer and the manifold's ``sign_ste`` forward
        are both ``np.where(x >= 0, 1.0, -1.0)``, bit for bit."""
        values = data.draw(st.lists(st.floats(width=width), max_size=48))
        x = np.array([0.0, -0.0, np.nan, np.inf, -np.inf] + values,
                     dtype=dtype)
        x = x[data.draw(st.permutations(range(len(x))))]
        want = np.where(x >= 0, 1.0, -1.0)
        for got in (hd.hard_quantize(x), Tensor(x).sign_ste().data):
            assert got.dtype == want.dtype and got.shape == want.shape
            np.testing.assert_array_equal(got.view(np.uint64),
                                          want.view(np.uint64))

    @given(st.integers(min_value=2, max_value=64),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_property_bind_commutative(self, dim, seed):
        g = np.random.default_rng(seed)
        a = hd.random_bipolar(1, dim, g)[0]
        b = hd.random_bipolar(1, dim, g)[0]
        np.testing.assert_allclose(hd.bind(a, b), hd.bind(b, a))

    @given(st.integers(min_value=2, max_value=64),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_property_bind_distributes_over_bundle(self, dim, seed):
        g = np.random.default_rng(seed)
        a, b, c = hd.random_bipolar(3, dim, g)
        left = hd.bind(a, hd.bundle(b, c))
        right = hd.bundle(hd.bind(a, b), hd.bind(a, c))
        np.testing.assert_allclose(left, right)


class TestSimilarity:
    def test_dot_single_query(self):
        m = np.array([[1.0, 1.0], [1.0, -1.0]])
        q = np.array([1.0, 1.0])
        np.testing.assert_allclose(hd.dot_similarity(m, q), [2.0, 0.0])

    def test_dot_batch(self):
        m = np.eye(3)
        q = np.array([[1.0, 0, 0], [0, 2.0, 0]])
        sims = hd.dot_similarity(m, q)
        assert sims.shape == (2, 3)
        np.testing.assert_allclose(sims[0], [1.0, 0, 0])

    def test_cosine_bounds(self):
        m = hd.random_bipolar(4, 512, rng(9))
        q = hd.random_bipolar(6, 512, rng(10))
        sims = hd.cosine_similarity(m, q)
        assert np.all(sims <= 1.0 + 1e-12) and np.all(sims >= -1.0 - 1e-12)

    def test_cosine_self_similarity(self):
        a = hd.random_bipolar(3, 128, rng(11))
        sims = hd.cosine_similarity(a, a)
        np.testing.assert_allclose(np.diag(sims), np.ones(3))

    def test_cosine_zero_vector_safe(self):
        m = np.zeros((2, 8))
        q = np.ones((1, 8))
        sims = hd.cosine_similarity(m, q)
        assert np.all(np.isfinite(sims))

    def test_classify_picks_most_similar(self):
        classes = hd.random_bipolar(5, 2048, rng(14))
        noisy = classes.copy()
        flip = rng(15).choice(2048, size=200, replace=False)
        noisy[:, flip] *= -1
        preds = hd.classify(classes, noisy)
        np.testing.assert_array_equal(preds, np.arange(5))

    @given(st.integers(min_value=2, max_value=10),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_property_classify_consistent_across_metrics_for_bipolar(
            self, k, seed):
        """For same-norm bipolar vectors, dot and cosine rank identically."""
        g = np.random.default_rng(seed)
        classes = hd.random_bipolar(k, 256, g)
        queries = hd.random_bipolar(5, 256, g)
        np.testing.assert_array_equal(
            hd.classify(classes, queries),
            hd.cosine_similarity(classes, queries).argmax(axis=-1))
