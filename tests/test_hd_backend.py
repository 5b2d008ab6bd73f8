"""Tests for the bit-packed binary backend."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hd import (dot_similarity, pack_bipolar, pack_signs, packed_dot,
                      popcount, random_bipolar, unpack_bipolar)


class TestPacking:
    def test_roundtrip_exact_word(self):
        hvs = random_bipolar(3, 128, np.random.default_rng(0))
        np.testing.assert_allclose(unpack_bipolar(pack_bipolar(hvs), 128), hvs)

    def test_roundtrip_partial_word(self):
        hvs = random_bipolar(2, 100, np.random.default_rng(1))
        np.testing.assert_allclose(unpack_bipolar(pack_bipolar(hvs), 100), hvs)

    def test_packed_width(self):
        hvs = random_bipolar(1, 65, np.random.default_rng(2))
        assert pack_bipolar(hvs).shape == (1, 2)

    def test_rejects_non_bipolar(self):
        with pytest.raises(ValueError):
            pack_bipolar(np.array([[0.5, 1.0]]))

    def test_footprint_is_one_bit_per_component(self):
        hvs = random_bipolar(4, 3000, np.random.default_rng(3))
        packed = pack_bipolar(hvs)
        assert packed.nbytes == 4 * 47 * 8  # ceil(3000/64)=47 words

    @given(st.integers(min_value=1, max_value=300),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_property_roundtrip(self, dim, seed):
        hvs = random_bipolar(2, dim, np.random.default_rng(seed))
        np.testing.assert_allclose(unpack_bipolar(pack_bipolar(hvs), dim), hvs)

    @staticmethod
    def _bit_padded_reference(hvs):
        """The bit-padding packer ``pack_bipolar`` used before it was
        built on ``pack_signs``."""
        bits = (hvs > 0).astype(np.uint8)
        pad = (-bits.shape[1]) % 64
        bits = np.concatenate(
            [bits, np.zeros((len(bits), pad), dtype=np.uint8)], axis=1)
        return np.packbits(bits, axis=1, bitorder="little").view(np.uint64)

    @given(st.sampled_from([1, 63, 64, 65, 127, 3000]),
           st.integers(min_value=0, max_value=5),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_property_matches_bit_padded_packer(self, dim, rows, seed):
        hvs = np.where(np.random.default_rng(seed).random((rows, dim))
                       < 0.5, -1.0, 1.0)
        packed = pack_bipolar(hvs)
        assert packed.dtype == np.uint64
        assert packed.shape == (rows, -(-dim // 64))
        np.testing.assert_array_equal(packed,
                                      self._bit_padded_reference(hvs))
        np.testing.assert_array_equal(pack_signs(hvs > 0), packed)
        np.testing.assert_array_equal(unpack_bipolar(packed, dim), hvs)


class TestPackedDot:
    def test_matches_dense_dot(self):
        g = np.random.default_rng(4)
        queries = random_bipolar(5, 200, g)
        classes = random_bipolar(3, 200, g)
        packed = packed_dot(pack_bipolar(queries), pack_bipolar(classes), 200)
        dense = dot_similarity(classes, queries)
        np.testing.assert_allclose(packed, dense)

    def test_identical_vectors_full_similarity(self):
        hv = random_bipolar(1, 77, np.random.default_rng(5))
        assert packed_dot(pack_bipolar(hv), pack_bipolar(hv), 77)[0, 0] == 77

    def test_opposite_vectors(self):
        hv = random_bipolar(1, 77, np.random.default_rng(6))
        assert packed_dot(pack_bipolar(hv), pack_bipolar(-hv), 77)[0, 0] == -77

    def test_word_mismatch_rejected(self):
        a = pack_bipolar(random_bipolar(1, 64, np.random.default_rng(7)))
        b = pack_bipolar(random_bipolar(1, 128, np.random.default_rng(8)))
        with pytest.raises(ValueError):
            packed_dot(a, b, 64)

    @given(st.integers(min_value=1, max_value=257),
           st.integers(min_value=0, max_value=2 ** 31 - 1))
    @settings(max_examples=30, deadline=None)
    def test_property_packed_equals_dense(self, dim, seed):
        g = np.random.default_rng(seed)
        a = random_bipolar(3, dim, g)
        b = random_bipolar(2, dim, g)
        np.testing.assert_allclose(
            packed_dot(pack_bipolar(a), pack_bipolar(b), dim),
            a @ b.T)


class TestPopcount:
    def test_known_values(self):
        np.testing.assert_array_equal(
            popcount(np.array([0, 1, 3, 255, 2 ** 64 - 1], dtype=np.uint64)),
            [0, 1, 2, 8, 64])

    def test_shape_preserved(self):
        words = np.arange(12, dtype=np.uint64).reshape(3, 4)
        assert popcount(words).shape == (3, 4)

