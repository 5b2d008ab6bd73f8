"""Tests for int8 deployment quantization."""

import numpy as np
import pytest

from repro.data import make_dataset, normalize_images
from repro.hardware import QuantizedNSHD, quantize_symmetric
from repro.learn import NSHD
from repro.models import create_model, train_cnn


class TestQuantizeSymmetric:
    def test_roundtrip_error_bounded(self):
        rng = np.random.default_rng(0)
        values = rng.normal(size=(40, 40))
        quantized = quantize_symmetric(values)
        error = np.abs(quantized.dequantize() - values).max()
        assert error <= quantized.scale / 2 + 1e-12

    def test_int8_payload(self):
        quantized = quantize_symmetric(np.linspace(-1, 1, 100))
        assert quantized.q.dtype == np.int8
        assert quantized.nbytes == 100

    def test_peak_value_maps_to_qmax(self):
        quantized = quantize_symmetric(np.array([-2.0, 1.0]))
        assert quantized.q.min() == -127

    def test_zero_tensor_safe(self):
        quantized = quantize_symmetric(np.zeros(5))
        np.testing.assert_array_equal(quantized.dequantize(), np.zeros(5))

    def test_bits_validation(self):
        with pytest.raises(ValueError):
            quantize_symmetric(np.ones(3), bits=1)

    def test_sixteen_bit_payload(self):
        quantized = quantize_symmetric(np.linspace(-1, 1, 10), bits=16)
        assert quantized.q.dtype == np.int16


class TestQuantizedNSHD:
    @pytest.fixture(scope="class")
    def trained(self):
        x_tr, y_tr, x_te, y_te = make_dataset(num_classes=4, num_train=120,
                                              num_test=60, seed=13)
        x_tr, mean, std = normalize_images(x_tr)
        x_te, _, _ = normalize_images(x_te, mean, std)
        model = create_model("vgg16", num_classes=4, width_mult=0.125,
                             seed=4)
        train_cnn(model, x_tr, y_tr, epochs=3, batch_size=32, lr=2e-3,
                  seed=4, augment=False)
        nshd = NSHD(model, layer_index=21, dim=600, reduced_features=16,
                    seed=0)
        nshd.fit(x_tr, y_tr, epochs=6)
        return nshd, x_te, y_te

    def test_quantization_minor_accuracy_impact(self, trained):
        """The paper's Sec. VI-B claim: Vitis-AI-style quantization has
        very minor impact on prediction quality."""
        nshd, x_te, y_te = trained
        float_acc = nshd.accuracy(x_te, y_te)
        q = QuantizedNSHD(nshd, bits=8)
        raw = nshd.extractor.extract(x_te)
        int8_acc = q.accuracy_features(raw, y_te)
        assert abs(float_acc - int8_acc) <= 0.05

    def test_predictions_mostly_agree(self, trained):
        nshd, x_te, y_te = trained
        q = QuantizedNSHD(nshd, bits=8)
        raw = nshd.extractor.extract(x_te)
        agreement = (q.predict_features(raw) ==
                     nshd.predict_features(raw)).mean()
        # At this tiny scale (D=600, 4 classes) similarity margins are
        # narrow, so int8 rounding flips some argmaxes; large-scale
        # agreement is bounded by the accuracy-impact test above.
        assert agreement > 0.75

    def test_quantized_model_smaller(self, trained):
        nshd, _, _ = trained
        q = QuantizedNSHD(nshd, bits=8)
        float_bytes = (nshd.trainer.class_matrix.size +
                       nshd.manifold.fc.weight.size) * 4
        assert q.model_bytes() < float_bytes

    def test_predict_from_images(self, trained):
        nshd, x_te, _ = trained
        q = QuantizedNSHD(nshd)
        preds = q.predict(x_te[:10])
        assert preds.shape == (10,)

