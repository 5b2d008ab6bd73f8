"""Unit tests for the autograd Tensor: arithmetic, broadcasting, tape."""

import numpy as np
import pytest

from repro.nn import Tensor, concatenate, no_grad, stack

from .conftest import numeric_grad


class TestBasics:
    def test_construction_from_list(self):
        t = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert t.shape == (2, 2)
        assert t.dtype == np.float64

    def test_requires_grad_default_false(self):
        assert not Tensor([1.0]).requires_grad

    def test_item_on_scalar(self):
        assert Tensor(3.5).item() == pytest.approx(3.5)

    def test_item_shape_guard(self):
        with pytest.raises(ValueError):
            Tensor([1.0, 2.0]).backward()

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor([1.0], requires_grad=True))


class TestArithmeticGradients:
    def check(self, op, *shapes, positive=False):
        rng = np.random.default_rng(0)
        arrays = [rng.normal(size=s) + (2.0 if positive else 0.0)
                  for s in shapes]
        tensors = [Tensor(a.copy(), requires_grad=True) for a in arrays]
        out = op(*tensors)
        loss = (out * out).sum()
        loss.backward()
        for i, (arr, tensor) in enumerate(zip(arrays, tensors)):
            def scalar_fn(a, i=i):
                args = [Tensor(x) for x in arrays]
                args[i] = Tensor(a)
                o = op(*args)
                return float((o.data ** 2).sum())
            expected = numeric_grad(scalar_fn, arr.copy())
            np.testing.assert_allclose(tensor.grad, expected, rtol=1e-4,
                                       atol=1e-6)

    def test_add(self):
        self.check(lambda a, b: a + b, (3, 4), (3, 4))

    def test_add_broadcast(self):
        self.check(lambda a, b: a + b, (3, 4), (4,))

    def test_sub(self):
        self.check(lambda a, b: a - b, (2, 3), (2, 3))

    def test_mul(self):
        self.check(lambda a, b: a * b, (3, 2), (3, 2))

    def test_mul_broadcast_scalar_shape(self):
        self.check(lambda a, b: a * b, (4,), (1,))

    def test_div(self):
        self.check(lambda a, b: a / b, (3,), (3,), positive=True)

    def test_pow(self):
        self.check(lambda a: a ** 3, (4,))

    def test_neg(self):
        self.check(lambda a: -a, (5,))

    def test_matmul(self):
        self.check(lambda a, b: a @ b, (3, 4), (4, 2))

    def test_matmul_batched(self):
        self.check(lambda a, b: a @ b, (2, 3, 4), (2, 4, 5))

    def test_exp(self):
        self.check(lambda a: a.exp(), (3, 3))

    def test_log(self):
        self.check(lambda a: a.log(), (4,), positive=True)

    def test_sigmoid(self):
        self.check(lambda a: a.sigmoid(), (3,))

    def test_relu(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(10,))
        a[np.abs(a) < 0.1] = 0.5  # keep away from the kink
        t = Tensor(a, requires_grad=True)
        (t.relu() * t.relu()).sum().backward()
        expected = 2 * np.maximum(a, 0)
        np.testing.assert_allclose(t.grad, expected)

    def test_clamp(self):
        a = np.array([-2.0, -0.5, 0.5, 2.0])
        t = Tensor(a, requires_grad=True)
        t.clamp(-1.0, 1.0).sum().backward()
        np.testing.assert_allclose(t.grad, [0.0, 1.0, 1.0, 0.0])

    def test_abs(self):
        self.check(lambda a: a.abs(), (4,), positive=True)

    def test_rsub_and_rdiv(self):
        x = Tensor([2.0], requires_grad=True)
        y = 1.0 - x
        z = 1.0 / x
        assert y.data[0] == pytest.approx(-1.0)
        assert z.data[0] == pytest.approx(0.5)


class TestReductionGradients:
    def test_sum_all(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        t.sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 3)))

    def test_sum_axis(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        t.sum(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 3)))

    def test_sum_keepdims(self):
        t = Tensor(np.ones((2, 3)), requires_grad=True)
        t.sum(axis=0, keepdims=True).sum().backward()
        np.testing.assert_allclose(t.grad, np.ones((2, 3)))

    def test_mean(self):
        t = Tensor(np.ones((4,)), requires_grad=True)
        t.mean().backward()
        np.testing.assert_allclose(t.grad, np.full(4, 0.25))

    def test_mean_axis(self):
        t = Tensor(np.ones((2, 4)), requires_grad=True)
        t.mean(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, np.full((2, 4), 0.25))

    def test_max_gradient_routes_to_argmax(self):
        t = Tensor(np.array([[1.0, 5.0, 2.0]]), requires_grad=True)
        t.max(axis=1).sum().backward()
        np.testing.assert_allclose(t.grad, [[0.0, 1.0, 0.0]])

    def test_max_ties_split_gradient(self):
        t = Tensor(np.array([3.0, 3.0]), requires_grad=True)
        t.max().backward()
        np.testing.assert_allclose(t.grad, [0.5, 0.5])

    def test_var_matches_numpy(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=(5, 7))
        v = Tensor(a).var(axis=0)
        np.testing.assert_allclose(v.data, a.var(axis=0), rtol=1e-10)


class TestShapeOps:
    def test_reshape_roundtrip_gradient(self):
        t = Tensor(np.arange(6.0), requires_grad=True)
        (t.reshape(2, 3) * 2).sum().backward()
        np.testing.assert_allclose(t.grad, np.full(6, 2.0))

    def test_transpose_gradient(self):
        t = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
        scale = np.arange(6.0).reshape(3, 2)
        (t.transpose() * Tensor(scale)).sum().backward()
        np.testing.assert_allclose(t.grad, scale.T)

    def test_flatten_preserves_batch(self):
        t = Tensor(np.zeros((4, 2, 3, 3)))
        assert t.flatten().shape == (4, 18)

    def test_getitem_gradient_scatter(self):
        t = Tensor(np.arange(4.0), requires_grad=True)
        t[np.array([0, 0, 2])].sum().backward()
        np.testing.assert_allclose(t.grad, [2.0, 0.0, 1.0, 0.0])

    def test_stack_gradient(self):
        a = Tensor([1.0, 2.0], requires_grad=True)
        b = Tensor([3.0, 4.0], requires_grad=True)
        (stack([a, b]) * Tensor([[1.0, 2.0], [3.0, 4.0]])).sum().backward()
        np.testing.assert_allclose(a.grad, [1.0, 2.0])
        np.testing.assert_allclose(b.grad, [3.0, 4.0])

    def test_concatenate_gradient(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        b = Tensor(np.ones((3, 2)), requires_grad=True)
        concatenate([a, b], axis=0).sum().backward()
        np.testing.assert_allclose(a.grad, np.ones((2, 2)))
        np.testing.assert_allclose(b.grad, np.ones((3, 2)))


class TestTapeSemantics:
    def test_grad_accumulates_over_reuse(self):
        x = Tensor([3.0], requires_grad=True)
        y = x * x + x
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_diamond_graph(self):
        x = Tensor([2.0], requires_grad=True)
        a = x * 3
        b = x * 4
        (a + b).sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_no_grad_blocks_recording(self):
        x = Tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2
        assert not y.requires_grad

    def test_backward_twice_accumulates(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        (x * 2).sum().backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_zero_grad(self):
        x = Tensor([1.0], requires_grad=True)
        (x * 2).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_deep_chain_does_not_recurse(self):
        # The topological sort is iterative; a 5000-op chain must not
        # hit Python's recursion limit.
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(5000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_sign_ste_forward_bipolar(self):
        x = Tensor(np.array([-0.5, 0.0, 2.0]))
        np.testing.assert_allclose(x.sign_ste().data, [-1.0, 1.0, 1.0])

    def test_sign_ste_gradient_window(self):
        x = Tensor(np.array([-2.0, -0.5, 0.5, 2.0]), requires_grad=True)
        x.sign_ste().sum().backward()
        np.testing.assert_allclose(x.grad, [0.0, 1.0, 1.0, 0.0])

    def test_backward_shape_mismatch_raises(self):
        x = Tensor(np.ones((2, 2)), requires_grad=True)
        y = x * 2
        with pytest.raises(ValueError):
            y.backward(np.ones((3,)))
