"""Unit tests for the reverse-mode autodiff engine, including numerical gradient checks."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff.tensor import Tensor, concatenate, parameter


def numerical_gradient(function, value: np.ndarray, epsilon: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar-valued function of an array."""
    gradient = np.zeros_like(value, dtype=float)
    flat = value.reshape(-1)
    flat_gradient = gradient.reshape(-1)
    for index in range(flat.size):
        original = flat[index]
        flat[index] = original + epsilon
        upper = function(value.copy())
        flat[index] = original - epsilon
        lower = function(value.copy())
        flat[index] = original
        flat_gradient[index] = (upper - lower) / (2.0 * epsilon)
    return gradient


class TestForward:
    def test_arithmetic(self):
        a = Tensor([1.0, 2.0, 3.0])
        b = Tensor([4.0, 5.0, 6.0])
        assert np.allclose(((a + b) * 2.0 - 1.0).numpy(), [9.0, 13.0, 17.0])
        assert np.allclose((a / b).numpy(), [0.25, 0.4, 0.5])
        assert np.allclose((-a).numpy(), [-1.0, -2.0, -3.0])
        assert np.allclose((a ** 2).numpy(), [1.0, 4.0, 9.0])

    def test_right_hand_operators(self):
        a = Tensor([1.0, 2.0])
        assert np.allclose((3.0 + a).numpy(), [4.0, 5.0])
        assert np.allclose((3.0 - a).numpy(), [2.0, 1.0])
        assert np.allclose((2.0 * a).numpy(), [2.0, 4.0])
        assert np.allclose((2.0 / a).numpy(), [2.0, 1.0])

    def test_elementwise_functions(self):
        x = Tensor([0.0, 1.0, -1.0])
        assert np.allclose(x.exp().numpy(), np.exp([0.0, 1.0, -1.0]))
        assert np.allclose(x.sigmoid().numpy(), 1 / (1 + np.exp([0.0, -1.0, 1.0])))
        assert np.allclose(x.tanh().numpy(), np.tanh([0.0, 1.0, -1.0]))
        assert np.allclose(x.relu().numpy(), [0.0, 1.0, 0.0])
        assert np.allclose(x.abs().numpy(), [0.0, 1.0, 1.0])

    def test_reductions_and_matmul(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert x.sum().item() == 10.0
        assert np.allclose(x.sum(axis=0).numpy(), [4.0, 6.0])
        assert x.mean().item() == 2.5
        w = Tensor([1.0, -1.0])
        assert np.allclose(x.matmul(w).numpy(), [-1.0, -1.0])

    def test_take_and_clip(self):
        x = Tensor([10.0, 20.0, 30.0])
        assert np.allclose(x.take([2, 0]).numpy(), [30.0, 10.0])
        assert np.allclose(x.clip(15.0, 25.0).numpy(), [15.0, 20.0, 25.0])

    def test_item_requires_scalar(self):
        assert Tensor(3.5).item() == 3.5


class TestBackward:
    def test_simple_chain(self):
        x = parameter([2.0, 3.0])
        loss = ((x * x) + x).sum()
        loss.backward()
        assert np.allclose(x.grad, [5.0, 7.0])

    def test_gradient_accumulates_on_reuse(self):
        x = parameter([1.0])
        loss = (x * 2.0 + x * 3.0).sum()
        loss.backward()
        assert np.allclose(x.grad, [5.0])

    def test_zero_grad(self):
        x = parameter([1.0])
        (x * 2.0).sum().backward()
        x.zero_grad()
        assert x.grad is None

    def test_detach_cuts_graph(self):
        x = parameter([2.0])
        y = x.detach() * 3.0
        y.sum().backward()
        assert x.grad is None

    def test_broadcast_gradients(self):
        x = parameter(np.ones((3, 2)))
        bias = parameter(np.zeros(2))
        loss = (x + bias).sum()
        loss.backward()
        assert np.allclose(bias.grad, [3.0, 3.0])
        assert np.allclose(x.grad, np.ones((3, 2)))

    @pytest.mark.parametrize("operation", [
        lambda t: (t.exp()).sum(),
        lambda t: (t.sigmoid()).sum(),
        lambda t: (t.tanh()).sum(),
        lambda t: (t.softplus()).sum(),
        lambda t: ((t * t) / (t + 3.0)).sum(),
        lambda t: ((t + 2.0).log()).sum(),
        lambda t: ((t + 2.0).sqrt()).sum(),
        lambda t: (t ** 3).sum(),
        lambda t: t.take([1, 1, 0]).sum(),
    ])
    def test_gradcheck_elementwise(self, operation):
        value = np.array([0.3, -0.4, 0.9])
        x = parameter(value.copy())
        loss = operation(x)
        loss.backward()
        expected = numerical_gradient(lambda v: operation(Tensor(v)).item(), value.copy())
        assert np.allclose(x.grad, expected, atol=1e-4)

    def test_gradcheck_matmul(self):
        matrix_value = np.array([[0.1, 0.5], [-0.3, 0.8], [0.2, -0.6]])
        weight_value = np.array([0.4, -0.7])
        matrix = parameter(matrix_value.copy())
        weight = parameter(weight_value.copy())
        loss = (matrix.matmul(weight).sigmoid()).sum()
        loss.backward()
        expected_weight = numerical_gradient(
            lambda v: (Tensor(matrix_value).matmul(Tensor(v)).sigmoid()).sum().item(),
            weight_value.copy(),
        )
        expected_matrix = numerical_gradient(
            lambda v: (Tensor(v).matmul(Tensor(weight_value)).sigmoid()).sum().item(),
            matrix_value.copy(),
        )
        assert np.allclose(weight.grad, expected_weight, atol=1e-4)
        assert np.allclose(matrix.grad, expected_matrix, atol=1e-4)

    def test_gradcheck_composite_risk_like_expression(self):
        """A miniature of the risk-model forward pass: weighted mean + std + sigmoid ranking."""
        weight_value = np.array([0.5, 1.5, 0.8])
        membership = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
        means = np.array([0.1, 0.9, 0.5])

        def forward(raw):
            weights = (raw if isinstance(raw, Tensor) else Tensor(raw)).softplus()
            total = Tensor(membership).matmul(weights)
            mean = Tensor(membership).matmul(weights * Tensor(means)) / total
            variance = Tensor(membership).matmul(weights * weights) / (total * total)
            gamma = mean + (variance + 1e-9).sqrt() * 1.28
            return (gamma.take([0]) - gamma.take([1])).sigmoid().log().sum()

        x = parameter(weight_value.copy())
        loss = forward(x)
        loss.backward()
        expected = numerical_gradient(lambda v: forward(v).item(), weight_value.copy())
        assert np.allclose(x.grad, expected, atol=1e-4)


class TestHelpers:
    def test_concatenate_preserves_gradients(self):
        a = parameter([1.0, 2.0])
        b = parameter([3.0])
        loss = (concatenate([a, b]) * Tensor([1.0, 2.0, 3.0])).sum()
        loss.backward()
        assert np.allclose(a.grad, [1.0, 2.0])
        assert np.allclose(b.grad, [3.0])

    def test_reshape_gradient(self):
        x = parameter(np.arange(6.0))
        loss = x.reshape(2, 3).sum(axis=0).sum()
        loss.backward()
        assert np.allclose(x.grad, np.ones(6))
