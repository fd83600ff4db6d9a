"""Unit tests for the SGD/Adam optimizers."""

from __future__ import annotations

import numpy as np
import pytest

from repro.autodiff.optim import SGD, Adam
from repro.autodiff.tensor import Tensor, parameter
from repro.exceptions import ConfigurationError


def quadratic_loss(x: Tensor, target: np.ndarray) -> Tensor:
    difference = x - Tensor(target)
    return (difference * difference).sum()


class TestSGD:
    def test_minimises_quadratic(self):
        target = np.array([3.0, -2.0])
        x = parameter([0.0, 0.0])
        optimizer = SGD([x], learning_rate=0.1)
        for _ in range(200):
            optimizer.zero_grad()
            loss = quadratic_loss(x, target)
            loss.backward()
            optimizer.step()
        assert np.allclose(x.data, target, atol=1e-3)

    def test_momentum_accelerates(self):
        target = np.array([5.0])
        plain = parameter([0.0])
        momentum = parameter([0.0])
        sgd_plain = SGD([plain], learning_rate=0.01)
        sgd_momentum = SGD([momentum], learning_rate=0.01, momentum=0.9)
        for _ in range(50):
            for optimizer, tensor in ((sgd_plain, plain), (sgd_momentum, momentum)):
                optimizer.zero_grad()
                quadratic_loss(tensor, target).backward()
                optimizer.step()
        assert abs(momentum.data[0] - 5.0) < abs(plain.data[0] - 5.0)

    def test_requires_trainable_parameters(self):
        with pytest.raises(ConfigurationError):
            SGD([Tensor([1.0], requires_grad=False)])

    def test_invalid_hyperparameters(self):
        x = parameter([1.0])
        with pytest.raises(ConfigurationError):
            SGD([x], learning_rate=0.0)
        with pytest.raises(ConfigurationError):
            SGD([x], momentum=1.5)

    def test_step_skips_parameters_without_gradients(self):
        x = parameter([1.0])
        optimizer = SGD([x], learning_rate=0.1)
        optimizer.step()
        assert np.allclose(x.data, [1.0])


class TestAdam:
    def test_minimises_quadratic_faster_than_sgd(self):
        target = np.array([2.0, -1.0, 0.5])
        adam_x = parameter(np.zeros(3))
        sgd_x = parameter(np.zeros(3))
        adam = Adam([adam_x], learning_rate=0.1)
        sgd = SGD([sgd_x], learning_rate=0.001)
        for _ in range(100):
            for optimizer, tensor in ((adam, adam_x), (sgd, sgd_x)):
                optimizer.zero_grad()
                quadratic_loss(tensor, target).backward()
                optimizer.step()
        adam_error = np.abs(adam_x.data - target).sum()
        sgd_error = np.abs(sgd_x.data - target).sum()
        assert adam_error < sgd_error

    def test_invalid_learning_rate(self):
        with pytest.raises(ConfigurationError):
            Adam([parameter([1.0])], learning_rate=-1.0)
