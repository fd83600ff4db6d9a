"""Gradient-descent optimizers for :class:`~repro.autodiff.tensor.Tensor` parameters.

The paper tunes the risk model with plain gradient descent (learning rate
0.001, Eq. 16–17) plus L1/L2 regularisation; this module provides that
optimizer (:class:`SGD`) and :class:`Adam`, which the reproduction uses by
default because it converges in far fewer epochs on the same loss while
remaining a faithful "gradient descent on the ranking loss" procedure.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from ..exceptions import ConfigurationError
from .tensor import Tensor


class Optimizer:
    """Base class holding the parameter list and the ``zero_grad`` helper."""

    def __init__(self, parameters: Iterable[Tensor]) -> None:
        self.parameters: list[Tensor] = [p for p in parameters if p.requires_grad]
        if not self.parameters:
            raise ConfigurationError("optimizer received no trainable parameters")

    def zero_grad(self) -> None:
        """Reset the gradients of every managed parameter."""
        for parameter in self.parameters:
            parameter.zero_grad()

    def step(self) -> None:  # pragma: no cover - interface
        """Apply one update using the currently accumulated gradients."""
        raise NotImplementedError


class SGD(Optimizer):
    """Vanilla stochastic gradient descent with optional momentum.

    Parameters
    ----------
    parameters:
        Trainable tensors.
    learning_rate:
        Step size (the paper uses 0.001).
    momentum:
        Classical momentum coefficient; 0 reproduces plain gradient descent.
    """

    def __init__(self, parameters: Iterable[Tensor], learning_rate: float = 0.001,
                 momentum: float = 0.0) -> None:
        super().__init__(parameters)
        if learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if not 0.0 <= momentum < 1.0:
            raise ConfigurationError("momentum must be in [0, 1)")
        self.learning_rate = learning_rate
        self.momentum = momentum
        self._velocity = [np.zeros_like(parameter.data) for parameter in self.parameters]

    def step(self) -> None:
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            if self.momentum > 0.0:
                self._velocity[index] = (
                    self.momentum * self._velocity[index] - self.learning_rate * parameter.grad
                )
                parameter.data = parameter.data + self._velocity[index]
            else:
                parameter.data = parameter.data - self.learning_rate * parameter.grad


class Adam(Optimizer):
    """Adam optimizer (Kingma & Ba, 2015)."""

    def __init__(self, parameters: Iterable[Tensor], learning_rate: float = 0.01,
                 beta1: float = 0.9, beta2: float = 0.999, epsilon: float = 1e-8) -> None:
        super().__init__(parameters)
        if learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._step_count = 0
        self._first_moment = [np.zeros_like(parameter.data) for parameter in self.parameters]
        self._second_moment = [np.zeros_like(parameter.data) for parameter in self.parameters]

    def step(self) -> None:
        self._step_count += 1
        for index, parameter in enumerate(self.parameters):
            if parameter.grad is None:
                continue
            gradient = parameter.grad
            self._first_moment[index] = (
                self.beta1 * self._first_moment[index] + (1.0 - self.beta1) * gradient
            )
            self._second_moment[index] = (
                self.beta2 * self._second_moment[index] + (1.0 - self.beta2) * gradient * gradient
            )
            corrected_first = self._first_moment[index] / (1.0 - self.beta1 ** self._step_count)
            corrected_second = self._second_moment[index] / (1.0 - self.beta2 ** self._step_count)
            parameter.data = parameter.data - self.learning_rate * corrected_first / (
                np.sqrt(corrected_second) + self.epsilon
            )
