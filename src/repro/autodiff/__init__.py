"""Reverse-mode automatic differentiation over numpy (TensorFlow substitute)."""

from .optim import SGD, Adam, Optimizer
from .tensor import Tensor, concatenate, parameter

__all__ = [
    "Adam",
    "Optimizer",
    "SGD",
    "Tensor",
    "concatenate",
    "parameter",
]
