"""A small reverse-mode automatic differentiation engine over numpy arrays.

The paper trains its risk model with TensorFlow; TensorFlow is not available in
this environment, so this module provides the minimal substrate the library
needs: a :class:`Tensor` wrapping a numpy array, a dynamic computation graph
recorded as tensors are combined, and :meth:`Tensor.backward` performing
reverse-mode accumulation of gradients.

Supported operations cover everything the risk model's loss (pairwise
cross-entropy over VaR scores, Eq. 13–15) and the MLP classifier require:
elementwise arithmetic with broadcasting, ``exp`` / ``log`` / ``sqrt`` /
``tanh`` / ``sigmoid`` / ``relu`` / ``softplus``, powers, matrix
multiplication, reductions (``sum`` / ``mean``), and clipping.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

ArrayLike = "np.ndarray | float | int | Sequence[float] | Tensor"

_EPSILON = 1e-12


def _unbroadcast(gradient: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``gradient`` down to ``shape``, undoing numpy broadcasting."""
    if gradient.shape == shape:
        return gradient
    # Sum over leading dimensions added by broadcasting.
    while gradient.ndim > len(shape):
        gradient = gradient.sum(axis=0)
    # Sum over dimensions that were 1 in the original shape.
    for axis, size in enumerate(shape):
        if size == 1 and gradient.shape[axis] != 1:
            gradient = gradient.sum(axis=axis, keepdims=True)
    return gradient.reshape(shape)


class Tensor:
    """A node in the autodiff graph.

    Parameters
    ----------
    data:
        The numpy array (or scalar) held by the tensor.
    requires_grad:
        Whether gradients should be accumulated into :attr:`grad` on backward.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn")

    def __init__(self, data, requires_grad: bool = False,
                 parents: tuple["Tensor", ...] = (),
                 backward_fn: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None) -> None:
        self.data = np.asarray(data, dtype=float)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents = parents
        self._backward_fn = backward_fn

    # ------------------------------------------------------------------ utils
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def item(self) -> float:
        """Return the value of a scalar tensor as a Python float."""
        return float(self.data)

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (not a copy)."""
        return self.data

    def detach(self) -> "Tensor":
        """Return a new tensor sharing the data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    # --------------------------------------------------------------- coercion
    @staticmethod
    def as_tensor(value) -> "Tensor":
        """Coerce ``value`` to a :class:`Tensor` (constants get no gradient)."""
        if isinstance(value, Tensor):
            return value
        return Tensor(value, requires_grad=False)

    # --------------------------------------------------------------- backward
    def backward(self, gradient: np.ndarray | None = None) -> None:
        """Run reverse-mode accumulation starting from this tensor.

        ``gradient`` defaults to ones (appropriate for a scalar loss).
        """
        if gradient is None:
            gradient = np.ones_like(self.data)
        gradient = np.asarray(gradient, dtype=float)

        ordering: list[Tensor] = []
        visited: set[int] = set()

        def visit(node: "Tensor") -> None:
            if id(node) in visited:
                return
            visited.add(id(node))
            for parent in node._parents:
                visit(parent)
            ordering.append(node)

        visit(self)

        gradients: dict[int, np.ndarray] = {id(self): gradient}
        for node in reversed(ordering):
            node_gradient = gradients.get(id(node))
            if node_gradient is None:
                continue
            if node.requires_grad:
                if node.grad is None:
                    node.grad = np.zeros_like(node.data)
                node.grad = node.grad + node_gradient
            if node._backward_fn is None:
                continue
            parent_gradients = node._backward_fn(node_gradient)
            for parent, parent_gradient in zip(node._parents, parent_gradients):
                if parent_gradient is None:
                    continue
                accumulated = gradients.get(id(parent))
                if accumulated is None:
                    gradients[id(parent)] = parent_gradient
                else:
                    gradients[id(parent)] = accumulated + parent_gradient

    # ------------------------------------------------------------- arithmetic
    def _binary(self, other, forward, backward) -> "Tensor":
        other = Tensor.as_tensor(other)
        data = forward(self.data, other.data)

        def backward_fn(gradient: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            grad_left, grad_right = backward(gradient, self.data, other.data, data)
            return (
                _unbroadcast(grad_left, self.data.shape) if grad_left is not None else None,
                _unbroadcast(grad_right, other.data.shape) if grad_right is not None else None,
            )

        return Tensor(data, parents=(self, other), backward_fn=backward_fn)

    def __add__(self, other) -> "Tensor":
        return self._binary(other, lambda a, b: a + b,
                            lambda g, a, b, out: (g, g))

    def __radd__(self, other) -> "Tensor":
        return self.__add__(other)

    def __sub__(self, other) -> "Tensor":
        return self._binary(other, lambda a, b: a - b,
                            lambda g, a, b, out: (g, -g))

    def __rsub__(self, other) -> "Tensor":
        return Tensor.as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        return self._binary(other, lambda a, b: a * b,
                            lambda g, a, b, out: (g * b, g * a))

    def __rmul__(self, other) -> "Tensor":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Tensor":
        return self._binary(other, lambda a, b: a / b,
                            lambda g, a, b, out: (g / b, -g * a / (b * b)))

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor.as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        return self.__mul__(-1.0)

    def __pow__(self, exponent: float) -> "Tensor":
        exponent = float(exponent)
        data = np.power(self.data, exponent)

        def backward_fn(gradient: np.ndarray) -> tuple[np.ndarray]:
            return (gradient * exponent * np.power(self.data, exponent - 1.0),)

        return Tensor(data, parents=(self,), backward_fn=backward_fn)

    # ------------------------------------------------------------ elementwise
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward_fn(gradient: np.ndarray) -> tuple[np.ndarray]:
            return (gradient * data,)

        return Tensor(data, parents=(self,), backward_fn=backward_fn)

    def log(self) -> "Tensor":
        data = np.log(np.maximum(self.data, _EPSILON))

        def backward_fn(gradient: np.ndarray) -> tuple[np.ndarray]:
            return (gradient / np.maximum(self.data, _EPSILON),)

        return Tensor(data, parents=(self,), backward_fn=backward_fn)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(np.maximum(self.data, 0.0))

        def backward_fn(gradient: np.ndarray) -> tuple[np.ndarray]:
            return (gradient * 0.5 / np.maximum(data, _EPSILON),)

        return Tensor(data, parents=(self,), backward_fn=backward_fn)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0)))

        def backward_fn(gradient: np.ndarray) -> tuple[np.ndarray]:
            return (gradient * data * (1.0 - data),)

        return Tensor(data, parents=(self,), backward_fn=backward_fn)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward_fn(gradient: np.ndarray) -> tuple[np.ndarray]:
            return (gradient * (1.0 - data * data),)

        return Tensor(data, parents=(self,), backward_fn=backward_fn)

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward_fn(gradient: np.ndarray) -> tuple[np.ndarray]:
            return (gradient * (self.data > 0.0),)

        return Tensor(data, parents=(self,), backward_fn=backward_fn)

    def softplus(self) -> "Tensor":
        """Numerically stable ``log(1 + exp(x))`` (used to keep parameters positive)."""
        data = np.logaddexp(0.0, self.data)

        def backward_fn(gradient: np.ndarray) -> tuple[np.ndarray]:
            return (gradient / (1.0 + np.exp(-np.clip(self.data, -60.0, 60.0))),)

        return Tensor(data, parents=(self,), backward_fn=backward_fn)

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward_fn(gradient: np.ndarray) -> tuple[np.ndarray]:
            return (gradient * np.sign(self.data),)

        return Tensor(data, parents=(self,), backward_fn=backward_fn)

    def clip(self, minimum: float, maximum: float) -> "Tensor":
        """Clip values to ``[minimum, maximum]``; gradient passes only inside the range."""
        data = np.clip(self.data, minimum, maximum)

        def backward_fn(gradient: np.ndarray) -> tuple[np.ndarray]:
            inside = (self.data >= minimum) & (self.data <= maximum)
            return (gradient * inside,)

        return Tensor(data, parents=(self,), backward_fn=backward_fn)

    # --------------------------------------------------------------- indexing
    def take(self, indices) -> "Tensor":
        """Gather elements along axis 0 (``data[indices]``), preserving gradients."""
        indices = np.asarray(indices, dtype=int)
        data = self.data[indices]

        def backward_fn(gradient: np.ndarray) -> tuple[np.ndarray]:
            accumulated = np.zeros_like(self.data)
            np.add.at(accumulated, indices, gradient)
            return (accumulated,)

        return Tensor(data, parents=(self,), backward_fn=backward_fn)

    # --------------------------------------------------------------- reshapes
    def reshape(self, *shape: int) -> "Tensor":
        data = self.data.reshape(*shape)
        original_shape = self.data.shape

        def backward_fn(gradient: np.ndarray) -> tuple[np.ndarray]:
            return (gradient.reshape(original_shape),)

        return Tensor(data, parents=(self,), backward_fn=backward_fn)

    # -------------------------------------------------------------- reductions
    def sum(self, axis: int | None = None) -> "Tensor":
        data = self.data.sum(axis=axis)

        def backward_fn(gradient: np.ndarray) -> tuple[np.ndarray]:
            if axis is None:
                return (np.ones_like(self.data) * gradient,)
            expanded = np.expand_dims(gradient, axis)
            return (np.broadcast_to(expanded, self.data.shape).copy(),)

        return Tensor(data, parents=(self,), backward_fn=backward_fn)

    def mean(self, axis: int | None = None) -> "Tensor":
        count = self.data.size if axis is None else self.data.shape[axis]
        return self.sum(axis=axis) * (1.0 / count)

    # ------------------------------------------------------------------ matmul
    def matmul(self, other: "Tensor") -> "Tensor":
        other = Tensor.as_tensor(other)
        data = self.data @ other.data

        def backward_fn(gradient: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            left_grad = gradient @ other.data.T if other.data.ndim == 2 else np.outer(gradient, other.data)
            right_grad = self.data.T @ gradient
            return (left_grad.reshape(self.data.shape), right_grad.reshape(other.data.shape))

        return Tensor(data, parents=(self, other), backward_fn=backward_fn)

    def __matmul__(self, other) -> "Tensor":
        return self.matmul(other)


def parameter(data, requires_grad: bool = True) -> Tensor:
    """Create a trainable tensor (convenience constructor)."""
    return Tensor(data, requires_grad=requires_grad)


def concatenate(tensors: Iterable[Tensor]) -> Tensor:
    """Concatenate 1-D tensors along axis 0, preserving gradients."""
    tensor_list = [Tensor.as_tensor(tensor) for tensor in tensors]
    data = np.concatenate([tensor.data.reshape(-1) for tensor in tensor_list])
    sizes = [tensor.data.size for tensor in tensor_list]

    def backward_fn(gradient: np.ndarray) -> tuple[np.ndarray, ...]:
        gradients = []
        offset = 0
        for tensor, size in zip(tensor_list, sizes):
            gradients.append(gradient[offset:offset + size].reshape(tensor.data.shape))
            offset += size
        return tuple(gradients)

    return Tensor(data, parents=tuple(tensor_list), backward_fn=backward_fn)
