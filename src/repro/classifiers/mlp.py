"""A multi-layer perceptron ER classifier (DeepMatcher substitute).

The paper uses DeepMatcher, a deep-learning matcher over word embeddings, as
its machine classifier.  Word embeddings and GPU training are out of scope for
this offline reproduction, so the classifier of record is an MLP over the
basic-metric feature vector, trained with mini-batch Adam on a weighted
cross-entropy loss through :mod:`repro.autodiff`.  What matters for risk
analysis is preserved: a trainable, reasonably strong but imperfect classifier
whose probability outputs are over-confident on hard pairs — exactly the
behaviour the risk model must see through.
"""

from __future__ import annotations

import numpy as np

from ..autodiff import Adam, Tensor, parameter
from ..exceptions import ConfigurationError
from ..numerics import batch_invariant_matmul
from ..serialization import as_float_array, state_field
from .base import BaseClassifier


class MLPClassifier(BaseClassifier):
    """A feed-forward network with ReLU hidden layers and a sigmoid output.

    Parameters
    ----------
    hidden_sizes:
        Sizes of the hidden layers.
    learning_rate:
        Adam step size.
    epochs:
        Number of passes over the training data.
    batch_size:
        Mini-batch size; ``None`` trains full-batch.
    l2:
        L2 regularisation strength on all weight matrices.
    balance_classes:
        Reweight samples to counteract ER class imbalance.
    seed:
        Seed for weight initialisation and batch shuffling.
    """

    def __init__(
        self,
        hidden_sizes: tuple[int, ...] = (32, 16),
        learning_rate: float = 0.01,
        epochs: int = 60,
        batch_size: int | None = 64,
        l2: float = 1e-5,
        balance_classes: bool = True,
        seed: int = 0,
    ) -> None:
        super().__init__()
        if not hidden_sizes:
            raise ConfigurationError("hidden_sizes must contain at least one layer")
        if epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        self.hidden_sizes = tuple(int(size) for size in hidden_sizes)
        self.learning_rate = learning_rate
        self.epochs = epochs
        self.batch_size = batch_size
        self.l2 = l2
        self.balance_classes = balance_classes
        self.seed = seed
        self._weights: list[Tensor] = []
        self._biases: list[Tensor] = []
        self._feature_mean: np.ndarray | None = None
        self._feature_scale: np.ndarray | None = None

    # ----------------------------------------------------------------- model
    def _initialise(self, n_features: int, rng: np.random.Generator) -> None:
        sizes = (n_features, *self.hidden_sizes, 1)
        self._weights = []
        self._biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self._weights.append(parameter(rng.uniform(-limit, limit, size=(fan_in, fan_out))))
            self._biases.append(parameter(np.zeros(fan_out)))

    def _forward(self, inputs: Tensor) -> Tensor:
        hidden = inputs
        last_index = len(self._weights) - 1
        for index, (weight, bias) in enumerate(zip(self._weights, self._biases)):
            hidden = hidden.matmul(weight) + bias
            if index < last_index:
                hidden = hidden.relu()
        return hidden.reshape(-1).sigmoid()

    # ------------------------------------------------------------------- fit
    def fit(self, features: np.ndarray, labels: np.ndarray) -> "MLPClassifier":
        features, labels = self._validate_training_data(features, labels)
        rng = np.random.default_rng(self.seed)
        self._feature_mean = features.mean(axis=0)
        self._feature_scale = np.maximum(features.std(axis=0), 1e-6)
        scaled = (features - self._feature_mean) / self._feature_scale

        self._initialise(features.shape[1], rng)
        optimizer = Adam(self._weights + self._biases, learning_rate=self.learning_rate)
        sample_weights = self._class_weights(labels, self.balance_classes)

        n_samples = len(scaled)
        batch_size = self.batch_size or n_samples
        for _ in range(self.epochs):
            order = rng.permutation(n_samples)
            for start in range(0, n_samples, batch_size):
                batch = order[start:start + batch_size]
                inputs = Tensor(scaled[batch])
                targets = Tensor(labels[batch].astype(float))
                weights = Tensor(sample_weights[batch])
                optimizer.zero_grad()
                probabilities = self._forward(inputs)
                loss_terms = (
                    targets * probabilities.clip(1e-7, 1.0).log()
                    + (1.0 - targets) * (1.0 - probabilities).clip(1e-7, 1.0).log()
                )
                loss = -(loss_terms * weights).mean()
                for weight in self._weights:
                    loss = loss + (weight * weight).sum() * self.l2
                loss.backward()
                optimizer.step()

        self._fitted = True
        return self

    # --------------------------------------------------------------- predict
    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        self._check_fitted()
        features = np.asarray(features, dtype=float)
        scaled = (features - self._feature_mean) / self._feature_scale
        # Inference mirrors _forward but with batch-invariant matmuls
        # (repro.numerics): scoring a chunk of pairs must be bit-identical to
        # scoring them inside a larger batch, which BLAS gemm does not
        # guarantee.  Training keeps Tensor.matmul (BLAS) for throughput.
        hidden = scaled
        last_index = len(self._weights) - 1
        for index, (weight, bias) in enumerate(zip(self._weights, self._biases)):
            hidden = batch_invariant_matmul(hidden, weight.data) + bias.data
            if index < last_index:
                hidden = np.maximum(hidden, 0.0)
        logits = hidden.reshape(-1)
        return 1.0 / (1.0 + np.exp(-np.clip(logits, -60.0, 60.0)))

    # ------------------------------------------------------------ persistence
    state_kind = "mlp"

    def to_state(self) -> dict:
        self._check_fitted()
        return self._state_envelope({
            "hidden_sizes": list(self.hidden_sizes),
            "learning_rate": self.learning_rate,
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "l2": self.l2,
            "balance_classes": self.balance_classes,
            "seed": self.seed,
            "weights": [weight.data for weight in self._weights],
            "biases": [bias.data for bias in self._biases],
            "feature_mean": self._feature_mean,
            "feature_scale": self._feature_scale,
        })

    @classmethod
    def from_state(cls, state: dict) -> "MLPClassifier":
        state = cls._validated_state(state)
        classifier = cls(
            hidden_sizes=tuple(int(size) for size in state.get("hidden_sizes", (32, 16))),
            learning_rate=float(state.get("learning_rate", 0.01)),
            epochs=int(state.get("epochs", 60)),
            batch_size=(
                None if state.get("batch_size") is None else int(state["batch_size"])
            ),
            l2=float(state.get("l2", 1e-4)),
            balance_classes=bool(state.get("balance_classes", True)),
            seed=int(state.get("seed", 0)),
        )
        classifier._weights = [
            parameter(as_float_array(weight, "weights", cls.state_kind))
            for weight in state_field(state, "weights", cls.state_kind)
        ]
        classifier._biases = [
            parameter(as_float_array(bias, "biases", cls.state_kind))
            for bias in state_field(state, "biases", cls.state_kind)
        ]
        classifier._feature_mean = as_float_array(
            state_field(state, "feature_mean", cls.state_kind), "feature_mean", cls.state_kind
        )
        classifier._feature_scale = as_float_array(
            state_field(state, "feature_scale", cls.state_kind), "feature_scale", cls.state_kind
        )
        classifier._fitted = bool(state.get("fitted", True))
        return classifier
