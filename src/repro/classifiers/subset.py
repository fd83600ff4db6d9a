"""Classifier adapter restricting the feature columns a model sees.

The paper's machine classifier is DeepMatcher, a deep matcher over raw text
embeddings: it learns a holistic notion of similarity but has no access to the
explicit *difference* knowledge (different publication year ⇒ different paper)
that LearnRisk's risk features encode.  Our substitute classifier works on the
engineered metric matrix, so exposing it to the difference metrics would give
it knowledge the original classifier does not have and erase the asymmetry the
paper studies.  :class:`ColumnSubsetClassifier` restores that asymmetry: it
wraps any classifier and silently restricts it to a chosen subset of columns
(the spec classifier ``"similarity_view"`` picks the similarity metrics),
while the risk features keep using the full metric space.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..serialization import state_field
from .base import BaseClassifier


class ColumnSubsetClassifier(BaseClassifier):
    """Wrap a classifier so it only ever sees the selected feature columns.

    Parameters
    ----------
    base:
        The wrapped classifier.
    column_indices:
        Indices of the columns (of the full metric matrix) the wrapped
        classifier is trained and evaluated on.
    """

    def __init__(self, base: BaseClassifier, column_indices: Sequence[int]) -> None:
        super().__init__()
        if len(column_indices) == 0:
            raise ConfigurationError("column_indices must not be empty")
        self.base = base
        self.column_indices = np.asarray(sorted(int(i) for i in column_indices), dtype=int)

    def _select(self, features: np.ndarray) -> np.ndarray:
        features = np.asarray(features, dtype=float)
        if features.shape[1] <= self.column_indices.max():
            raise ConfigurationError(
                f"feature matrix has {features.shape[1]} columns but the subset "
                f"references column {int(self.column_indices.max())}"
            )
        return features[:, self.column_indices]

    def fit(self, features: np.ndarray, labels: np.ndarray) -> "ColumnSubsetClassifier":
        self.base.fit(self._select(features), labels)
        self._fitted = True
        return self

    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        self._check_fitted()
        return self.base.predict_proba(self._select(features))

    # ------------------------------------------------------------ persistence
    state_kind = "column_subset"

    def to_state(self) -> dict:
        self._check_fitted()
        return self._state_envelope({
            "column_indices": [int(index) for index in self.column_indices],
            "base": self.base.to_state(),
        })

    @classmethod
    def from_state(cls, state: dict) -> "ColumnSubsetClassifier":
        from .base import classifier_from_state

        state = cls._validated_state(state)
        classifier = cls(
            base=classifier_from_state(state_field(state, "base", cls.state_kind)),
            column_indices=state_field(state, "column_indices", cls.state_kind),
        )
        classifier._fitted = bool(state.get("fitted", True))
        return classifier
