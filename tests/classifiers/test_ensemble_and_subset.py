"""Unit tests for the bootstrap ensemble and the column-subset adapter."""

from __future__ import annotations

import numpy as np
import pytest

from repro.classifiers.ensemble import BootstrapEnsemble
from repro.classifiers.logistic import LogisticRegressionClassifier
from repro.classifiers.subset import ColumnSubsetClassifier
from repro.exceptions import ConfigurationError, NotFittedError


class TestBootstrapEnsemble:
    def test_vote_fraction_has_limited_granularity(self, separable_data):
        features, labels = separable_data
        ensemble = BootstrapEnsemble(n_models=5, seed=0).fit(features, labels)
        votes = ensemble.vote_fraction(features)
        # With 5 members the vote fraction can only take 6 distinct values
        # (the paper notes the resulting "highly regular ROC curves").
        assert len(np.unique(votes)) <= 6
        assert np.all((votes >= 0.0) & (votes <= 1.0))

    def test_mean_probability_smooth(self, separable_data):
        features, labels = separable_data
        ensemble = BootstrapEnsemble(n_models=5, seed=0).fit(features, labels)
        probabilities = ensemble.predict_proba(features)
        assert len(np.unique(probabilities)) > 6

    def test_requires_two_models(self):
        with pytest.raises(ConfigurationError):
            BootstrapEnsemble(n_models=1)

    def test_unfitted_raises(self, separable_data):
        features, _ = separable_data
        with pytest.raises(NotFittedError):
            BootstrapEnsemble(n_models=3).vote_fraction(features)

    def test_custom_factory(self, separable_data):
        features, labels = separable_data
        ensemble = BootstrapEnsemble(
            model_factory=lambda index: LogisticRegressionClassifier(epochs=50, seed=index),
            n_models=3, seed=1,
        ).fit(features, labels)
        assert len(ensemble.models) == 3


class TestColumnSubsetClassifier:
    def test_only_selected_columns_used(self, separable_data):
        features, labels = separable_data
        # Make column 0 pure noise and verify the subset {0} cannot learn while {1..} can.
        rng = np.random.default_rng(0)
        noisy = features.copy()
        noisy[:, 0] = rng.random(len(noisy))
        informative = ColumnSubsetClassifier(
            LogisticRegressionClassifier(epochs=150, seed=0), column_indices=[1, 2, 3, 4]
        ).fit(noisy, labels)
        noise_only = ColumnSubsetClassifier(
            LogisticRegressionClassifier(epochs=150, seed=0), column_indices=[0]
        ).fit(noisy, labels)
        informative_accuracy = np.mean(informative.predict(noisy) == labels)
        noise_accuracy = np.mean(noise_only.predict(noisy) == labels)
        assert informative_accuracy > noise_accuracy

    def test_empty_selection_rejected(self):
        with pytest.raises(ConfigurationError):
            ColumnSubsetClassifier(LogisticRegressionClassifier(), column_indices=[])

    def test_out_of_range_column_rejected(self, separable_data):
        features, labels = separable_data
        adapter = ColumnSubsetClassifier(LogisticRegressionClassifier(epochs=20), column_indices=[99])
        with pytest.raises(ConfigurationError):
            adapter.fit(features, labels)
