"""Integration-level tests for risk-feature generation and the LearnRisk model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.records import MATCH
from repro.evaluation.roc import auroc_score
from repro.exceptions import ConfigurationError
from repro.risk.feature_generation import RiskFeatureGenerator
from repro.risk.model import LearnRiskModel
from repro.risk.training import TrainingConfig


class TestRiskFeatureGeneration:
    def test_generates_rules_with_expectations(self, prepared_ds):
        features = prepared_ds.risk_features
        assert len(features.rules) > 5
        for rule in features.rules:
            assert 0.0 <= rule.expectation <= 1.0
            assert rule.support >= 1
            assert rule.describe()

    def test_rules_are_discriminating_on_training_data(self, prepared_ds):
        """A rule's training-data expectation must agree with its implied label."""
        for rule in prepared_ds.risk_features.rules:
            if rule.label == MATCH:
                assert rule.expectation > 0.5
            else:
                assert rule.expectation < 0.5

    def test_rule_matrix_binary_and_matching_coverage(self, prepared_ds):
        matrix = prepared_ds.risk_features.membership(prepared_ds.test.features)
        assert matrix.shape == (len(prepared_ds.test.workload), len(prepared_ds.risk_features.rules))
        assert set(np.unique(matrix)) <= {0.0, 1.0}

    def test_high_coverage(self, prepared_ds):
        """The paper requires high-coverage risk features."""
        coverage = prepared_ds.risk_features.coverage_fraction(prepared_ds.test.features)
        assert coverage > 0.8

    def test_statistics_and_descriptions(self, prepared_ds):
        features = prepared_ds.risk_features
        assert features.statistics["n_rules"] == len(features.rules)
        assert features.generation_seconds > 0.0
        descriptions = features.describe(limit=3)
        assert len(descriptions) == 3

    def test_generator_on_small_workload(self, ds_workload, fast_tree_config):
        small = ds_workload.sample(150, seed=0)
        generator = RiskFeatureGenerator(tree_config=fast_tree_config)
        features = generator.generate(small)
        assert features.vectorizer is not None
        assert len(features.rules) >= 1

    def test_no_tables_and_no_vectorizer_rejected(self, ds_workload, fast_tree_config):
        from repro.data.workload import Workload
        bare = Workload("bare", ds_workload.pairs[:50])
        generator = RiskFeatureGenerator(tree_config=fast_tree_config)
        with pytest.raises(Exception):
            generator.generate(bare)


class TestLearnRiskModel:
    @pytest.fixture(scope="class")
    def fitted_model(self, prepared_ds):
        model = LearnRiskModel(prepared_ds.risk_features,
                               config=TrainingConfig(epochs=80, seed=0))
        validation = prepared_ds.validation
        model.fit(validation.features, validation.probabilities,
                  validation.machine_labels, validation.ground_truth)
        return model

    def test_scores_shape_and_range(self, fitted_model, prepared_ds):
        test = prepared_ds.test
        scores = fitted_model.score(test.features, test.probabilities, test.machine_labels)
        assert scores.shape == (len(test.workload),)
        assert np.all((scores >= 0.0) & (scores <= 1.0))

    def test_ranking_detects_mislabeled_pairs(self, fitted_model, prepared_ds):
        test = prepared_ds.test
        scores = fitted_model.score(test.features, test.probabilities, test.machine_labels)
        risk_labels = test.risk_labels
        if 0 < risk_labels.sum() < len(risk_labels):
            assert auroc_score(risk_labels, scores) > 0.7

    def test_rank_returns_permutation(self, fitted_model, prepared_ds):
        test = prepared_ds.test
        ranking = fitted_model.rank(test.features, test.probabilities, test.machine_labels)
        assert sorted(ranking) == list(range(len(test.workload)))

    def test_distribution_is_valid(self, fitted_model, prepared_ds):
        test = prepared_ds.test
        distribution = fitted_model.distribution(test.features, test.probabilities)
        assert np.all((distribution.means >= 0.0) & (distribution.means <= 1.0))
        assert np.all(distribution.variances >= 0.0)

    def test_explanations_are_interpretable(self, fitted_model, prepared_ds):
        test = prepared_ds.test
        first = (test.features[:1], test.probabilities[:1], test.machine_labels[:1])
        explanations = fitted_model.explain_pairs(*first)[0].fired_rules
        assert explanations
        shares = [e.weight_share for e in explanations]
        assert sum(shares) == pytest.approx(1.0, abs=1e-6)
        assert any(e.is_classifier_output for e in explanations)
        top_two = fitted_model.explain_pairs(*first, top_rules=2)[0].fired_rules
        assert len(top_two) <= 2

    def test_influence_function_shape(self, fitted_model):
        """Eq. 11: the weight grows with the extremeness of the classifier output."""
        probabilities = np.array([0.5, 0.7, 0.9, 0.99])
        weights = fitted_model.influence_weight(probabilities)
        assert np.all(np.diff(weights) >= -1e-9)
        assert np.all(weights > 0.0)

    def test_summary_fields(self, fitted_model):
        summary = fitted_model.summary()
        assert summary["n_rules"] > 0
        assert summary["alpha"] > 0 and summary["beta"] > 0

    def test_summary_requires_fit(self, prepared_ds):
        model = LearnRiskModel(prepared_ds.risk_features)
        with pytest.raises(Exception):
            model.summary()

    def test_invalid_risk_metric(self, prepared_ds):
        with pytest.raises(ConfigurationError):
            LearnRiskModel(prepared_ds.risk_features, risk_metric="magic")

    def test_untrained_model_still_scores(self, prepared_ds):
        model = LearnRiskModel(prepared_ds.risk_features)
        test = prepared_ds.test
        scores = model.score(test.features, test.probabilities, test.machine_labels)
        assert np.all(np.isfinite(scores))

    @pytest.mark.parametrize("metric", ["var", "cvar", "expectation"])
    def test_all_risk_metrics_supported(self, prepared_ds, metric):
        model = LearnRiskModel(prepared_ds.risk_features, risk_metric=metric)
        test = prepared_ds.test
        scores = model.score(test.features, test.probabilities, test.machine_labels)
        assert scores.shape == (len(test.workload),)

    def test_contradiction_scores_higher_than_agreement(self, prepared_ds):
        """A pair whose covering rules contradict its machine label must look riskier
        than a pair whose covering rules agree, all else being equal."""
        model = LearnRiskModel(prepared_ds.risk_features)
        test = prepared_ds.test
        membership = prepared_ds.risk_features.membership(test.features)
        expectations = np.array([rule.expectation for rule in prepared_ds.risk_features.rules])
        scores = model.score(test.features, test.probabilities, test.machine_labels)

        contradiction_scores = []
        agreement_scores = []
        for index in range(len(test.workload)):
            covering = np.nonzero(membership[index] > 0)[0]
            if len(covering) < 2 or test.machine_labels[index] != 1:
                continue
            mean_expectation = expectations[covering].mean()
            if test.probabilities[index] > 0.9 and mean_expectation < 0.3:
                contradiction_scores.append(scores[index])
            elif test.probabilities[index] > 0.9 and mean_expectation > 0.7:
                agreement_scores.append(scores[index])
        if contradiction_scores and agreement_scores:
            assert np.mean(contradiction_scores) > np.mean(agreement_scores)
