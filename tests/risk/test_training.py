"""Unit tests for risk-model training: parameters, ranking loss and the trainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.risk.training import (
    RiskModelTrainer,
    RiskParameters,
    TrainingConfig,
    differentiable_var_scores,
    inverse_softplus,
    output_bin_matrix,
    ranking_loss,
    sample_ranking_pairs,
)


class TestParameterInitialisation:
    def test_effective_initial_values(self):
        parameters = RiskParameters.initialise(n_rules=3, n_output_bins=5,
                                                initial_weight=1.0, initial_rsd=0.2)
        assert np.allclose(np.log1p(np.exp(parameters.rule_weight_raw.data)), 1.0, atol=1e-5)
        assert np.allclose(np.log1p(np.exp(parameters.rule_rsd_raw.data)), 0.2, atol=1e-5)
        assert parameters.output_rsd_raw.size == 5

    def test_inverse_softplus_roundtrip(self):
        for value in (0.05, 0.5, 1.0, 4.0):
            assert np.log1p(np.exp(inverse_softplus(value))) == pytest.approx(value, rel=1e-4)
        with pytest.raises(ConfigurationError):
            inverse_softplus(0.0)

    def test_snapshot_restore(self):
        parameters = RiskParameters.initialise(2, 3)
        snapshot = parameters.snapshot()
        parameters.rule_weight_raw.data += 1.0
        parameters.restore(snapshot)
        assert np.allclose(np.log1p(np.exp(parameters.rule_weight_raw.data)), 1.0, atol=1e-5)

    def test_no_rules_still_has_parameters(self):
        parameters = RiskParameters.initialise(0, 4)
        assert len(parameters.all_parameters()) == 3


class TestHelpers:
    def test_output_bin_matrix_one_hot(self):
        matrix = output_bin_matrix(np.array([0.05, 0.55, 0.999]), n_bins=10)
        assert matrix.shape == (3, 10)
        assert np.allclose(matrix.sum(axis=1), 1.0)
        assert matrix[0, 0] == 1.0 and matrix[1, 5] == 1.0 and matrix[2, 9] == 1.0

    def test_sample_ranking_pairs_exhaustive_when_small(self):
        labels = np.array([1, 0, 0, 1])
        positives, negatives = sample_ranking_pairs(labels, max_pairs=100, seed=0)
        assert len(positives) == len(negatives) == 4
        assert set(labels[positives]) == {1}
        assert set(labels[negatives]) == {0}

    def test_sample_ranking_pairs_capped(self):
        labels = np.array([1] * 50 + [0] * 50)
        positives, negatives = sample_ranking_pairs(labels, max_pairs=200, seed=0)
        assert len(positives) == 200

    def test_sample_ranking_pairs_empty_when_one_class(self):
        positives, negatives = sample_ranking_pairs(np.zeros(10, dtype=int), 100, 0)
        assert len(positives) == 0


class TestDifferentiableScores:
    @pytest.fixture
    def small_problem(self):
        membership = np.array([
            [1.0, 0.0],   # covered by an unmatching rule
            [0.0, 1.0],   # covered by a matching rule
            [0.0, 0.0],   # only the classifier output
        ])
        rule_means = np.array([0.05, 0.95])
        probabilities = np.array([0.9, 0.9, 0.5])
        machine_labels = np.array([1, 1, 0])
        return membership, rule_means, probabilities, machine_labels

    def test_scores_match_expectation_structure(self, small_problem):
        membership, rule_means, probabilities, machine_labels = small_problem
        parameters = RiskParameters.initialise(2, 10)
        bins = output_bin_matrix(probabilities, 10)
        gamma = differentiable_var_scores(
            parameters, membership, rule_means, probabilities, bins, machine_labels, theta=0.9
        ).numpy()
        # The pair whose covering rule contradicts its machine label is riskiest.
        assert gamma[0] > gamma[1]
        assert gamma.shape == (3,)

    def test_gradients_flow_to_all_parameters(self, small_problem):
        membership, rule_means, probabilities, machine_labels = small_problem
        parameters = RiskParameters.initialise(2, 10)
        bins = output_bin_matrix(probabilities, 10)
        gamma = differentiable_var_scores(
            parameters, membership, rule_means, probabilities, bins, machine_labels, theta=0.9
        )
        ranking_loss(gamma, np.array([0]), np.array([1])).backward()
        for tensor in parameters.all_parameters():
            assert tensor.grad is not None
            assert np.all(np.isfinite(tensor.grad))

    def test_ranking_loss_decreases_with_better_separation(self):
        from repro.autodiff import Tensor
        well_separated = ranking_loss(Tensor(np.array([2.0, 0.0])), np.array([0]), np.array([1]))
        poorly_separated = ranking_loss(Tensor(np.array([0.1, 0.0])), np.array([0]), np.array([1]))
        assert well_separated.item() < poorly_separated.item()


class TestTrainer:
    @pytest.fixture
    def trainable_problem(self):
        """A problem where re-weighting rules improves the ranking.

        Rule 0 is reliable (contradiction really means mislabeled); rule 1 is
        noise (its firing is unrelated to mislabeling).  Learning should
        up-weight rule 0 relative to rule 1.
        """
        rng = np.random.default_rng(0)
        n_pairs = 300
        reliable = (rng.random(n_pairs) < 0.3).astype(float)
        noisy = (rng.random(n_pairs) < 0.3).astype(float)
        membership = np.column_stack([reliable, noisy])
        rule_means = np.array([0.05, 0.05])
        probabilities = np.full(n_pairs, 0.9)
        machine_labels = np.ones(n_pairs, dtype=int)
        # Mislabeled iff the reliable rule fires (with some noise).
        risk_labels = ((reliable == 1.0) & (rng.random(n_pairs) < 0.9)).astype(int)
        return membership, rule_means, probabilities, machine_labels, risk_labels

    def test_training_reduces_loss(self, trainable_problem):
        membership, rule_means, probabilities, machine_labels, risk_labels = trainable_problem
        parameters = RiskParameters.initialise(2, 10)
        trainer = RiskModelTrainer(TrainingConfig(epochs=60, learning_rate=0.05, holdout_fraction=0.0))
        result = trainer.train(parameters, membership, rule_means, probabilities,
                               machine_labels, risk_labels)
        assert result.trained
        assert result.losses[-1] < result.losses[0]

    def test_training_upweights_reliable_rule(self, trainable_problem):
        membership, rule_means, probabilities, machine_labels, risk_labels = trainable_problem
        parameters = RiskParameters.initialise(2, 10)
        trainer = RiskModelTrainer(TrainingConfig(epochs=120, learning_rate=0.05, holdout_fraction=0.0))
        trainer.train(parameters, membership, rule_means, probabilities, machine_labels, risk_labels)
        weights = np.log1p(np.exp(parameters.rule_weight_raw.data))
        assert weights[0] > weights[1]

    def test_no_positives_leaves_parameters_untrained(self):
        parameters = RiskParameters.initialise(1, 10)
        before = parameters.rule_weight_raw.data.copy()
        trainer = RiskModelTrainer(TrainingConfig(epochs=10))
        result = trainer.train(
            parameters, np.ones((5, 1)), np.array([0.5]), np.full(5, 0.5),
            np.zeros(5, dtype=int), np.zeros(5, dtype=int),
        )
        assert not result.trained
        assert np.allclose(parameters.rule_weight_raw.data, before)

    def test_holdout_selection_never_worse_than_initial(self, trainable_problem):
        membership, rule_means, probabilities, machine_labels, risk_labels = trainable_problem
        parameters = RiskParameters.initialise(2, 10)
        trainer = RiskModelTrainer(TrainingConfig(epochs=40, holdout_fraction=0.3, selection_interval=10))
        result = trainer.train(parameters, membership, rule_means, probabilities,
                               machine_labels, risk_labels)
        assert result.trained
        assert not np.isnan(result.best_holdout_auroc)
        assert result.best_holdout_auroc >= 0.5

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            TrainingConfig(theta=1.5)
        with pytest.raises(ConfigurationError):
            TrainingConfig(epochs=0)
        with pytest.raises(ConfigurationError):
            TrainingConfig(optimizer="newton")

    def test_sgd_optimizer_option(self, trainable_problem):
        membership, rule_means, probabilities, machine_labels, risk_labels = trainable_problem
        parameters = RiskParameters.initialise(2, 10)
        trainer = RiskModelTrainer(TrainingConfig(epochs=20, optimizer="sgd", learning_rate=0.001,
                                                  holdout_fraction=0.0))
        result = trainer.train(parameters, membership, rule_means, probabilities,
                               machine_labels, risk_labels)
        assert result.trained
        assert len(result.losses) == 20


class TestSplitHoldout:
    def test_degenerate_all_negative(self):
        trainer = RiskModelTrainer(TrainingConfig(holdout_fraction=0.25))
        fit, holdout = trainer._split_holdout(np.zeros(20, dtype=int))
        assert holdout is None
        np.testing.assert_array_equal(fit, np.arange(20))

    def test_degenerate_all_positive(self):
        trainer = RiskModelTrainer(TrainingConfig(holdout_fraction=0.25))
        fit, holdout = trainer._split_holdout(np.ones(20, dtype=int))
        assert holdout is None
        np.testing.assert_array_equal(fit, np.arange(20))

    def test_degenerate_single_minority_example(self):
        # One mislabeled pair cannot be in both fit and holdout: selection is
        # disabled rather than trained on a class-free fit split.
        labels = np.zeros(20, dtype=int)
        labels[3] = 1
        trainer = RiskModelTrainer(TrainingConfig(holdout_fraction=0.25))
        _, holdout = trainer._split_holdout(labels)
        assert holdout is None

    def test_disabled_by_zero_fraction(self):
        labels = np.array([0, 1] * 10)
        trainer = RiskModelTrainer(TrainingConfig(holdout_fraction=0.0))
        fit, holdout = trainer._split_holdout(labels)
        assert holdout is None
        np.testing.assert_array_equal(fit, np.arange(20))

    def test_balanced_split_is_stratified_and_disjoint(self):
        labels = np.array([0, 1] * 20)
        trainer = RiskModelTrainer(TrainingConfig(holdout_fraction=0.25))
        fit, holdout = trainer._split_holdout(labels)
        assert holdout is not None
        assert set(fit).isdisjoint(holdout)
        assert len(fit) + len(holdout) == len(labels)
        assert 0 < labels[holdout].sum() < len(holdout)
        assert 0 < labels[fit].sum() < len(fit)


class TestRankingPairSentinel:
    def test_minus_one_labels_join_neither_side(self):
        # The trainer marks holdout pairs with -1 so they are excluded from
        # the ranking loss; they must appear in neither index array.
        labels = np.array([1, -1, 0, -1, 1, 0, -1])
        positives, negatives = sample_ranking_pairs(labels, max_pairs=100, seed=0)
        assert set(positives) == {0, 4}
        assert set(negatives) == {2, 5}
        assert len(positives) == len(negatives) == 4

    def test_minus_one_only_yields_no_pairs(self):
        positives, negatives = sample_ranking_pairs(np.full(6, -1), max_pairs=10, seed=0)
        assert len(positives) == 0 and len(negatives) == 0

    def test_sentinel_respected_when_sampling(self):
        rng_labels = np.array([1] * 30 + [0] * 30 + [-1] * 30)
        positives, negatives = sample_ranking_pairs(rng_labels, max_pairs=50, seed=3)
        assert len(positives) == len(negatives) == 50
        assert np.all(rng_labels[positives] == 1)
        assert np.all(rng_labels[negatives] == 0)
