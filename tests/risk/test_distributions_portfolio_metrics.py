"""Unit and property tests for distributions, portfolio aggregation and risk metrics."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.records import MATCH, UNMATCH
from repro.exceptions import ConfigurationError
from repro.risk.distributions import (
    beta_to_normal,
    equivalence_sample_expectation,
    normal_quantile,
    truncated_normal_mean,
    truncated_normal_quantile,
)
from repro.risk.metrics import (
    conditional_value_at_risk,
    expectation_risk,
    rank_by_risk,
    value_at_risk,
)
from repro.risk.portfolio import PortfolioDistribution, aggregate_portfolio, feature_contributions


class TestDistributions:
    def test_beta_to_normal_moments(self):
        normal = beta_to_normal(30, 10)
        assert normal.mean == pytest.approx(0.75)
        assert normal.variance == pytest.approx(30 * 10 / (40 ** 2 * 41))

    def test_beta_invalid(self):
        with pytest.raises(ConfigurationError):
            beta_to_normal(0, 1)

    def test_normal_quantile_monotone_in_level(self):
        means = np.array([0.5])
        stds = np.array([0.1])
        assert normal_quantile(means, stds, 0.9)[0] > normal_quantile(means, stds, 0.5)[0]

    def test_truncated_quantile_within_bounds(self):
        means = np.array([-0.5, 0.5, 1.5])
        stds = np.array([0.3, 0.3, 0.3])
        values = truncated_normal_quantile(means, stds, 0.9)
        assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_truncated_quantile_degenerates_to_clipped_mean(self):
        values = truncated_normal_quantile(np.array([0.3, 1.4]), np.array([0.0, 0.0]), 0.9)
        assert np.allclose(values, [0.3, 1.0])

    def test_truncated_mean_bounds(self):
        values = truncated_normal_mean(np.array([0.2, 0.9]), np.array([0.5, 0.5]))
        assert np.all((values >= 0.0) & (values <= 1.0))

    def test_invalid_level(self):
        with pytest.raises(ConfigurationError):
            normal_quantile(np.array([0.5]), np.array([0.1]), 1.5)

    def test_sample_expectation(self):
        assert equivalence_sample_expectation(5, 10, smoothing=0.0) == 0.5
        assert 0.0 < equivalence_sample_expectation(0, 10) < 0.1
        with pytest.raises(ConfigurationError):
            equivalence_sample_expectation(5, 3)

    @settings(max_examples=50, deadline=None)
    @given(mean=st.floats(-0.5, 1.5), std=st.floats(0.0, 1.0), level=st.floats(0.05, 0.95))
    def test_truncated_quantile_always_valid_probability(self, mean, std, level):
        value = truncated_normal_quantile(np.array([mean]), np.array([std]), level)[0]
        assert 0.0 <= value <= 1.0


class TestPortfolioAggregation:
    def test_single_feature_passthrough(self):
        distribution = aggregate_portfolio(
            membership=np.array([[1.0]]),
            rule_weights=np.array([2.0]),
            rule_means=np.array([0.8]),
            rule_stds=np.array([0.1]),
        )
        assert distribution.means[0] == pytest.approx(0.8)
        assert distribution.stds[0] == pytest.approx(0.1)

    def test_weighted_average_of_two_features(self):
        distribution = aggregate_portfolio(
            membership=np.array([[1.0, 1.0]]),
            rule_weights=np.array([1.0, 3.0]),
            rule_means=np.array([0.0, 1.0]),
            rule_stds=np.array([0.0, 0.0]),
        )
        assert distribution.means[0] == pytest.approx(0.75)

    def test_output_feature_included(self):
        distribution = aggregate_portfolio(
            membership=np.zeros((1, 0)),
            rule_weights=np.zeros(0),
            rule_means=np.zeros(0),
            rule_stds=np.zeros(0),
            output_weights=np.array([2.0]),
            output_means=np.array([0.6]),
            output_stds=np.array([0.05]),
        )
        assert distribution.means[0] == pytest.approx(0.6)
        assert distribution.stds[0] == pytest.approx(0.05)

    def test_uncovered_pair_gets_uninformative_prior(self):
        distribution = aggregate_portfolio(
            membership=np.zeros((2, 1)),
            rule_weights=np.array([1.0]),
            rule_means=np.array([0.9]),
            rule_stds=np.array([0.1]),
        )
        assert np.allclose(distribution.means, 0.5)
        assert np.allclose(distribution.variances, 0.25)

    def test_shape_validation(self):
        with pytest.raises(ConfigurationError):
            aggregate_portfolio(np.zeros((2, 2)), np.zeros(1), np.zeros(2), np.zeros(2))

    @settings(max_examples=40, deadline=None)
    @given(
        weights=st.lists(st.floats(0.1, 5.0), min_size=1, max_size=4),
        means=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4),
    )
    def test_mean_is_convex_combination(self, weights, means):
        n_rules = len(weights)
        membership = np.ones((1, n_rules))
        distribution = aggregate_portfolio(
            membership,
            np.array(weights),
            np.array(means[:n_rules]),
            np.zeros(n_rules),
        )
        assert min(means[:n_rules]) - 1e-9 <= distribution.means[0] <= max(means[:n_rules]) + 1e-9

    def test_feature_contributions_sum_to_one(self):
        [contributions] = feature_contributions(
            membership=np.array([[1.0, 0.0, 1.0]]),
            rule_weights=np.array([1.0, 5.0, 3.0]),
            output_weights=np.array([2.0]),
        )
        assert sum(share for _, share in contributions) == pytest.approx(1.0)
        assert contributions[0][1] >= contributions[-1][1]
        assert any(index == -1 for index, _ in contributions)


class TestRiskMetrics:
    @pytest.fixture
    def distribution(self):
        return PortfolioDistribution(
            means=np.array([0.05, 0.95, 0.5, 0.95]),
            variances=np.array([0.001, 0.001, 0.02, 0.05]),
        )

    def test_var_reflects_machine_label(self, distribution):
        machine_labels = np.array([UNMATCH, MATCH, UNMATCH, MATCH])
        risk = value_at_risk(distribution, machine_labels, theta=0.9)
        # Confident, agreeing pairs have low risk; the ambiguous pair is risky.
        assert risk[0] < 0.2 and risk[1] < 0.2
        assert risk[2] > 0.4

    def test_var_flags_contradiction(self, distribution):
        # Same distributions, but the machine label contradicts the expectation.
        machine_labels = np.array([MATCH, UNMATCH, UNMATCH, UNMATCH])
        risk = value_at_risk(distribution, machine_labels, theta=0.9)
        assert risk[0] > 0.8 and risk[1] > 0.8

    def test_var_increases_with_variance(self, distribution):
        machine_labels = np.array([UNMATCH, MATCH, UNMATCH, UNMATCH])
        risk = value_at_risk(distribution, machine_labels, theta=0.9)
        # Pairs 1 and 3 share the same mean and labels that disagree equally,
        # but pair 3 has a larger variance (when labeled unmatching).
        assert risk[3] > risk[1] or machine_labels[1] != machine_labels[3]

    def test_cvar_at_least_var(self, distribution):
        machine_labels = np.array([UNMATCH, MATCH, UNMATCH, MATCH])
        var = value_at_risk(distribution, machine_labels, theta=0.9, truncated=False)
        cvar = conditional_value_at_risk(distribution, machine_labels, theta=0.9)
        assert np.all(cvar >= np.clip(var, 0, 1) - 1e-9)

    def test_expectation_risk_ignores_variance(self):
        low_variance = PortfolioDistribution(np.array([0.5]), np.array([0.0001]))
        high_variance = PortfolioDistribution(np.array([0.5]), np.array([0.05]))
        labels = np.array([UNMATCH])
        assert expectation_risk(low_variance, labels)[0] == expectation_risk(high_variance, labels)[0]
        assert value_at_risk(high_variance, labels)[0] > value_at_risk(low_variance, labels)[0]

    def test_invalid_theta(self, distribution):
        with pytest.raises(ConfigurationError):
            value_at_risk(distribution, np.array([0, 0, 0, 0]), theta=1.2)

    def test_label_length_mismatch(self, distribution):
        with pytest.raises(ConfigurationError):
            value_at_risk(distribution, np.array([0, 1]))

    def test_rank_by_risk_descending(self):
        scores = np.array([0.1, 0.9, 0.5])
        assert list(rank_by_risk(scores)) == [1, 2, 0]
