"""Unit tests for one-sided Gini and one-sided decision-tree rule generation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compose import build_pipeline
from repro.data.records import MATCH, UNMATCH
from repro.exceptions import ConfigurationError
from repro.risk.onesided_tree import (
    OneSidedTreeBuilder,
    OneSidedTreeConfig,
    best_one_sided_split,
    gini_value,
)
from test_split_parity import one_sided_gini


class TestOneSidedGini:
    def test_prefers_pure_side(self):
        pure = np.array([0, 0, 0, 0, 0])
        mixed = np.array([0, 1, 0, 1, 1])
        score_pure_left, pure_is_left = one_sided_gini(pure, mixed, lam=0.2)
        score_pure_right, pure_is_right = one_sided_gini(mixed, pure, lam=0.2)
        assert pure_is_left is True
        assert pure_is_right is False
        assert score_pure_left == pytest.approx(score_pure_right)

    def test_lambda_trades_size_for_purity(self):
        small_pure = np.array([1, 1])
        large_almost_pure = np.array([0] * 99 + [1])
        # With a size-heavy lambda the large side wins despite slight impurity.
        _, pure_is_left_high_lambda = one_sided_gini(small_pure, large_almost_pure, lam=0.9)
        assert pure_is_left_high_lambda is False
        # With a purity-heavy lambda the perfectly pure small side wins.
        _, pure_is_left_low_lambda = one_sided_gini(small_pure, large_almost_pure, lam=0.001)
        assert pure_is_left_low_lambda is True

    def test_gini_value_weighted(self):
        labels = np.array([0, 1])
        assert gini_value(labels) == pytest.approx(0.5)
        assert gini_value(labels, np.array([9.0, 1.0])) == pytest.approx(1 - 0.81 - 0.01)


class TestBestOneSidedSplit:
    def test_finds_discriminating_threshold(self):
        rng = np.random.default_rng(0)
        # Metric 0: matches have values near 0, non-matches near 1.
        labels = np.array([1] * 20 + [0] * 80)
        column = np.concatenate([rng.uniform(0.0, 0.2, 20), rng.uniform(0.8, 1.0, 80)])
        matrix = column.reshape(-1, 1)
        split = best_one_sided_split(matrix, labels, metric_index=0, lam=0.2, min_support=5)
        assert split is not None
        # The extracted (pure) side must contain pairs of a single class only.
        pure_mask = (column <= split.threshold) if split.pure_is_left else (column > split.threshold)
        pure_labels = labels[pure_mask]
        assert len(set(pure_labels)) == 1
        assert pure_mask.sum() >= 5

    def test_constant_metric_returns_none(self):
        matrix = np.ones((20, 1))
        labels = np.array([0, 1] * 10)
        assert best_one_sided_split(matrix, labels, 0, lam=0.2, min_support=2) is None

    def test_min_support_respected(self):
        matrix = np.array([[0.0], [1.0], [1.0], [1.0], [1.0], [1.0]])
        labels = np.array([1, 0, 0, 0, 0, 0])
        assert best_one_sided_split(matrix, labels, 0, lam=0.2, min_support=3) is None


class TestOneSidedTreeConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            OneSidedTreeConfig(max_depth=0)
        with pytest.raises(ConfigurationError):
            OneSidedTreeConfig(lam=1.5)
        with pytest.raises(ConfigurationError):
            OneSidedTreeConfig(impurity_threshold=0.6)
        with pytest.raises(ConfigurationError):
            OneSidedTreeConfig(min_support=0)
        # Spec JSON reaches these fields unchecked, so each is rejected here.
        for field, value in [
            ("max_thresholds", 0),
            ("max_thresholds", -5),
            ("max_thresholds", 24.0),
            ("branch_depth", -1),
            ("match_class_weight", 0.0),
            ("match_class_weight", -3.0),
            ("match_class_weight", float("nan")),
            ("match_class_weight", float("inf")),
        ]:
            with pytest.raises(ConfigurationError, match=field):
                OneSidedTreeConfig(**{field: value})

    def test_boundary_values_grow_rules(self):
        # One threshold per metric, no exhaustive level and a tiny class weight.
        config = OneSidedTreeConfig(
            max_depth=2, min_support=2, max_thresholds=1, branch_depth=0, match_class_weight=1e-3
        )
        column = np.array([[0.0]] * 6 + [[1.0]] * 6)
        labels = np.array([0] * 6 + [1] * 6)
        rules = OneSidedTreeBuilder(config, ["m"]).build(column, labels)
        assert {rule.label for rule in rules} == {MATCH, UNMATCH}

    @pytest.mark.parametrize("tree", [
        {"max_thresholds": 0},
        {"max_thresholds": -5},
        {"max_thresholds": 24.0},
        {"branch_depth": -1},
        {"match_class_weight": 0},
        {"match_class_weight": -3},
        {"match_class_weight": float("nan")},
    ])
    def test_spec_values_rejected_when_the_pipeline_is_built(self, tree):
        spec = {"risk_features": {"kind": "onesided_tree", "params": {"tree": tree}}}
        with pytest.raises(ConfigurationError, match=next(iter(tree))):
            build_pipeline(spec)


class TestOneSidedTreeBuilder:
    @pytest.fixture
    def synthetic_rule_problem(self):
        """Metrics with planted one-sided structure.

        Metric 0 ("year difference"): 1.0 implies non-match with high purity.
        Metric 1 ("title similarity"): > 0.8 implies match with high purity.
        Metric 2: pure noise.
        """
        rng = np.random.default_rng(1)
        n_samples = 400
        labels = (rng.random(n_samples) < 0.3).astype(int)
        year_difference = np.where(labels == 1, 0.0, (rng.random(n_samples) < 0.6).astype(float))
        title_similarity = np.where(
            labels == 1, rng.uniform(0.8, 1.0, n_samples), rng.uniform(0.0, 0.85, n_samples)
        )
        noise = rng.random(n_samples)
        matrix = np.column_stack([year_difference, title_similarity, noise])
        return matrix, labels

    def test_generates_both_rule_kinds(self, synthetic_rule_problem):
        matrix, labels = synthetic_rule_problem
        builder = OneSidedTreeBuilder(
            OneSidedTreeConfig(max_depth=2, min_support=5),
            metric_names=["year.diff", "title.sim", "noise"],
        )
        rules = builder.build(matrix, labels)
        assert rules
        labels_present = {rule.label for rule in rules}
        assert MATCH in labels_present and UNMATCH in labels_present

    def test_rules_meet_purity_and_support(self, synthetic_rule_problem):
        matrix, labels = synthetic_rule_problem
        config = OneSidedTreeConfig(max_depth=2, impurity_threshold=0.1, min_support=5)
        builder = OneSidedTreeBuilder(config, ["year.diff", "title.sim", "noise"])
        for rule in builder.build(matrix, labels):
            assert rule.support >= config.min_support
            assert rule.purity >= 0.5
            assert len(rule.conditions) <= config.max_depth

    def test_planted_year_rule_recovered(self, synthetic_rule_problem):
        matrix, labels = synthetic_rule_problem
        builder = OneSidedTreeBuilder(OneSidedTreeConfig(max_depth=2, min_support=5),
                                      ["year.diff", "title.sim", "noise"])
        rules = builder.build(matrix, labels)
        year_rules = [
            rule for rule in rules
            if rule.label == UNMATCH and any(c.metric_name == "year.diff" for c in rule.conditions)
        ]
        assert year_rules, "expected the year-difference rule to be discovered"

    def test_too_small_input_returns_no_rules(self):
        builder = OneSidedTreeBuilder(OneSidedTreeConfig(min_support=5), ["m"])
        assert builder.build(np.array([[0.1], [0.9]]), np.array([0, 1])) == []

    def test_mismatched_lengths_rejected(self):
        builder = OneSidedTreeBuilder(OneSidedTreeConfig(), ["m"])
        with pytest.raises(ConfigurationError):
            builder.build(np.zeros((4, 1)), np.array([0, 1]))

    def test_deterministic(self, synthetic_rule_problem):
        matrix, labels = synthetic_rule_problem
        builder = OneSidedTreeBuilder(OneSidedTreeConfig(max_depth=2), ["a", "b", "c"])
        first = [rule.describe() for rule in builder.build(matrix, labels)]
        second = [rule.describe() for rule in builder.build(matrix, labels)]
        assert first == second
