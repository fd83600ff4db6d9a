"""Unit tests for risk rules (conditions, coverage, expectations, dedup)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.records import MATCH, UNMATCH
from repro.risk.rules import (
    Condition,
    RiskRule,
    deduplicate_rules,
    estimate_expectations,
    remove_redundant_rules,
)


@pytest.fixture
def year_rule() -> RiskRule:
    """The paper's Eq. 1 rule: different year implies inequivalent."""
    condition = Condition(metric_index=0, metric_name="year.numeric_inequality",
                          threshold=0.5, is_leq=False)
    return RiskRule(conditions=(condition,), label=UNMATCH, support=20, purity=0.98)


@pytest.fixture
def title_rule() -> RiskRule:
    condition = Condition(metric_index=1, metric_name="title.cosine_tfidf",
                          threshold=0.9, is_leq=False)
    return RiskRule(conditions=(condition,), label=MATCH, support=15, purity=0.95)


class TestCondition:
    def test_coverage_is_a_row_mask(self):
        condition = Condition(0, "m", 0.5, is_leq=True)
        matrix = np.array([[0.2], [0.7], [0.5]])
        mask = condition.coverage(matrix)
        assert list(mask) == [True, False, True]

    def test_describe(self):
        assert Condition(0, "year.numeric_inequality", 0.5, False).describe() == \
            "year.numeric_inequality > 0.500"


class TestRiskRule:
    def test_coverage_conjunction(self, year_rule):
        two_condition_rule = RiskRule(
            conditions=year_rule.conditions + (Condition(1, "title.cosine", 0.5, False),),
            label=UNMATCH,
        )
        matrix = np.array([
            [1.0, 0.9],   # satisfies both
            [1.0, 0.2],   # fails second
            [0.0, 0.9],   # fails first
        ])
        assert list(two_condition_rule.coverage(matrix)) == [True, False, False]

    def test_describe_mentions_class(self, year_rule, title_rule):
        assert year_rule.describe().endswith("inequivalent")
        assert title_rule.describe().endswith("equivalent")

    def test_signature_ignores_condition_order(self):
        conditions = (
            Condition(0, "a", 0.5, True),
            Condition(1, "b", 0.7, False),
        )
        rule_one = RiskRule(conditions=conditions, label=MATCH)
        rule_two = RiskRule(conditions=conditions[::-1], label=MATCH)
        assert rule_one.signature() == rule_two.signature()

    def test_with_expectation(self, year_rule):
        updated = year_rule.with_expectation(0.07)
        assert updated.expectation == 0.07
        assert updated.conditions == year_rule.conditions


class TestEstimateExpectations:
    def test_expectation_from_covered_pairs(self, year_rule):
        matrix = np.array([[1.0], [1.0], [1.0], [0.0]])
        labels = np.array([0, 0, 1, 1])
        estimated = estimate_expectations([year_rule], matrix, labels, smoothing=0.0)[0]
        assert estimated.expectation == pytest.approx(1 / 3)

    def test_smoothing_avoids_extremes(self, year_rule):
        matrix = np.array([[1.0], [1.0]])
        labels = np.array([0, 0])
        estimated = estimate_expectations([year_rule], matrix, labels, smoothing=1.0)[0]
        assert 0.0 < estimated.expectation < 0.5

    def test_uncovered_rule_falls_back_to_label_prior(self, year_rule, title_rule):
        matrix = np.zeros((4, 2))
        labels = np.array([0, 0, 1, 1])
        unmatch_rule, match_rule = estimate_expectations([year_rule, title_rule], matrix, labels)
        assert unmatch_rule.expectation < 0.1
        assert match_rule.expectation > 0.9


class TestDeduplication:
    def test_duplicates_removed_keeping_best_support(self, year_rule):
        duplicate = RiskRule(conditions=year_rule.conditions, label=year_rule.label, support=5)
        kept = deduplicate_rules([duplicate, year_rule])
        assert len(kept) == 1
        assert kept[0].support == 20

    def test_different_labels_not_merged(self, year_rule):
        flipped = RiskRule(conditions=year_rule.conditions, label=MATCH, support=3)
        assert len(deduplicate_rules([year_rule, flipped])) == 2

    def test_redundant_coverage_removed(self, year_rule):
        matrix = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.2]])
        same_coverage = RiskRule(
            conditions=(Condition(1, "other.metric", 0.5, False),), label=UNMATCH, support=2,
        )
        kept = remove_redundant_rules([year_rule, same_coverage], matrix)
        assert len(kept) == 1

    def test_low_coverage_rules_dropped(self, year_rule):
        matrix = np.zeros((5, 1))
        assert remove_redundant_rules([year_rule], matrix, min_coverage=1) == []
