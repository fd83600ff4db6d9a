"""Unit tests for the scalar definitions of the difference metrics (Figure 5).

These pin the oracle in ``tests/metric_oracle.py`` to worked examples; the
parity suites then hold every kernel to the oracle bit for bit.
"""

from __future__ import annotations

import pytest

from metric_oracle import (
    abbr_non_prefix,
    abbr_non_substring,
    diff_cardinality,
    diff_key_token_fraction,
    distinct_entity_fraction,
    non_prefix,
    non_substring,
    numeric_difference,
    numeric_inequality,
)

ALL_DIFFERENCE_METRICS = [
    non_substring, non_prefix,
    abbr_non_substring, abbr_non_prefix,
    diff_cardinality, distinct_entity_fraction, diff_key_token_fraction,
]


class TestMissingValuePolicy:
    @pytest.mark.parametrize("metric", ALL_DIFFERENCE_METRICS)
    def test_missing_value_carries_no_difference_evidence(self, metric):
        assert metric(None, "value") == 0.0
        assert metric("value", None) == 0.0
        assert metric(None, None) == 0.0


class TestEntityNameDifferences:
    def test_substring_detected(self):
        assert non_substring("VLDB Journal", "The VLDB Journal") == 0.0
        assert non_substring("SIGMOD", "ICDE") == 1.0

    def test_prefix(self):
        assert non_prefix("data engineering", "data engineering bulletin") == 0.0
        assert non_prefix("alpha", "beta") == 1.0

    def test_abbreviation_matches_expanded_form(self):
        full = "Very Large Data Bases"
        assert abbr_non_substring(full, "VLDB") == 0.0
        assert abbr_non_prefix(full, "VLDB") == 0.0

    def test_different_abbreviations(self):
        assert abbr_non_substring("Management of Data", "Data Engineering") == 1.0


class TestEntitySetDifferences:
    def test_paper_example_distinct_entity(self):
        left = "T Brinkhoff, H Kriegel, R Schneider, B Seeger"
        right = "T Brinkhoff, H Kriegel, B Seeger"
        # One of the four authors appears in only one list.
        assert distinct_entity_fraction(left, right) == 0.25
        assert diff_cardinality(left, right) == 1.0

    def test_identical_sets(self):
        value = "A Smith, B Jones"
        assert diff_cardinality(value, value) == 0.0
        assert distinct_entity_fraction(value, value) == 0.0

    def test_order_insensitive(self):
        assert distinct_entity_fraction("A Smith, B Jones", "B Jones, A Smith") == 0.0

    def test_fraction_bounded(self):
        assert 0.0 <= distinct_entity_fraction("A, B, C", "C, D") <= 1.0


class TestTextDifferences:
    def test_shared_discriminating_tokens(self):
        value = "interpretable risk analysis framework"
        assert diff_key_token_fraction(value, value) == 0.0

    def test_exclusive_discriminating_token_counted(self):
        left = "panasonic lumix camera DMC123456"
        right = "panasonic lumix camera"
        # dmc123456 is the one key token of four that only the left text has.
        assert diff_key_token_fraction(left, right) == 0.25

    def test_short_and_numeric_tokens_ignored_without_idf(self):
        assert diff_key_token_fraction("version 12", "version 13") == 0.0

    def test_idf_threshold_controls_key_tokens(self):
        idf = {"alpha": 5.0, "the": 0.1}
        assert diff_key_token_fraction("alpha the", "the", idf=idf) == 1.0
        assert diff_key_token_fraction("the", "the alpha", idf=idf, idf_threshold=10.0) == 0.0

    def test_fraction_bounded(self):
        assert 0.0 <= diff_key_token_fraction("alpha beta gamma", "gamma delta") <= 1.0


class TestNumericDifferences:
    def test_paper_year_rule(self):
        assert numeric_inequality(1994, 1994) == 0.0
        assert numeric_inequality(1994, 1996) == 1.0

    def test_relative_difference(self):
        assert numeric_difference(100, 50) == pytest.approx(0.5)
        assert numeric_difference(0, 0) == 0.0

    def test_missing_values(self):
        assert numeric_inequality(None, 1994) == 0.0
        assert numeric_difference("n/a", 5) == 0.0
