"""Unit tests for the scalar definitions of the similarity metrics.

These pin the oracle in ``tests/metric_oracle.py`` to worked examples; the
parity suites then hold every kernel to the oracle bit for bit.
"""

from __future__ import annotations

import pytest

from metric_oracle import (
    cosine_tfidf_similarity,
    edit_similarity,
    entity_jaccard_similarity,
    exact_match,
    jaccard_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    lcs_similarity,
    levenshtein_distance,
    monge_elkan_similarity,
    numeric_inequality,
    numeric_similarity,
    overlap_coefficient,
)

ALL_STRING_METRICS = [
    exact_match,
    edit_similarity,
    jaro_similarity,
    jaro_winkler_similarity,
    lcs_similarity,
    jaccard_similarity,
    overlap_coefficient,
    monge_elkan_similarity,
    cosine_tfidf_similarity,
]


class TestMissingValuePolicy:
    @pytest.mark.parametrize("metric", ALL_STRING_METRICS)
    def test_both_missing_is_one(self, metric):
        assert metric(None, None) == 1.0
        assert metric("", "  ") == 1.0

    @pytest.mark.parametrize("metric", ALL_STRING_METRICS)
    def test_one_missing_is_zero(self, metric):
        assert metric("value", None) == 0.0
        assert metric(None, "value") == 0.0

    @pytest.mark.parametrize("metric", ALL_STRING_METRICS)
    def test_identical_is_one(self, metric):
        assert metric("entity resolution", "entity resolution") == pytest.approx(1.0)

    @pytest.mark.parametrize("metric", ALL_STRING_METRICS)
    def test_range(self, metric):
        value = metric("learned indexes for databases", "risk analysis for entity resolution")
        assert 0.0 <= value <= 1.0


class TestLevenshtein:
    def test_classic_example(self):
        assert levenshtein_distance("kitten", "sitting") == 3

    def test_empty(self):
        assert levenshtein_distance("", "abc") == 3
        assert levenshtein_distance("abc", "") == 3

    def test_symmetric(self):
        assert levenshtein_distance("sigmod", "sigmund") == levenshtein_distance("sigmund", "sigmod")

    def test_edit_similarity_scales(self):
        assert edit_similarity("sigmod", "sigmod") == 1.0
        assert edit_similarity("abc", "xyz") == 0.0


class TestJaro:
    def test_known_value(self):
        assert jaro_similarity("martha", "marhta") == pytest.approx(0.9444, abs=1e-3)

    def test_winkler_boosts_common_prefix(self):
        plain = jaro_similarity("prefix value", "prefix different")
        winkler = jaro_winkler_similarity("prefix value", "prefix different")
        assert winkler >= plain

    def test_disjoint_strings(self):
        assert jaro_similarity("abc", "xyz") == 0.0


class TestTokenMetrics:
    def test_jaccard(self):
        assert jaccard_similarity("a b c", "b c d") == pytest.approx(2 / 4)

    def test_overlap_uses_smaller_set(self):
        assert overlap_coefficient("a b", "a b c d") == pytest.approx(1.0)

    def test_monge_elkan_handles_token_reorder(self):
        assert monge_elkan_similarity("kriegel hans", "hans kriegel") == pytest.approx(1.0)

    def test_cosine_with_idf_downweights_common_tokens(self):
        idf = {"the": 0.1, "rare": 5.0, "token": 5.0}
        with_idf = cosine_tfidf_similarity("the rare token", "the other thing", idf)
        without_idf = cosine_tfidf_similarity("the rare token", "the other thing")
        assert with_idf < without_idf


class TestEntityJaccard:
    def test_paper_example(self):
        left = "T Brinkhoff, H Kriegel, R Schneider, B Seeger"
        right = "T Brinkhoff, H Kriegel, B Seeger"
        assert entity_jaccard_similarity(left, right) == pytest.approx(0.75)

    def test_disjoint_sets(self):
        assert entity_jaccard_similarity("A Smith", "B Jones") == 0.0


class TestNumeric:
    def test_equal_values(self):
        assert numeric_similarity(10, 10) == 1.0
        assert numeric_inequality(10, 10.0) == 0.0

    def test_relative_difference(self):
        assert numeric_similarity(100, 50) == pytest.approx(0.5)

    def test_missing(self):
        assert numeric_similarity(None, None) == 1.0
        assert numeric_similarity(None, 5) == 0.0
        assert numeric_similarity("not a number", 5) == 0.0

    def test_string_coercion(self):
        assert numeric_similarity("1998", "1998") == 1.0
        assert numeric_inequality("1998", 1999) == 1.0
