"""Unit tests for tokenisation and normalisation helpers."""

from __future__ import annotations

import math

from repro.text.tokenize import (
    abbreviation,
    idf_weights,
    normalize,
    split_entity_set,
    token_counts,
    token_set,
    tokenize,
)


class TestNormalize:
    def test_lowercases_and_collapses_whitespace(self):
        assert normalize("  Hello   World ") == "hello world"

    def test_none_becomes_empty(self):
        assert normalize(None) == ""

    def test_non_string_coerced(self):
        assert normalize(1998) == "1998"


class TestTokenize:
    def test_splits_on_punctuation(self):
        assert tokenize("Entity-Resolution, at scale!") == ["entity", "resolution", "at", "scale"]

    def test_empty_and_none(self):
        assert tokenize("") == []
        assert tokenize(None) == []

    def test_token_set_removes_duplicates(self):
        assert token_set("data data base") == {"data", "base"}

    def test_token_counts_keeps_multiplicity(self):
        counts = token_counts("data data base")
        assert counts["data"] == 2
        assert counts["base"] == 1


class TestSplitEntitySet:
    def test_splits_and_normalises(self):
        names = split_entity_set("T Brinkhoff, H Kriegel,  B Seeger")
        assert names == ["t brinkhoff", "h kriegel", "b seeger"]

    def test_drops_empty_components(self):
        assert split_entity_set("A Smith,, ,B Jones") == ["a smith", "b jones"]

    def test_none(self):
        assert split_entity_set(None) == []


class TestAbbreviation:
    def test_multi_token(self):
        assert abbreviation("Very Large Data Bases") == "vldb"

    def test_single_token_returned_as_is(self):
        assert abbreviation("SIGMOD") == "sigmod"

    def test_empty(self):
        assert abbreviation("") == ""


class TestIdfWeights:
    def test_rare_tokens_weigh_more(self):
        documents = ["common word alpha", "common word beta", "common word gamma"]
        weights = idf_weights(documents)
        assert weights["alpha"] > weights["common"]

    def test_empty_corpus(self):
        assert idf_weights([]) == {}

    def test_table_is_keyed_in_sorted_order(self):
        # Set order follows the per-process hash seed; a saved table must not.
        weights = idf_weights(["zeta alpha mu", "beta omega alpha", "kappa delta"])
        assert list(weights) == sorted(weights)

    def test_weights_positive(self):
        weights = idf_weights(["a b", "b c"])
        assert all(value > 0 for value in weights.values())
        assert math.isfinite(sum(weights.values()))
