"""Scalar reference definitions of the basic metrics (Section 5.1, Figure 5).

The metrics the registry emits ship only as the batched kernels of
:mod:`repro.text.batch.kernels`.  This module is their oracle: one plain
per-pair Python function per emitted metric, which the parity suites compare
against the kernels with ``np.array_equal`` — bit for bit, never
approximately.  A kernel change that moves any score by one ulp fails there.

Similarity metrics focus on the *common* part of two values; they are
symmetric, return a float in ``[0, 1]`` (1 means identical) and treat
``None``/empty values conservatively: both missing scores 1.0, exactly one
missing scores 0.0.  Difference metrics capture what is *different* and are
better indicators of inequivalence; a missing side carries no evidence of
difference, so it scores 0.0.

:func:`oracle_function` adapts a definition to the
:data:`~repro.features.metric_registry.MetricFunction` form a hand-built
:class:`~repro.features.metric_registry.MetricSpec` carries, and
:func:`oracle_specs` builds the registry's metric list in that form, so a
vectoriser can score a schema through the scalar loop instead of the kernels.
:func:`kernel_columns` scores the kernels of one attribute on a fresh corpus
index; the parity and property suites share it.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.data.schema import Attribute, Schema
from repro.features.metric_registry import MetricFunction, MetricSpec, metrics_for_attribute
from repro.text.batch.interner import CorpusIndex
from repro.text.tokenize import (
    _to_float,
    abbreviation,
    normalize,
    split_entity_set,
    token_counts,
    token_set,
    tokenize,
)


# ----------------------------------------------------------------- similarity
def _missing(left: str | None, right: str | None) -> float | None:
    """Shared missing-value handling; returns a score or ``None`` to continue."""
    left_norm = normalize(left)
    right_norm = normalize(right)
    if not left_norm and not right_norm:
        return 1.0
    if not left_norm or not right_norm:
        return 0.0
    return None


def exact_match(left: str | None, right: str | None) -> float:
    """1.0 when the normalised values are identical, else 0.0."""
    score = _missing(left, right)
    if score is not None:
        return score
    return 1.0 if normalize(left) == normalize(right) else 0.0


def levenshtein_distance(left: str, right: str) -> int:
    """Plain Levenshtein (edit) distance between two strings."""
    if left == right:
        return 0
    if not left:
        return len(right)
    if not right:
        return len(left)
    previous = list(range(len(right) + 1))
    for i, left_char in enumerate(left, start=1):
        current = [i]
        for j, right_char in enumerate(right, start=1):
            substitution_cost = 0 if left_char == right_char else 1
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + substitution_cost)
            )
        previous = current
    return previous[-1]


def edit_similarity(left: str | None, right: str | None) -> float:
    """Normalised edit similarity: ``1 - distance / max(len)``."""
    score = _missing(left, right)
    if score is not None:
        return score
    left_norm, right_norm = normalize(left), normalize(right)
    distance = levenshtein_distance(left_norm, right_norm)
    return 1.0 - distance / max(len(left_norm), len(right_norm))


def jaro_similarity(left: str | None, right: str | None) -> float:
    """Jaro similarity between the normalised values."""
    score = _missing(left, right)
    if score is not None:
        return score
    s1, s2 = normalize(left), normalize(right)
    if s1 == s2:
        return 1.0
    match_window = max(len(s1), len(s2)) // 2 - 1
    match_window = max(match_window, 0)
    s1_matches = [False] * len(s1)
    s2_matches = [False] * len(s2)
    matches = 0
    for i, char in enumerate(s1):
        start = max(0, i - match_window)
        end = min(i + match_window + 1, len(s2))
        for j in range(start, end):
            if s2_matches[j] or s2[j] != char:
                continue
            s1_matches[i] = True
            s2_matches[j] = True
            matches += 1
            break
    if matches == 0:
        return 0.0
    transpositions = 0
    k = 0
    for i, matched in enumerate(s1_matches):
        if not matched:
            continue
        while not s2_matches[k]:
            k += 1
        if s1[i] != s2[k]:
            transpositions += 1
        k += 1
    transpositions //= 2
    return (
        matches / len(s1) + matches / len(s2) + (matches - transpositions) / matches
    ) / 3.0


def jaro_winkler_similarity(left: str | None, right: str | None, prefix_weight: float = 0.1) -> float:
    """Jaro-Winkler similarity (Jaro boosted by a common prefix of up to 4 chars)."""
    base = jaro_similarity(left, right)
    if base in (0.0, 1.0):
        return base
    s1, s2 = normalize(left), normalize(right)
    prefix = 0
    for left_char, right_char in zip(s1[:4], s2[:4]):
        if left_char != right_char:
            break
        prefix += 1
    return base + prefix * prefix_weight * (1.0 - base)


def lcs_length(left: Sequence, right: Sequence) -> int:
    """Length of the longest common subsequence of two sequences."""
    if not left or not right:
        return 0
    previous = [0] * (len(right) + 1)
    for left_item in left:
        current = [0]
        for j, right_item in enumerate(right, start=1):
            if left_item == right_item:
                current.append(previous[j - 1] + 1)
            else:
                current.append(max(previous[j], current[j - 1]))
        previous = current
    return previous[-1]


def lcs_similarity(left: str | None, right: str | None) -> float:
    """Longest-common-subsequence similarity on characters, normalised by max length."""
    score = _missing(left, right)
    if score is not None:
        return score
    left_norm, right_norm = normalize(left), normalize(right)
    return lcs_length(left_norm, right_norm) / max(len(left_norm), len(right_norm))


def jaccard_similarity(left: str | None, right: str | None) -> float:
    """Token-set Jaccard similarity."""
    score = _missing(left, right)
    if score is not None:
        return score
    left_tokens, right_tokens = token_set(left), token_set(right)
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0
    return len(left_tokens & right_tokens) / len(left_tokens | right_tokens)


def overlap_coefficient(left: str | None, right: str | None) -> float:
    """Token overlap coefficient: shared tokens over the smaller token set."""
    score = _missing(left, right)
    if score is not None:
        return score
    left_tokens, right_tokens = token_set(left), token_set(right)
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0
    return len(left_tokens & right_tokens) / min(len(left_tokens), len(right_tokens))


def monge_elkan_similarity(
    left: str | None,
    right: str | None,
    inner: Callable[[str, str], float] = jaro_winkler_similarity,
) -> float:
    """Monge-Elkan similarity: mean best inner-similarity of each left token."""
    score = _missing(left, right)
    if score is not None:
        return score
    left_tokens, right_tokens = tokenize(left), tokenize(right)
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0
    # An identical token is a guaranteed maximum for the default inner:
    # jaro_winkler_similarity(t, t) is exactly 1.0 and every value is <= 1.0,
    # so the scan can be skipped without changing the score by a single bit.
    # Custom inner functions make no such promise and keep the full scan.
    exact_is_max = inner is jaro_winkler_similarity
    right_token_set = set(right_tokens) if exact_is_max else ()
    total = 0.0
    for left_token in left_tokens:
        if exact_is_max and left_token in right_token_set:
            total += 1.0
            continue
        total += max(inner(left_token, right_token) for right_token in right_tokens)
    return total / len(left_tokens)


def cosine_tfidf_similarity(
    left: str | None, right: str | None, idf: dict[str, float] | None = None
) -> float:
    """TF-IDF (or plain TF when ``idf`` is ``None``) cosine similarity on tokens."""
    score = _missing(left, right)
    if score is not None:
        return score
    left_counts, right_counts = token_counts(left), token_counts(right)
    if not left_counts and not right_counts:
        return 1.0
    if not left_counts or not right_counts:
        return 0.0
    # Sorted vocabulary: set order varies with the per-process hash seed, and
    # float summation is order-sensitive, so an unsorted walk makes scores
    # differ across processes by 1 ulp — breaking bit-exact persistence.
    vocabulary = sorted(set(left_counts) | set(right_counts))
    left_vector = np.array(
        [left_counts.get(token, 0) * (idf.get(token, 1.0) if idf else 1.0) for token in vocabulary]
    , dtype=float)
    right_vector = np.array(
        [right_counts.get(token, 0) * (idf.get(token, 1.0) if idf else 1.0) for token in vocabulary]
    , dtype=float)
    denominator = np.linalg.norm(left_vector) * np.linalg.norm(right_vector)
    if denominator == 0.0:
        return 0.0
    # Identical vectors can still land at 1.0 + 1 ulp; clamp to the contract.
    return float(min(1.0, np.dot(left_vector, right_vector) / denominator))


def entity_jaccard_similarity(
    left: str | None, right: str | None, separator: str = ","
) -> float:
    """Jaccard similarity between two entity sets (e.g. author lists)."""
    score = _missing(left, right)
    if score is not None:
        return score
    left_entities = set(split_entity_set(left, separator))
    right_entities = set(split_entity_set(right, separator))
    if not left_entities and not right_entities:
        return 1.0
    if not left_entities or not right_entities:
        return 0.0
    return len(left_entities & right_entities) / len(left_entities | right_entities)


def numeric_similarity(left: float | str | None, right: float | str | None) -> float:
    """Relative numeric similarity: ``1 - |a - b| / max(|a|, |b|)`` clipped to [0, 1]."""
    left_value = _to_float(left)
    right_value = _to_float(right)
    if left_value is None and right_value is None:
        return 1.0
    if left_value is None or right_value is None:
        return 0.0
    if left_value == right_value:
        return 1.0
    denominator = max(abs(left_value), abs(right_value))
    if denominator == 0.0:
        return 1.0
    return float(np.clip(1.0 - abs(left_value - right_value) / denominator, 0.0, 1.0))


# ----------------------------------------------------------------- difference
def _one_sided_missing(left: str | None, right: str | None) -> float | None:
    """Missing-value policy for difference metrics: a missing side scores 0.0."""
    if not normalize(left) or not normalize(right):
        return 0.0
    return None


def non_substring(left: str | None, right: str | None) -> float:
    """1.0 when neither normalised value is a substring of the other."""
    score = _one_sided_missing(left, right)
    if score is not None:
        return score
    left_norm, right_norm = normalize(left), normalize(right)
    return 0.0 if (left_norm in right_norm or right_norm in left_norm) else 1.0


def non_prefix(left: str | None, right: str | None) -> float:
    """1.0 when neither normalised value is a prefix of the other."""
    score = _one_sided_missing(left, right)
    if score is not None:
        return score
    left_norm, right_norm = normalize(left), normalize(right)
    return 0.0 if (left_norm.startswith(right_norm) or right_norm.startswith(left_norm)) else 1.0


def _abbr_pair(left: str | None, right: str | None) -> tuple[str, str, str, str]:
    """Return the normalised values and their first-letter abbreviations."""
    return (normalize(left), normalize(right), abbreviation(left), abbreviation(right))


def abbr_non_substring(left: str | None, right: str | None) -> float:
    """1.0 when neither abbreviation is a substring of the other value (or abbreviation)."""
    score = _one_sided_missing(left, right)
    if score is not None:
        return score
    left_norm, right_norm, left_abbr, right_abbr = _abbr_pair(left, right)
    compact_left = left_norm.replace(" ", "")
    compact_right = right_norm.replace(" ", "")
    contained = (
        left_abbr in compact_right
        or right_abbr in compact_left
        or left_abbr in right_abbr
        or right_abbr in left_abbr
    )
    return 0.0 if contained else 1.0


def abbr_non_prefix(left: str | None, right: str | None) -> float:
    """1.0 when neither abbreviation is a prefix of the other value's abbreviation."""
    score = _one_sided_missing(left, right)
    if score is not None:
        return score
    _, _, left_abbr, right_abbr = _abbr_pair(left, right)
    contained = left_abbr.startswith(right_abbr) or right_abbr.startswith(left_abbr)
    return 0.0 if contained else 1.0


def diff_cardinality(left: str | None, right: str | None, separator: str = ",") -> float:
    """1.0 when the two entity sets contain different numbers of entities."""
    score = _one_sided_missing(left, right)
    if score is not None:
        return score
    left_entities = split_entity_set(left, separator)
    right_entities = split_entity_set(right, separator)
    return 1.0 if len(left_entities) != len(right_entities) else 0.0


def distinct_entity_fraction(left: str | None, right: str | None, separator: str = ",") -> float:
    """Entities present in exactly one set (Example 1), over the union size."""
    score = _one_sided_missing(left, right)
    if score is not None:
        return score
    left_entities = set(split_entity_set(left, separator))
    right_entities = set(split_entity_set(right, separator))
    union = left_entities | right_entities
    if not union:
        return 0.0
    return len(left_entities ^ right_entities) / len(union)


def diff_key_token_fraction(
    left: str | None,
    right: str | None,
    idf: dict[str, float] | None = None,
    idf_threshold: float = 2.0,
) -> float:
    """Discriminating tokens in exactly one text, over the key tokens of the union.

    A token is discriminating when its IDF weight reaches ``idf_threshold``;
    with no IDF table supplied, every token longer than three characters that
    is not all digits is.
    """
    score = _one_sided_missing(left, right)
    if score is not None:
        return score
    left_tokens, right_tokens = token_set(left), token_set(right)

    def _is_key(token: str) -> bool:
        if idf is not None:
            return idf.get(token, idf_threshold + 1.0) >= idf_threshold
        return len(token) > 3 and not token.isdigit()

    key_union = {token for token in (left_tokens | right_tokens) if _is_key(token)}
    if not key_union:
        return 0.0
    key_exclusive = {token for token in (left_tokens ^ right_tokens) if _is_key(token)}
    return len(key_exclusive) / len(key_union)


def numeric_inequality(left: float | str | None, right: float | str | None) -> float:
    """1.0 when the two numeric values differ (the paper's Year example, Eq. 1)."""
    left_value, right_value = _to_float(left), _to_float(right)
    if left_value is None or right_value is None:
        return 0.0
    return 1.0 if left_value != right_value else 0.0


def numeric_difference(left: float | str | None, right: float | str | None) -> float:
    """Relative numeric difference ``|a - b| / max(|a|, |b|)`` clipped to [0, 1]."""
    left_value, right_value = _to_float(left), _to_float(right)
    if left_value is None or right_value is None:
        return 0.0
    denominator = max(abs(left_value), abs(right_value))
    if denominator == 0.0:
        return 0.0
    return float(min(1.0, abs(left_value - right_value) / denominator))


# ------------------------------------------------------------------ adapters
#: Registry metric name -> its scalar definition.
ORACLE: dict[str, Callable[..., float]] = {
    "exact": exact_match,
    "edit": edit_similarity,
    "jaro_winkler": jaro_winkler_similarity,
    "lcs": lcs_similarity,
    "jaccard": jaccard_similarity,
    "overlap": overlap_coefficient,
    "monge_elkan": monge_elkan_similarity,
    "cosine_tfidf": cosine_tfidf_similarity,
    "entity_jaccard": entity_jaccard_similarity,
    "numeric_similarity": numeric_similarity,
    "non_substring": non_substring,
    "non_prefix": non_prefix,
    "abbr_non_substring": abbr_non_substring,
    "abbr_non_prefix": abbr_non_prefix,
    "diff_cardinality": diff_cardinality,
    "distinct_entity": distinct_entity_fraction,
    "diff_key_token": diff_key_token_fraction,
    "numeric_inequality": numeric_inequality,
    "numeric_difference": numeric_difference,
}

#: Definitions that split entity sets with the attribute's separator.
_SEPARATED = frozenset({"entity_jaccard", "diff_cardinality", "distinct_entity"})
#: Definitions that read the vectoriser's IDF table from the metric context.
_IDF_AWARE = frozenset({"cosine_tfidf", "diff_key_token"})


def oracle_function(attribute: Attribute, metric: str) -> MetricFunction:
    """The scalar definition of ``metric`` on ``attribute``, as a ``MetricFunction``."""
    function = ORACLE[metric]
    if metric in _SEPARATED:
        return lambda left, right, context: function(left, right, separator=attribute.separator)
    if metric in _IDF_AWARE:
        return lambda left, right, context: function(left, right, idf=context.get("idf"))
    return lambda left, right, context: function(left, right)


def oracle_specs(schema: Schema) -> list[MetricSpec]:
    """The registry's metrics for ``schema``, as hand-built specs scored by the oracle."""
    return [
        MetricSpec(spec.attribute, spec.metric, spec.kind,
                   function=oracle_function(attribute, spec.metric))
        for attribute in schema
        for spec in metrics_for_attribute(attribute)
    ]


def kernel_columns(
    attribute: Attribute, lefts: Sequence, rights: Sequence, context: dict
) -> dict[str, np.ndarray]:
    """Score every registry metric of ``attribute`` through its kernel.

    Runs on a fresh corpus index, through the same distinct-pair memo the
    vectoriser uses, so companion columns come from the stash as in production.
    """
    view = CorpusIndex().view(attribute.name, attribute.separator)
    left_ids = view.entry_ids(list(lefts))
    right_ids = view.entry_ids(list(rights))
    dedup = view.pair_dedup(left_ids, right_ids)
    return {
        spec.metric: view.memoized_scores(spec.metric, spec.batch_function, dedup, context)
        for spec in metrics_for_attribute(attribute)
    }
