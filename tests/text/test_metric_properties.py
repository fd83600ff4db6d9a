"""Property-based tests (hypothesis) for the basic-metric kernels.

The invariants are checked on the kernels that ship, scored through
:func:`metric_oracle.kernel_columns` on every attribute type that emits the
metric: every metric is bounded in [0, 1], symmetric similarities are
symmetric, identity scores 1.0 (similarities) or 0.0 (differences), every
metric follows the missing-value policy, and the char kernel's Levenshtein
distance is symmetric, zero on identity and satisfies the triangle inequality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.schema import Attribute, AttributeType
from repro.features.metric_registry import SIMILARITY, metrics_for_attribute
from repro.text.batch.chars import batched_char_trio

from metric_oracle import kernel_columns

# Text strategy: realistic attribute values including punctuation and spaces.
text_values = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters=" ,.-"),
    max_size=40,
)

ATTRIBUTES = [Attribute(attr_type.value, attr_type) for attr_type in AttributeType]
CONTEXT = {"idf": None}

SYMMETRIC_SIMILARITIES = {"edit", "jaccard", "overlap", "lcs", "numeric_similarity"}
DIFFERENCES_ZERO_ON_IDENTITY = {
    "non_substring", "non_prefix", "diff_cardinality", "distinct_entity", "diff_key_token",
}
#: Emitted metric name -> its kind, over every attribute type.
EMITTED_KINDS = {
    spec.metric: spec.kind for attribute in ATTRIBUTES for spec in metrics_for_attribute(attribute)
}

#: Pairs with a missing side: both, right only, left only, and blank against
#: empty and against a value (blanks normalise to missing). ``"1998"`` is a
#: value for the string metrics and the numeric ones alike.
MISSING_LEFTS = [None, "1998", None, "", "  "]
MISSING_RIGHTS = [None, None, "1998", "  ", "1998"]


def emitted_columns(lefts, rights, metrics=None):
    """Qualified name -> kernel column, for every emitted metric in ``metrics``.

    ``metrics=None`` keeps every emitted metric; a named metric no attribute
    type emits fails here rather than leaving its invariant unchecked.
    """
    columns = {}
    for attribute in ATTRIBUTES:
        for metric, column in kernel_columns(attribute, lefts, rights, CONTEXT).items():
            if metrics is None or metric in metrics:
                columns[f"{attribute.name}.{metric}"] = column
    if metrics is not None:
        assert {name.split(".")[1] for name in columns} == metrics
    return columns


def levenshtein(lefts, rights):
    """The char kernel's Levenshtein distances of ``zip(lefts, rights)``."""
    def codes(strings):
        return [np.frombuffer(string.encode("utf-32-le"), dtype=np.int32) for string in strings]

    return batched_char_trio(codes(lefts), codes(rights))[0]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(left=text_values, right=text_values)
def test_metrics_bounded(left, right):
    for name, column in emitted_columns([left], [right]).items():
        assert 0.0 <= column[0] <= 1.0, f"{name} out of range for {left!r}/{right!r}"


@settings(max_examples=60, deadline=None, derandomize=True)
@given(left=text_values, right=text_values)
def test_symmetric_similarities(left, right):
    for name, column in emitted_columns([left, right], [right, left], SYMMETRIC_SIMILARITIES).items():
        assert column[0] == column[1], name


@settings(max_examples=60, deadline=None, derandomize=True)
@given(value=text_values)
def test_similarity_identity(value):
    for name, column in emitted_columns([value], [value], SYMMETRIC_SIMILARITIES).items():
        assert column[0] == 1.0, name


@settings(max_examples=60, deadline=None, derandomize=True)
@given(value=text_values)
def test_difference_identity_is_zero(value):
    for name, column in emitted_columns([value], [value], DIFFERENCES_ZERO_ON_IDENTITY).items():
        assert column[0] == 0.0, name


@pytest.mark.parametrize("metric", sorted(EMITTED_KINDS))
def test_missing_value_policy(metric):
    """Similarities score 1.0 when both sides are missing and 0.0 when one is;
    a missing side carries no difference evidence, so differences score 0.0."""
    if EMITTED_KINDS[metric] == SIMILARITY:
        expected = [1.0, 0.0, 0.0, 1.0, 0.0]
    else:
        expected = [0.0] * len(MISSING_LEFTS)
    for name, column in emitted_columns(MISSING_LEFTS, MISSING_RIGHTS, {metric}).items():
        assert column.tolist() == expected, name


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=st.text(max_size=12), b=st.text(max_size=12), c=st.text(max_size=12))
def test_levenshtein_triangle_inequality(a, b, c):
    ab, bc, ac = levenshtein([a, b, a], [b, c, c])
    assert ac <= ab + bc


@settings(max_examples=40, deadline=None, derandomize=True)
@given(a=st.text(max_size=15), b=st.text(max_size=15))
def test_levenshtein_symmetry_and_identity(a, b):
    ab, ba, aa = levenshtein([a, b, a], [b, a, a])
    assert ab == ba
    assert aa == 0
