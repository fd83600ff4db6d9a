"""Batched metric kernels vs the scalar oracle: bit-exact parity.

Every registry metric's kernel is compared column-for-column against its
scalar definition in ``tests/metric_oracle.py`` — the comparison is
``np.array_equal`` on the float bits, never an approximate one — over a pool
of adversarial values (``None``, empties, whitespace-only, unicode,
separators, numeric-looking strings, strings long enough to leave the int8
DP cells) and over hypothesis-drawn pairs.  The char kernels additionally
run with a tiny cell budget to force their fallback branches, which must
select identical matches, and the Monge-Elkan exact-token short-circuit is
pinned against a full-scan reference.  The char trio's two kernels — the
word kernel for calls with enough right strings that fit one ``uint64``
word, the DP for the rest — are each held to the oracle and to one another
on batches either side of the row threshold and of the one-word length, and
the word kernel must beat the DP on a title-sized batch.
"""

from __future__ import annotations

import contextlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.text.batch.chars as chars
from repro.data.schema import Attribute, AttributeType
from repro.features.metric_registry import metrics_for_attribute
from repro.text.batch.chars import batched_char_trio
from repro.text.tokenize import idf_weights, normalize, tokenize

from metric_oracle import (
    jaro_winkler_similarity,
    kernel_columns,
    lcs_length,
    levenshtein_distance,
    monge_elkan_similarity,
    oracle_function,
)

#: Values chosen to hit every edge branch: missing, empty-after-normalise,
#: single chars, unicode, entity separators, numeric-looking text, repeated
#: tokens, and strings past the 126-char int8 DP-cell boundary.
ADVERSARIAL = [
    None, "", " ", "  ,  ", "a", "A", "aa", "ab", "ba", "b" * 130, "ab" * 100,
    "léo ève ünïcode", "the the the", "one two three four five",
    "Smith, J, Doe, A", "J Smith", "smith j", "1998", "12.5", "nan", "inf",
    "-3", "0", "a,b,c", ",,,", "x" * 126, "y" * 127, "prefix match", "prefix",
    "AB", "A.B.", "VLDB", "Very Large Data Bases", "mixed 123 tokens",
    "deduplication of bibliographic records", "bibliographic record dedup",
]

ATTRIBUTES = [
    Attribute("text", AttributeType.TEXT),
    Attribute("entity_name", AttributeType.ENTITY_NAME),
    Attribute("entity_set", AttributeType.ENTITY_SET),
    Attribute("numeric", AttributeType.NUMERIC),
    Attribute("categorical", AttributeType.CATEGORICAL),
]

CONTEXT = {"idf": idf_weights(list(ADVERSARIAL))}


def assert_parity(attribute, lefts, rights, context):
    columns = kernel_columns(attribute, lefts, rights, context)
    for spec in metrics_for_attribute(attribute):
        function = oracle_function(attribute, spec.metric)
        scalar = np.array([function(left, right, context) for left, right in zip(lefts, rights)])
        assert np.array_equal(columns[spec.metric], scalar), spec.name


@pytest.mark.parametrize("attribute", ATTRIBUTES, ids=lambda a: a.name)
def test_adversarial_cross_product_parity(attribute):
    """Full cross product of the adversarial pool, every metric, bit for bit."""
    lefts, rights = zip(*[(a, b) for a in ADVERSARIAL for b in ADVERSARIAL])
    assert_parity(attribute, lefts, rights, CONTEXT)


text_values = st.one_of(
    st.none(),
    st.text(
        alphabet=st.characters(
            whitelist_categories=("Ll", "Lu", "Nd"),
            whitelist_characters=" ,.-",
        ),
        max_size=48,
    ),
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(pairs=st.lists(st.tuples(text_values, text_values), min_size=1, max_size=32))
@pytest.mark.parametrize("attribute", ATTRIBUTES, ids=lambda a: a.name)
def test_property_parity(attribute, pairs):
    """Hypothesis-drawn batches stay bit-identical for every registry metric."""
    lefts, rights = zip(*pairs)
    assert_parity(attribute, lefts, rights, CONTEXT)


def codes_of(string):
    return np.frombuffer(string.encode("utf-32-le"), dtype=np.int32).copy()


@contextlib.contextmanager
def word_kernel_rows():
    """Row counts of the slices the word kernel scores inside the block."""
    rows = []
    original = chars._word_trio_slice

    def spy(left, *rest):
        rows.append(left.shape[0])
        return original(left, *rest)

    chars._word_trio_slice = spy
    try:
        yield rows
    finally:
        chars._word_trio_slice = original


def char_trio(pairs):
    """The trio of ``pairs`` (already normalised strings) in one call."""
    return batched_char_trio([codes_of(a) for a, _ in pairs], [codes_of(b) for _, b in pairs])


def assert_trio_parity(pairs):
    """One call over ``pairs`` ≡ the oracle ≡ each pair scored alone (the DP)."""
    batched = char_trio(pairs)
    oracle = (
        [levenshtein_distance(a, b) for a, b in pairs],
        [lcs_length(a, b) for a, b in pairs],
        [jaro_winkler_similarity(a, b) for a, b in pairs],
    )
    alone = [char_trio([pair]) for pair in pairs]
    for column, (got, expected) in enumerate(zip(batched, oracle)):
        assert np.array_equal(got, expected)
        assert np.array_equal(got, [scores[column][0] for scores in alone])


def one_word_rows(pairs):
    return sum(len(right) <= chars.WORD_BITS for _, right in pairs)


def test_char_trio_budget_fallback_parity(monkeypatch):
    """A tiny cell budget forces the fallback branches; matches are identical.

    At a budget of one cell every slice holds one row and the word kernel
    builds its match words one left position at a time.
    """
    values = [normalize(value) if value else "" for value in ADVERSARIAL]
    pairs = [(a, b) for a in values for b in values if a and b]
    lefts = [codes_of(a) for a, _ in pairs]
    rights = [codes_of(b) for _, b in pairs]
    with word_kernel_rows() as word_rows:
        expected = batched_char_trio(lefts, rights)
        monkeypatch.setattr(chars, "CELL_BUDGET", 1)
        constrained = batched_char_trio(lefts, rights)
    fitting = one_word_rows(pairs)
    assert word_rows == [fitting] + [1] * fitting
    for full, tiny in zip(expected, constrained):
        assert np.array_equal(full, tiny)
    for (a, b), lev, lcs, jw in zip(pairs, *constrained):
        assert lev == levenshtein_distance(a, b)
        assert lcs == lcs_length(a, b)
        assert jw == jaro_winkler_similarity(a, b)


#: Few distinct characters, so windows hold several candidates and matches
#: cross; two non-BMP code points; lengths drawn evenly up to 80, so right
#: strings land either side of one word.
trio_strings = st.integers(1, 80).flatmap(
    lambda size: st.text(
        alphabet=st.sampled_from(list("abcé ") + ["\U0001d538", "\U0001f600"]),
        min_size=size,
        max_size=size,
    )
).map(normalize).filter(bool)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pairs=st.lists(
    st.tuples(trio_strings, trio_strings), min_size=1, max_size=chars.WORD_MIN_ROWS - 1
))
def test_char_trio_below_word_threshold(pairs):
    """Calls too small for the word kernel stay on the DP, bit for bit."""
    with word_kernel_rows() as word_rows:
        assert_trio_parity(pairs)
    assert word_rows == []


@settings(max_examples=40, deadline=None, derandomize=True)
@given(pairs=st.lists(
    st.tuples(trio_strings, trio_strings),
    min_size=chars.WORD_MIN_ROWS,
    max_size=4 * chars.WORD_MIN_ROWS,
))
def test_char_trio_above_word_threshold(pairs):
    """Calls with enough one-word rows run them on the word kernel, bit for bit.

    Every pair is also scored alone, and a one-pair call never reaches it.
    """
    with word_kernel_rows() as word_rows:
        assert_trio_parity(pairs)
    fitting = one_word_rows(pairs)
    assert word_rows == ([fitting] if fitting >= chars.WORD_MIN_ROWS else [])


#: Right lengths 63, 64 and 65, lefts past one word, non-BMP code points,
#: single characters and runs of one character.
BOUNDARY_VALUES = [
    "a", "b", "\U0001f600", "ab" * 31 + "a", "ab" * 32, "ab" * 32 + "b", "ba" * 40,
    "a" * 64, "a" * 65, "\U0001f600a" * 32, "\U0001d538" * 63 + "b", "b" + "a" * 100,
    "the quick brown fox jumps over the lazy dog and keeps on running",
]


def test_char_trio_word_boundaries():
    """Every boundary pair scores the same on the word kernel, the DP and the oracle."""
    pairs = [(a, b) for a in BOUNDARY_VALUES for b in BOUNDARY_VALUES]
    with word_kernel_rows() as word_rows:
        assert_trio_parity(pairs)
    assert word_rows == [one_word_rows(pairs)]


def test_word_kernel_beats_the_dp_on_titles(monkeypatch):
    """Best of 5 on 256 title-length rows: the word kernel reads ~3x the DP."""
    rng = np.random.default_rng(0)
    words = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), size=n))
             for n in rng.integers(2, 10, size=400)]

    def title(limit):
        text = " ".join(rng.choice(words, size=12))
        return text[: rng.integers(limit // 2, limit + 1)].strip()

    lefts = [codes_of(title(96)) for _ in range(256)]
    rights = [codes_of(title(chars.WORD_BITS)) for _ in range(256)]

    def best_of_5():
        runs = []
        for _ in range(5):
            start = time.perf_counter()
            batched_char_trio(lefts, rights)
            runs.append(time.perf_counter() - start)
        return min(runs)

    word = best_of_5()
    monkeypatch.setattr(chars, "WORD_MIN_ROWS", len(lefts) + 1)
    dp = best_of_5()
    assert dp / word > 1.5


# --------------------------------------------------- Monge-Elkan short-circuit
def full_scan_monge(left, right):
    """The pre-short-circuit Monge-Elkan: always scans every right token."""
    left_norm, right_norm = normalize(left), normalize(right)
    if not left_norm and not right_norm:
        return 1.0
    if not left_norm or not right_norm:
        return 0.0
    left_tokens, right_tokens = tokenize(left), tokenize(right)
    if not left_tokens and not right_tokens:
        return 1.0
    if not left_tokens or not right_tokens:
        return 0.0
    total = 0.0
    for left_token in left_tokens:
        total += max(
            jaro_winkler_similarity(left_token, right_token)
            for right_token in right_tokens
        )
    return total / len(left_tokens)


@settings(max_examples=120, deadline=None, derandomize=True)
@given(left=text_values, right=text_values)
def test_monge_elkan_short_circuit_regression(left, right):
    """The exact-token short-circuit changes no score by a single bit."""
    assert monge_elkan_similarity(left, right) == full_scan_monge(left, right)


def test_monge_elkan_custom_inner_keeps_full_scan():
    """Custom inners make no max-at-1.0 promise, so identical tokens still scan."""
    calls = []

    def inner(left_token, right_token):
        calls.append((left_token, right_token))
        return 0.25

    score = monge_elkan_similarity("alpha beta", "alpha beta", inner=inner)
    # Every (left, right) token combination was evaluated — no short-circuit —
    # and the score reflects the inner function, not an assumed 1.0.
    assert len(calls) == 4
    assert score == 0.25
