"""Behavioural tests of the corpus index behind the batched kernels.

The index is a pure cache: every test here checks either that caching
*works* (values interned once, memoised scores never recomputed, incremental
structures consistent with their from-scratch definitions) or that its
lifecycle (reset-on-cap, pickling, idf epochs) never changes a score.
"""

from __future__ import annotations

import pickle

import numpy as np

from repro.data.schema import Attribute, AttributeType
from repro.features.metric_registry import metrics_for_attribute
from repro.text.batch.chars import batched_jaro_winkler
from repro.text.batch.interner import CorpusIndex
from repro.text.tokenize import idf_weights

VALUES = [
    "deduplication of bibliographic records", "bibliographic record dedup",
    None, "", "J Smith, A Doe", "A Doe", "VLDB", "very large data bases",
    "entity resolution at scale", "scaled entity resolution",
]


def text_view(index=None):
    index = index if index is not None else CorpusIndex()
    return index.view("title", ",")


def score_all(view, lefts, rights, context=None):
    context = context if context is not None else {"idf": None}
    left_ids = view.entry_ids(list(lefts))
    right_ids = view.entry_ids(list(rights))
    dedup = view.pair_dedup(left_ids, right_ids)
    attribute = Attribute("title", AttributeType.TEXT)
    return {
        spec.metric: view.memoized_scores(
            spec.metric, spec.batch_function, dedup, context
        )
        for spec in metrics_for_attribute(attribute)
    }


class TestInterning:
    def test_distinct_values_interned_once(self):
        view = text_view()
        first = view.entry_ids(VALUES)
        again = view.entry_ids(VALUES)
        assert np.array_equal(first, again)
        assert view._index.entry_count == len(VALUES)

    def test_duplicate_values_share_entries(self):
        view = text_view()
        ids = view.entry_ids(["a", "b", "a", "b", "a"])
        assert ids[0] == ids[2] == ids[4]
        assert ids[1] == ids[3]
        assert view._index.entry_count == 2

    def test_representations_are_lazy(self):
        view = text_view()
        view.entry_ids(VALUES)
        # Interning alone builds no tokenisations; the ensure_* builders do.
        assert view.token_set_columns()[0].size == 0
        view.ensure_tokens()
        built = list(view.token_set_columns()[0])
        assert len(built) == len(VALUES)
        # And ensure_* is idempotent — a second call rebuilds and appends nothing.
        view.ensure_tokens()
        assert len(view._token_set_arrays) == len(VALUES)
        assert all(again is first for again, first in zip(view._token_set_arrays, built))


class TestMemoisation:
    def test_memoized_scores_run_each_pair_once(self):
        view = text_view()
        calls = []

        def kernel(view, left_ids, right_ids, context):
            calls.append(left_ids.size)
            return np.arange(left_ids.size, dtype=float)

        lefts = VALUES[:4]
        rights = VALUES[4:8]
        left_ids = view.entry_ids(lefts)
        right_ids = view.entry_ids(rights)
        dedup = view.pair_dedup(left_ids, right_ids)
        first = view.memoized_scores("probe", kernel, dedup, {})
        second = view.memoized_scores("probe", kernel, dedup, {})
        assert np.array_equal(first, second)
        assert calls == [4]  # the second call resolved entirely from the store

    def test_stash_scores_accepts_duplicate_pairs(self):
        view = text_view()
        left_ids = view.entry_ids(["a", "b", "a"])
        right_ids = view.entry_ids(["x", "y", "x"])
        dedup = view.pair_dedup(left_ids, right_ids)
        # Settle the idf epoch first: the first memoized call wipes every
        # store (the epoch sentinel changes), which would discard the stash.
        view.memoized_scores(
            "warm", lambda v, l, r, c: np.zeros(l.size), dedup, {}
        )
        # Duplicate (a, x) rows must collapse to one interned pair id.
        view.stash_scores("probe", left_ids, right_ids, np.array([0.1, 0.2, 0.1]))

        def kernel(*args):  # pragma: no cover - must not run
            raise AssertionError("stashed scores should satisfy the column")

        scores = view.memoized_scores("probe", kernel, dedup, {})
        assert np.array_equal(scores, np.array([0.1, 0.2, 0.1]))

    def test_trio_companions_never_run_a_kernel(self):
        view = text_view()
        attribute = Attribute("title", AttributeType.TEXT)
        specs = {spec.metric: spec for spec in metrics_for_attribute(attribute)}
        left_ids = view.entry_ids(VALUES)
        right_ids = view.entry_ids(list(reversed(VALUES)))
        dedup = view.pair_dedup(left_ids, right_ids)
        view.memoized_scores(
            "jaccard", specs["jaccard"].batch_function, dedup, {"idf": None}
        )
        view.memoized_scores(
            "edit", specs["edit"].batch_function, dedup, {"idf": None}
        )

        def kernel(*args):  # pragma: no cover - must not run
            raise AssertionError("companion columns must come from the stash")

        # jaccard's kernel stashes its token-set companion, edit's kernel
        # stashes the char-DP companions — none may run a kernel again.
        for companion in ("overlap", "lcs", "jaro_winkler"):
            view.memoized_scores(companion, kernel, dedup, {"idf": None})


class TestTokenPairJwCache:
    def test_hits_are_bit_identical_to_recompute(self):
        index = CorpusIndex()
        tokens = ["smith", "smyth", "doe", "dough", "alpha"]
        ids = index.strings.intern_sequence(tokens)
        left = np.repeat(ids, ids.size)
        right = np.tile(ids, ids.size)
        keys = (left.astype(np.int64) << 32) | right
        order = np.argsort(keys)
        keys, left, right = keys[order], left[order], right[order]
        cold = index.token_pair_jw(keys, left, right)
        assert index._token_pair_jw_keys.size == keys.size
        warm = index.token_pair_jw(keys, left, right)
        assert np.array_equal(cold, warm)
        column = index.token_code_column()
        reference = batched_jaro_winkler(column[left], column[right])
        assert np.array_equal(cold, reference)

    def test_partial_hits_merge_new_pairs(self):
        index = CorpusIndex()
        ids = index.strings.intern_sequence(["aa", "ab", "ac"])
        first_keys = np.array([(ids[0] << 32) | ids[1]], dtype=np.int64)
        index.token_pair_jw(first_keys, ids[:1], ids[1:2])
        mixed_keys = (ids[:2].astype(np.int64) << 32) | ids[1:3]
        scores = index.token_pair_jw(mixed_keys, ids[:2], ids[1:3])
        column = index.token_code_column()
        reference = batched_jaro_winkler(column[ids[:2]], column[ids[1:3]])
        assert np.array_equal(scores, reference)
        # Cache is the union, still sorted.
        assert index._token_pair_jw_keys.size == 2
        assert np.all(np.diff(index._token_pair_jw_keys) > 0)


class TestLexRank:
    def test_incremental_merge_matches_sorted(self):
        index = CorpusIndex()
        batches = [
            ["pear", "apple", "fig"],
            ["banana", "quince", "apricot", "zucchini"],
            ["aa", "zz", "mm"],
        ]
        seen: list[str] = []
        for batch in batches:
            index.strings.intern_sequence(batch)
            seen.extend(batch)
            ranks = index.lex_rank_column()
            expected = {string: rank for rank, string in enumerate(sorted(seen))}
            for string, rank in zip(seen, ranks):
                assert rank == expected[string], string


class TestLifecycle:
    def test_reset_on_cap_between_batches(self):
        index = CorpusIndex(max_entries=4)
        view = index.view("title")
        scores = score_all(view, VALUES, list(reversed(VALUES)))
        assert index.entry_count > 4
        assert index.maybe_reset() is True
        assert index.entry_count == 0
        # Rebuilt caches produce the same bits.
        fresh_view = index.view("title")
        rebuilt = score_all(fresh_view, VALUES, list(reversed(VALUES)))
        for metric, column in scores.items():
            assert np.array_equal(column, rebuilt[metric]), metric

    def test_pickle_round_trip(self):
        index = CorpusIndex()
        view = index.view("title")
        before = score_all(view, VALUES, list(reversed(VALUES)))
        clone = pickle.loads(pickle.dumps(index))
        assert clone.entry_count == index.entry_count
        # The clone has a working lock and keeps scoring identically —
        # including interning *new* values on top of the restored state.
        clone_view = clone.view("title")
        after = score_all(clone_view, VALUES + ["brand new"], list(reversed(VALUES)) + ["brand new"])
        for metric, column in before.items():
            assert np.array_equal(column, after[metric][: len(VALUES)]), metric

    def test_idf_epoch_invalidates_tfidf_rows(self):
        view = text_view()
        lefts = VALUES
        rights = list(reversed(VALUES))
        uninformed = score_all(view, lefts, rights, {"idf": None})["cosine_tfidf"]
        weighted_idf = idf_weights([value for value in VALUES if value])
        weighted = score_all(view, lefts, rights, {"idf": weighted_idf})["cosine_tfidf"]
        # The informed table must actually change some score (otherwise this
        # test checks nothing) and flipping back must restore the old bits.
        assert not np.array_equal(uninformed, weighted)
        again = score_all(view, lefts, rights, {"idf": None})["cosine_tfidf"]
        assert np.array_equal(uninformed, again)
