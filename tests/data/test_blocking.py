"""Eager blocking (``Blocker.block``) and its parity with the historical blockers.

The token and sorted-neighbourhood blockers the repo's golden data was built
with are gone from ``src/``; :class:`~repro.blocking.InvertedIndexBlocker`
and :class:`~repro.blocking.SortedWindowBlocker` replaced them.  The
reference-parity classes at the bottom pin the replacements' output bit for
bit to inline, verbatim copies of the historical algorithms, so they can
never drift from what that data was built with.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

from repro.blocking import InvertedIndexBlocker, SortedWindowBlocker
from repro.data.blocking import blocking_recall
from repro.data.generators import GenerationConfig, generate_workload, make_generator
from repro.data.records import Record, Table
from repro.data.schema import Attribute, AttributeType, Schema
from repro.exceptions import ConfigurationError
from repro.text.tokenize import tokenize


@pytest.fixture
def product_tables():
    schema = Schema((Attribute("name", AttributeType.TEXT),))
    left = Table("left", schema)
    right = Table("right", schema)
    names = [
        ("l1", "sony bravia television"),
        ("l2", "panasonic lumix camera"),
        ("l3", "bose quietcomfort headphones"),
    ]
    for record_id, name in names:
        left.add(Record(record_id, {"name": name}))
    right_names = [
        ("r1", "sony bravia tv"),
        ("r2", "lumix camera by panasonic"),
        ("r3", "completely unrelated blender"),
    ]
    for record_id, name in right_names:
        right.add(Record(record_id, {"name": name}))
    return left, right


class TestInvertedIndexBlock:
    def test_shared_token_pairs_found(self, product_tables):
        left, right = product_tables
        blocker = InvertedIndexBlocker(["name"], min_shared=1, max_token_frequency=1.0)
        pairs = blocker.block(left, right)
        assert ("l1", "r1") in pairs
        assert ("l2", "r2") in pairs
        assert ("l3", "r3") not in pairs

    def test_min_shared_filters(self, product_tables):
        left, right = product_tables
        strict = InvertedIndexBlocker(["name"], min_shared=2, max_token_frequency=1.0)
        pairs = strict.block(left, right)
        assert ("l2", "r2") in pairs  # shares "panasonic" and "lumix" and "camera"
        assert ("l1", "r1") in pairs  # shares "sony" and "bravia"

    def test_invalid_configuration(self):
        with pytest.raises(ConfigurationError):
            InvertedIndexBlocker([], min_shared=1)
        with pytest.raises(ConfigurationError):
            InvertedIndexBlocker(["name"], min_shared=0)
        with pytest.raises(ConfigurationError):
            InvertedIndexBlocker(["name"], max_token_frequency=0.0)

    def test_output_deterministically_sorted(self, product_tables):
        left, right = product_tables
        blocker = InvertedIndexBlocker(["name"], min_shared=1, max_token_frequency=1.0)
        pairs = blocker.block(left, right)
        assert isinstance(pairs, list)
        assert pairs == sorted(pairs)
        assert pairs == blocker.block(left, right)

    def test_deterministic_on_generated_workload(self, ds_workload):
        # The candidate order must not depend on set/hash iteration order:
        # repeated runs in the same process (different hash values for fresh
        # string objects) must agree exactly.
        blocker = InvertedIndexBlocker(["title"], min_shared=2, max_token_frequency=0.3)
        first = blocker.block(ds_workload.left_table, ds_workload.right_table)
        second = blocker.block(ds_workload.left_table, ds_workload.right_table)
        assert first == second == sorted(first)


class TestSortedWindowBlock:
    def test_window_pairs_nearby_records(self, product_tables):
        left, right = product_tables
        blocker = SortedWindowBlocker(key=lambda record: record["name"] or "", window=3)
        pairs = blocker.block(left, right)
        assert all(left_id.startswith("l") and right_id.startswith("r") for left_id, right_id in pairs)
        assert len(pairs) > 0

    def test_output_deterministically_sorted(self, product_tables):
        left, right = product_tables
        blocker = SortedWindowBlocker(key=lambda record: record["name"] or "", window=3)
        pairs = blocker.block(left, right)
        assert isinstance(pairs, list)
        assert pairs == sorted(pairs)
        assert pairs == blocker.block(left, right)

    def test_invalid_window(self):
        with pytest.raises(ConfigurationError):
            SortedWindowBlocker(key=lambda record: "", window=0)


class TestBlockingRecall:
    def test_recall(self):
        candidates = [("l1", "r1"), ("l2", "r2")]
        assert blocking_recall(candidates, [("l1", "r1")]) == 1.0
        assert blocking_recall(candidates, [("l1", "r1"), ("l9", "r9")]) == 0.5
        assert blocking_recall(candidates, []) == 1.0

    def test_blocking_on_generated_workload_has_high_recall(self, ds_workload):
        left, right = ds_workload.left_table, ds_workload.right_table
        blocker = InvertedIndexBlocker(["title"], min_shared=2, max_token_frequency=0.3)
        candidates = blocker.block(left, right)
        matches = [pair.pair_id for pair in ds_workload.pairs if pair.ground_truth == 1]
        assert blocking_recall(candidates, matches) > 0.7


# --------------------------------------------------------------------- parity
def _legacy_token_block(attributes, min_shared, max_token_frequency, left_table, right_table):
    """The historical TokenBlocker.block, verbatim (double tokenisation and all)."""

    def record_tokens(record):
        tokens = set()
        for attribute in attributes:
            value = record[attribute]
            if isinstance(value, str):
                tokens.update(tokenize(value))
        return tokens

    def stop_tokens(table):
        counts = defaultdict(int)
        for record in table:
            for token in record_tokens(record):
                counts[token] += 1
        limit = max(1, int(max_token_frequency * len(table)))
        return {token for token, count in counts.items() if count > limit}

    stop = stop_tokens(left_table) | stop_tokens(right_table)
    index = defaultdict(list)
    for record in right_table:
        for token in record_tokens(record) - stop:
            index[token].append(record.record_id)
    shared_counts = defaultdict(int)
    for record in left_table:
        for token in record_tokens(record) - stop:
            for right_id in index.get(token, ()):
                shared_counts[(record.record_id, right_id)] += 1
    return sorted(pair for pair, count in shared_counts.items() if count >= min_shared)


def _legacy_sorted_neighbourhood_block(key, window, left_table, right_table):
    """The historical SortedNeighbourhoodBlocker.block with its "~" sentinel."""
    entries = []
    for record in left_table:
        entries.append((key(record) or "~", 0, record.record_id))
    for record in right_table:
        entries.append((key(record) or "~", 1, record.record_id))
    entries.sort(key=lambda item: item[0])
    pairs = set()
    for i, (_, side_i, id_i) in enumerate(entries):
        for j in range(i + 1, min(i + 1 + window, len(entries))):
            _, side_j, id_j = entries[j]
            if side_i == side_j:
                continue
            pairs.add((id_i, id_j) if side_i == 0 else (id_j, id_i))
    return sorted(pairs)


class TestInvertedIndexLegacyParity:
    """InvertedIndexBlocker is bit-identical to the historical token blocker."""

    @pytest.mark.parametrize("min_shared,max_frequency", [(1, 1.0), (1, 0.1), (2, 0.3)])
    def test_parity_on_product_tables(self, product_tables, min_shared, max_frequency):
        left, right = product_tables
        blocker = InvertedIndexBlocker(
            ["name"], min_shared=min_shared, max_token_frequency=max_frequency
        )
        assert blocker.block(left, right) == _legacy_token_block(
            ["name"], min_shared, max_frequency, left, right
        )

    @pytest.mark.parametrize("min_shared,max_frequency", [(1, 0.1), (2, 0.3), (3, 0.05)])
    def test_parity_on_generated_workload(self, ds_workload, min_shared, max_frequency):
        left, right = ds_workload.left_table, ds_workload.right_table
        blocker = InvertedIndexBlocker(
            ["title", "authors"], min_shared=min_shared, max_token_frequency=max_frequency
        )
        assert blocker.block(left, right) == _legacy_token_block(
            ["title", "authors"], min_shared, max_frequency, left, right
        )

    @pytest.mark.parametrize("domain,attribute", [
        ("bibliographic", "title"), ("product", "name"), ("software", "title"), ("song", "title"),
    ])
    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("min_shared,max_frequency", [(1, 0.1), (2, 0.3), (2, 0.05)])
    def test_parity_across_domains(self, domain, attribute, seed, min_shared, max_frequency):
        workload = generate_workload(
            make_generator(domain), GenerationConfig(n_base_entities=60, seed=seed), "prop"
        )
        left, right = workload.left_table, workload.right_table
        blocker = InvertedIndexBlocker(
            [attribute], min_shared=min_shared, max_token_frequency=max_frequency
        )
        assert blocker.block(left, right) == _legacy_token_block(
            [attribute], min_shared, max_frequency, left, right
        )

    def test_records_tokenized_once_per_block(self, product_tables, monkeypatch):
        # The old implementation tokenised every record twice (stop-word pass
        # + index/probe pass).  The rewrite computes each record's token set
        # exactly once per block() call.
        import repro.blocking.index as index_module

        calls = []
        original = index_module.record_token_set

        def counting(record, attributes):
            calls.append(record.record_id)
            return original(record, attributes)

        monkeypatch.setattr(index_module, "record_token_set", counting)
        monkeypatch.setattr("repro.blocking.blockers.record_token_set", counting)
        left, right = product_tables
        InvertedIndexBlocker(["name"], max_token_frequency=1.0).block(left, right)
        assert sorted(calls) == sorted(
            [record.record_id for record in left] + [record.record_id for record in right]
        )


class TestSortedWindowLegacyParity:
    def test_parity_for_keys_below_tilde(self, ds_workload):
        # For ordinary (ASCII, below-"~") keys the explicit missing-key sort
        # tuple produces exactly the historical order.
        left, right = ds_workload.left_table, ds_workload.right_table
        key = lambda record: (record["title"] or "")[:8].lower() or None  # noqa: E731
        blocker = SortedWindowBlocker(key, window=5)
        assert blocker.block(left, right) == _legacy_sorted_neighbourhood_block(
            key, 5, left, right
        )

    def test_keys_above_tilde_no_longer_split_by_missing_sentinel(self):
        # Regression for the "~" sentinel: with keys sorting above "~" (e.g.
        # Greek titles) the sentinel interleaved *between* real keys
        # ("zz" < "~" < "Ω"), so a missing-key record split two real-keyed
        # records that should have been window-adjacent — and itself stopped
        # sorting last.  The explicit (is_missing, key) tuple restores both.
        schema = Schema((Attribute("name", AttributeType.TEXT),))
        left = Table("left", schema)
        right = Table("right", schema)
        left.add(Record("l-omega", {"name": "Ωmega systems handbook"}))
        left.add(Record("l-none", {"name": None}))
        right.add(Record("r-omega", {"name": "Ωmega systems handbook"}))
        right.add(Record("r-zz", {"name": "zz last ascii entry"}))
        key = lambda record: record["name"]  # noqa: E731
        pairs = SortedWindowBlocker(key, window=1).block(left, right)
        legacy = _legacy_sorted_neighbourhood_block(key, 1, left, right)
        # Real keys are now contiguous: "zz" is window-adjacent to the first
        # "Ω" record.  Under the legacy sentinel the missing-key record sat
        # between them and stole that window slot.
        assert ("l-omega", "r-zz") in pairs
        assert ("l-omega", "r-zz") not in legacy  # the bug being fixed
        assert ("l-none", "r-zz") in legacy  # ...because the sentinel interleaved
        # The missing-key record sorts last as a class of its own now.
        assert ("l-none", "r-omega") in pairs
        # Identically-keyed records pair in both implementations.
        assert ("l-omega", "r-omega") in pairs and ("l-omega", "r-omega") in legacy

    def test_empty_keys_treated_as_missing(self):
        # The historical `or "~"` also caught empty strings; the rewrite keeps
        # treating falsy keys as missing so they still sort last together.
        schema = Schema((Attribute("name", AttributeType.TEXT),))
        left = Table("left", schema)
        right = Table("right", schema)
        left.add(Record("l-empty", {"name": ""}))
        left.add(Record("l-a", {"name": "alpha"}))
        right.add(Record("r-none", {"name": None}))
        right.add(Record("r-a", {"name": "alpha"}))
        blocker = SortedWindowBlocker(lambda record: record["name"], window=1)
        pairs = blocker.block(left, right)
        assert ("l-a", "r-a") in pairs
        assert ("l-empty", "r-none") in pairs  # both missing => adjacent
