"""Unit tests of the deterministic union-find cluster store."""

from __future__ import annotations

import json

import pytest

from repro.data.records import Record
from repro.exceptions import DataError
from repro.online import ClusterStore, record_key


def keys(*names: str) -> list[str]:
    return [f"s:{name}" for name in names]


def store_with(*names: str) -> ClusterStore:
    store = ClusterStore()
    for key in keys(*names):
        store.add(key)
    return store


def test_record_key_is_source_and_id():
    record = Record(record_id="r1", values={}, source="dblp")
    assert record_key(record) == "dblp:r1"


def test_add_find_members():
    store = store_with("a", "b")
    assert "s:a" in store
    assert len(store) == 2
    assert store.find("s:a") == "s:a"
    assert store.members("s:a") == ["s:a"]


def test_unknown_key_raises():
    store = ClusterStore()
    with pytest.raises(DataError, match="unknown record key"):
        store.find("s:missing")


def test_merge_uses_smallest_member_as_representative():
    store = store_with("c", "b", "a")
    store.merge("s:c", "s:b")
    assert store.find("s:c") == "s:b"
    store.merge("s:b", "s:a")
    assert store.find("s:c") == "s:a"
    assert store.members("s:b") == keys("a", "b", "c")


def test_exported_state_is_merge_order_independent():
    orders = [
        [("a", "b"), ("c", "d"), ("b", "c")],
        [("c", "d"), ("b", "c"), ("a", "b")],
        [("b", "c"), ("a", "d"), ("a", "b")],
    ]
    exports = []
    for order in orders:
        store = store_with("a", "b", "c", "d")
        for left, right in order:
            store.merge(f"s:{left}", f"s:{right}")
        exports.append(json.dumps(store.to_dict(), sort_keys=True))
    assert len(set(exports)) == 1


def test_split_blocks_merge_and_is_queryable():
    store = store_with("a", "b")
    store.split("s:a", "s:b")
    assert not store.can_merge("s:a", "s:b")
    assert store.cannot_links() == [keys("a", "b")]
    with pytest.raises(DataError, match="cannot-link"):
        store.merge("s:a", "s:b")


def test_split_within_one_cluster_raises():
    store = store_with("a", "b")
    store.merge("s:a", "s:b")
    with pytest.raises(DataError, match="in one cluster"):
        store.split("s:a", "s:b")


def test_constraints_follow_cluster_merges():
    # Constraint recorded against b's singleton cluster must still block
    # after b is absorbed into a larger cluster under a different root.
    store = store_with("a", "b", "c")
    store.split("s:a", "s:b")
    store.merge("s:b", "s:c")
    assert not store.can_merge("s:a", "s:c")
    with pytest.raises(DataError):
        store.merge("s:a", "s:c")


def test_to_dict_excludes_singletons():
    store = store_with("a", "b", "c")
    store.merge("s:a", "s:b")
    exported = store.to_dict()
    assert exported["clusters"] == {"s:a": keys("a", "b")}
    assert store.clusters() == {"s:a": keys("a", "b")}


def test_member_lists_follow_merges_of_whole_clusters():
    store = store_with("a", "b", "c", "d", "e")
    store.merge("s:d", "s:c")
    store.merge("s:b", "s:e")
    store.merge("s:e", "s:d")
    assert store.members("s:c") == keys("b", "c", "d", "e")
    assert store.members("s:a") == keys("a")
    assert store.clusters() == {"s:b": keys("b", "c", "d", "e")}
    # members() hands out a copy: changing it leaves the store alone.
    store.members("s:c").append("s:z")
    assert store.members("s:b") == keys("b", "c", "d", "e")
