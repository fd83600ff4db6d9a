"""Stateful property test of the cluster store and its file-backed event log.

A hypothesis ``RuleBasedStateMachine`` drives a live :class:`ClusterStore`
the way :class:`~repro.online.OnlineResolver` does: records arrive, merge
and split decisions (or the escalations the store refuses) are journalled to
an :class:`EventLog` on disk, a revert appends its event and rebuilds the
store by replay, and a restart closes the log and reopens the file.  One
rule merges members of two existing multi-member clusters, a case uniform
pairs of records rarely reach before a split separates them.  After every
step it checks:

* ``members()`` and ``clusters()`` agree with a brute-force scan of ``find``;
* a fresh reader of the file replays to the live store's export, and knows
  the same reverted ids as the live log;
* no cannot-link pair shares a cluster.

The run is derandomized with bounded example and step counts, so it takes
the same cases and about the same time on every run.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.exceptions import DataError
from repro.online import ClusterStore, EventLog, replay_events

NAMES = "abcdefg"
names = st.sampled_from(NAMES)


class StoreAndLog(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.directory = Path(tempfile.mkdtemp(prefix="store-log-"))
        self.path = self.directory / "events.jsonl"
        self.log = EventLog(self.path)
        self.store = ClusterStore()
        self.keys: list[str] = []  # every key that arrived, in arrival order

    def teardown(self) -> None:
        self.log.close()
        shutil.rmtree(self.directory, ignore_errors=True)

    # ------------------------------------------------------------ helpers
    def _arrive(self, *names_: str) -> list[str]:
        keys = [f"s:{name}" for name in names_]
        for key in keys:
            if key not in self.store:
                self.store.add(key)
                self.keys.append(key)
        return keys

    def _journal(self, decision: str, left: str, right: str, **extra):
        return self.log.append(
            decision=decision, left_id=left, left_source="s", right_id=right,
            right_source="s", reason="machine", **extra,
        )

    def _rebuild(self) -> None:
        """What a revert or a restart leaves: the replayed log plus every seen key."""
        self.store = replay_events(self.log.events())
        for key in self.keys:
            self.store.add(key)

    def _revertable(self) -> list:
        reverted = self.log.reverted_event_ids()
        return [
            event for event in self.log.events()
            if event.decision in ("merge", "split") and event.event_id not in reverted
        ]

    # -------------------------------------------------------------- rules
    @rule(name=names)
    def add(self, name: str) -> None:
        self._arrive(name)

    @rule(left=names, right=names)
    def merge(self, left: str, right: str) -> None:
        self._decide_merge(left, right)

    @precondition(lambda self: len(self.store.clusters()) >= 2)
    @rule(data=st.data())
    def merge_two_clusters(self, data) -> None:
        clusters = list(self.store.clusters().values())
        first, second = data.draw(
            st.lists(st.sampled_from(range(len(clusters))), min_size=2, max_size=2, unique=True)
        )
        left = data.draw(st.sampled_from(clusters[first]))
        right = data.draw(st.sampled_from(clusters[second]))
        self._decide_merge(left.removeprefix("s:"), right.removeprefix("s:"))

    def _decide_merge(self, left: str, right: str) -> None:
        a, b = self._arrive(left, right)
        if self.store.can_merge(a, b):
            self.store.merge(a, b)
            self._journal("merge", left, right)
        else:
            with pytest.raises(DataError, match="cannot-link"):
                self.store.merge(a, b)
            self._journal("escalate", left, right)

    @rule(left=names, right=names)
    def split(self, left: str, right: str) -> None:
        a, b = self._arrive(left, right)
        if self.store.find(a) == self.store.find(b):
            with pytest.raises(DataError, match="in one cluster"):
                self.store.split(a, b)
            self._journal("escalate", left, right)
        else:
            self.store.split(a, b)
            self._journal("split", left, right)

    @precondition(lambda self: self._revertable())
    @rule(data=st.data())
    def revert(self, data) -> None:
        target = data.draw(st.sampled_from(self._revertable()))
        self._journal(
            "revert", target.left_id, target.right_id, target_event_id=target.event_id
        )
        assert target.event_id in self.log.reverted_event_ids()
        self._rebuild()

    @rule()
    def restart(self) -> None:
        self.log.close()
        self.log = EventLog(self.path)
        self._rebuild()

    # --------------------------------------------------------- invariants
    @invariant()
    def members_and_clusters_match_a_scan(self) -> None:
        roots = {key: self.store.find(key) for key in self.keys}
        grouped: dict[str, list[str]] = {}
        for key in self.keys:
            grouped.setdefault(roots[key], []).append(key)
        for key in self.keys:
            assert self.store.members(key) == sorted(grouped[roots[key]])
        assert self.store.clusters() == {
            root: sorted(members)
            for root, members in sorted(grouped.items())
            if len(members) > 1
        }

    @invariant()
    def the_file_replays_to_the_live_store(self) -> None:
        reader = EventLog(self.path)
        assert len(reader) == len(self.log)
        assert replay_events(reader.events()).to_dict() == self.store.to_dict()
        assert reader.reverted_event_ids() == self.log.reverted_event_ids()

    @invariant()
    def no_cannot_link_shares_a_cluster(self) -> None:
        for left, right in self.store.cannot_links():
            assert self.store.find(left) != self.store.find(right)


StoreAndLog.TestCase.settings = settings(
    derandomize=True,
    database=None,
    max_examples=60,
    stateful_step_count=30,
    deadline=None,
)
TestStoreAndLog = StoreAndLog.TestCase
