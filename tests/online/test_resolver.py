"""Invariant suite of the online resolver.

The load-bearing assertions:

* **Online == batch** — every decision's probability/risk score is
  bit-identical to batch-scoring the same pairs through a fresh
  :class:`RiskService` on the same pipeline.
* **Replay bit-identity** — ``replay_events(log).to_dict()`` equals the live
  store's export, byte for byte, including after reverts.
* **Restart resume** — a resolver built on the persisted JSONL log starts
  from the same cluster state.
* **Concurrency** — ``events``/``state_dict`` readers never observe a torn
  log while another thread is resolving.
"""

from __future__ import annotations

import json
import threading
from dataclasses import replace
from types import SimpleNamespace

import pytest

from repro.classifiers.mlp import MLPClassifier
from repro.data import split_workload
from repro.exceptions import ConfigurationError, DataError
from repro.online import (
    EventLog,
    OnlineResolver,
    ResolutionPolicy,
    ResolutionSummary,
    create_policy,
    record_key,
    registered_policies,
    replay_events,
)
from repro.pipeline import LearnRiskPipeline
from repro.risk.onesided_tree import OneSidedTreeConfig
from repro.risk.training import TrainingConfig
from repro.serve import RiskService


@pytest.fixture(scope="module")
def service(ds_workload):
    split = split_workload(ds_workload, ratio=(3, 2, 5), seed=0)
    pipeline = LearnRiskPipeline(
        classifier=MLPClassifier(hidden_sizes=(16,), epochs=15, seed=0),
        tree_config=OneSidedTreeConfig(max_depth=2, min_support=4, max_thresholds=24),
        training_config=TrainingConfig(epochs=40),
        seed=0,
    )
    pipeline.fit(split.train, split.validation)
    return RiskService(pipeline)


def stream_records(workload, per_side: int):
    """The first records of both tables, left side first (a fixed arrival order)."""
    records = list(workload.left_table)[:per_side]
    records += list(workload.right_table)[:per_side]
    return records


POLICY = ResolutionPolicy(
    attributes=("title", "authors"),
    merge_threshold=1.0,
    split_threshold=1.0,
    explain=False,
)


@pytest.fixture(scope="module")
def resolved(service, ds_workload, tmp_path_factory):
    """One resolver fed a fixed stream, journalling to a JSONL file."""
    path = tmp_path_factory.mktemp("online") / "events.jsonl"
    resolver = OnlineResolver(service, POLICY, event_log=EventLog(path))
    records = stream_records(ds_workload, per_side=20)
    events = []
    for record in records:
        events.extend(resolver.add_record(record))
    assert events, "the fixture stream must produce candidate decisions"
    return SimpleNamespace(
        resolver=resolver, records=records, events=events, path=path
    )


# ---------------------------------------------------------------- policy layer
def test_threshold_policy_is_registered():
    assert "threshold" in registered_policies()
    policy = create_policy("threshold", {"attributes": ["title"], "merge_threshold": 0.1})
    assert policy.attributes == ("title",)
    assert policy.merge_threshold == 0.1


def test_policy_validation():
    with pytest.raises(ConfigurationError):
        ResolutionPolicy(attributes=())
    with pytest.raises(ConfigurationError):
        ResolutionPolicy(attributes=("title",), merge_threshold=1.5)
    with pytest.raises(ConfigurationError):
        ResolutionPolicy(attributes=("title",), min_shared=0)
    with pytest.raises(ConfigurationError):
        ResolutionPolicy(attributes=("title",), max_postings=0)


def test_policy_round_trips_through_dict():
    policy = ResolutionPolicy(
        attributes=("title", "year"), merge_threshold=0.3, split_threshold=0.4,
        min_shared=2, stop_tokens=("the",), max_postings=64, top_rules=None,
        explain=False,
    )
    assert ResolutionPolicy.from_dict(policy.to_dict()) == policy


# ------------------------------------------------------------------ invariants
def test_every_decision_is_audited(resolved):
    for event in resolved.events:
        assert event.decision in ("merge", "split", "escalate")
        assert event.probability is not None
        assert event.risk_score is not None
        assert event.threshold is not None
        assert event.cluster_before_left is not None
        assert event.cluster_before_right is not None
        if event.decision == "merge":
            assert event.cluster_after is not None
            assert set(event.cluster_before_left) <= set(event.cluster_after)


def test_online_scores_bit_identical_to_batch(resolved, service):
    from repro.data.records import RecordPair

    records = {record_key(record): record for record in resolved.records}
    pairs = [
        RecordPair(records[event.left_key], records[event.right_key])
        for event in resolved.events
    ]
    # A fresh service on the same pipeline: the cold batch path.
    reference = RiskService(service.pipeline).score_pairs(pairs)
    for event, scored in zip(resolved.events, reference):
        assert event.probability == scored.probability
        assert event.machine_label == scored.machine_label
        assert event.risk_score == scored.risk_score


def test_explaining_resolver_scores_each_pair_once(service, ds_workload):
    """With explain on, each arrival is scored and explained in one pass."""
    from repro.data.records import RecordPair

    fresh = RiskService(service.pipeline)
    resolver = OnlineResolver(fresh, replace(POLICY, explain=True, top_rules=2))
    records = stream_records(ds_workload, per_side=20)
    events = [event for record in records for event in resolver.add_record(record)]
    stats = fresh.stats.snapshot()
    assert stats["pairs_scored"] == len(events) == stats["cache_hits"] + stats["cache_misses"]
    by_key = {record_key(record): record for record in records}
    reference = RiskService(service.pipeline).score_pairs(
        [RecordPair(by_key[event.left_key], by_key[event.right_key]) for event in events]
    )
    for event, scored in zip(events, reference):
        assert event.probability == scored.probability
        assert event.machine_label == scored.machine_label
        assert event.risk_score == scored.risk_score
        assert event.explanation["risk_score"] == event.risk_score
        assert 1 <= len(event.explanation["fired_rules"]) <= 2


def state_bytes(store_dict) -> str:
    return json.dumps(store_dict, sort_keys=True)


def test_replay_reconstructs_live_store_bit_identically(resolved):
    replayed = replay_events(resolved.resolver.events())
    assert state_bytes(replayed.to_dict()) == state_bytes(resolved.resolver.state_dict())


def test_restart_resumes_from_persisted_log(resolved, service):
    restarted = OnlineResolver(service, POLICY, event_log=EventLog(resolved.path))
    assert state_bytes(restarted.state_dict()) == state_bytes(
        resolved.resolver.state_dict()
    )


def test_restart_after_a_torn_log_tail(resolved, service, tmp_path):
    lines = resolved.path.read_bytes().splitlines(keepends=True)
    assert len(lines) >= 4
    clean = tmp_path / "clean.jsonl"
    clean.write_bytes(b"".join(lines[:3]))
    torn = tmp_path / "torn.jsonl"
    torn.write_bytes(b"".join(lines[:3]) + lines[3][:40])
    with pytest.warns(RuntimeWarning, match="dropped 40 bytes"):
        log = EventLog(torn)
    assert len(log) == 3
    restarted = OnlineResolver(service, POLICY, event_log=log)
    reference = OnlineResolver(service, POLICY, event_log=EventLog(clean))
    assert state_bytes(restarted.state_dict()) == state_bytes(reference.state_dict())
    assert restarted.state_dict()["clusters"] or restarted.state_dict()["cannot_links"]


def test_revert_then_replay_determinism(resolved):
    resolver = resolved.resolver
    state_events = [e for e in resolver.events() if e.decision in ("merge", "split")]
    assert state_events, "fixture stream produced no revertable decision"
    target = state_events[0]

    before = state_bytes(resolver.state_dict())
    revert = resolver.revert(target.event_id)
    assert revert.decision == "revert"
    assert revert.target_event_id == target.event_id
    after = state_bytes(resolver.state_dict())
    assert after != before

    # The live store after a revert is exactly the log replayed.
    assert state_bytes(replay_events(resolver.events()).to_dict()) == after
    # And the persisted file agrees: a fresh reader replays to the same state.
    reloaded = replay_events(EventLog(resolved.path).events())
    assert state_bytes(reloaded.to_dict()) == after

    with pytest.raises(DataError, match="already reverted"):
        resolver.revert(target.event_id)


def test_only_state_decisions_can_be_reverted(service):
    resolver = OnlineResolver(service, POLICY)
    event = resolver.log.append(
        decision="escalate", left_id="a", left_source="s",
        right_id="b", right_source="s", reason="test",
    )
    with pytest.raises(DataError, match="only merge/split"):
        resolver.revert(event.event_id)
    with pytest.raises(DataError, match="unknown event id"):
        resolver.revert("evt-999999")


def test_a_second_revert_raises_also_after_a_reload(resolved, service, tmp_path):
    path = tmp_path / "events.jsonl"
    path.write_bytes(resolved.path.read_bytes())
    with EventLog(path) as log:
        resolver = OnlineResolver(service, POLICY, event_log=log)
        reverted = log.reverted_event_ids()
        target = next(
            event for event in resolver.events()
            if event.decision in ("merge", "split") and event.event_id not in reverted
        )
        resolver.revert(target.event_id)
        with pytest.raises(DataError, match="already reverted"):
            resolver.revert(target.event_id)
    with EventLog(path) as log:
        restarted = OnlineResolver(service, POLICY, event_log=log)
        with pytest.raises(DataError, match="already reverted"):
            restarted.revert(target.event_id)
        assert len(log) == len(resolver.log)


def test_duplicate_record_key_rejected(service, ds_workload):
    resolver = OnlineResolver(service, POLICY)
    record = next(iter(ds_workload.left_table))
    resolver.add_record(record)
    with pytest.raises(DataError, match="already resolved"):
        resolver.add_record(record)
    assert resolver.record_count == 1


def test_zero_thresholds_escalate_everything(service, ds_workload):
    policy = ResolutionPolicy(
        attributes=("title", "authors"), merge_threshold=0.0, split_threshold=0.0,
        explain=False,
    )
    resolver = OnlineResolver(service, policy)
    events = []
    for record in stream_records(ds_workload, per_side=6):
        events.extend(resolver.add_record(record))
    assert events
    assert all(event.decision == "escalate" for event in events)
    queue = resolver.escalations()
    assert [event.event_id for event in queue] == [event.event_id for event in events]
    assert resolver.state_dict() == {"clusters": {}, "cannot_links": []}


def test_summary_counts_match_events(resolved):
    summary = ResolutionSummary()
    summary.observe(event for event in resolved.events)
    assert summary.pairs_scored == len(resolved.events)
    assert summary.merges == sum(e.decision == "merge" for e in resolved.events)
    assert summary.splits == sum(e.decision == "split" for e in resolved.events)
    assert summary.escalations == sum(
        e.decision == "escalate" for e in resolved.events
    )
    assert summary.to_dict()["pairs_scored"] == len(resolved.events)


def test_resolve_corpus_streams_waves(service):
    from repro.blocking import GeneratedCorpus
    from repro.data.generators import GenerationConfig

    corpus = GeneratedCorpus(
        "bibliographic", config=GenerationConfig(n_base_entities=10, seed=7),
        n_waves=2, name="online-corpus", seed=7,
    )
    resolver = OnlineResolver(service, POLICY)
    summary = resolver.resolve_corpus(corpus, max_waves=2)
    assert summary.records == resolver.record_count
    assert summary.pairs_scored == len(resolver.events())
    assert state_bytes(replay_events(resolver.events()).to_dict()) == state_bytes(
        resolver.state_dict()
    )


def test_concurrent_resolve_and_event_reads(service, ds_workload):
    resolver = OnlineResolver(service, POLICY)
    records = stream_records(ds_workload, per_side=10)
    errors: list[BaseException] = []
    done = threading.Event()

    def feed():
        try:
            for record in records:
                resolver.add_record(record)
        except BaseException as exc:  # pragma: no cover - failure reporting
            errors.append(exc)
        finally:
            done.set()

    def read():
        try:
            seen = 0
            while not done.is_set():
                events = resolver.events(since=seen)
                sequences = [event.sequence for event in events]
                # The log is append-only: reads are contiguous and gap-free.
                assert sequences == list(range(seen + 1, seen + 1 + len(events)))
                seen += len(events)
                resolver.state_dict()
        except BaseException as exc:  # pragma: no cover - failure reporting
            errors.append(exc)

    reader = threading.Thread(target=read)
    feeder = threading.Thread(target=feed)
    reader.start()
    feeder.start()
    feeder.join(120)
    reader.join(120)
    assert not errors
    # After the dust settles the standing invariant still holds.
    assert state_bytes(replay_events(resolver.events()).to_dict()) == state_bytes(
        resolver.state_dict()
    )
