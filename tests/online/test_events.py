"""Unit tests of the append-only event log and log replay."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.exceptions import DataError
from repro.online import (
    EVENT_SCHEMA_VERSION,
    EventLog,
    ResolutionEvent,
    replay_events,
)


def append_pair_event(log: EventLog, decision: str, left: str, right: str, **extra):
    return log.append(
        decision=decision,
        left_id=left,
        left_source="s",
        right_id=right,
        right_source="s",
        reason="test",
        **extra,
    )


def test_event_wire_format_is_sorted_compact_json():
    log = EventLog()
    event = append_pair_event(log, "merge", "a", "b")
    line = event.to_json_line()
    assert line.endswith("\n")
    payload = json.loads(line)
    assert list(payload) == sorted(payload)
    assert payload["schema_version"] == EVENT_SCHEMA_VERSION
    assert payload["event_id"] == "evt-000001"
    assert line == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def test_event_round_trips_through_dict():
    log = EventLog()
    event = append_pair_event(
        log, "escalate", "a", "b",
        probability=0.9, machine_label=1, risk_score=0.4, threshold=0.2,
        explanation={"fired_rules": []},
        cluster_before_left=["s:a"], cluster_before_right=["s:b"],
    )
    assert ResolutionEvent.from_dict(event.to_dict()) == event


def test_unknown_decision_rejected():
    log = EventLog()
    with pytest.raises(DataError, match="unknown resolution decision"):
        append_pair_event(log, "promote", "a", "b")
    with pytest.raises(DataError, match="unknown resolution decision"):
        ResolutionEvent.from_dict({
            "sequence": 1, "decision": "promote", "left_id": "a",
            "left_source": "s", "right_id": "b", "right_source": "s",
            "reason": "x",
        })


def test_missing_field_rejected():
    with pytest.raises(DataError, match="missing field"):
        ResolutionEvent.from_dict({"sequence": 1, "decision": "merge"})


def test_sequences_and_since_slicing():
    log = EventLog()
    for index in range(4):
        append_pair_event(log, "escalate", "a", f"b{index}")
    assert [event.sequence for event in log.events()] == [1, 2, 3, 4]
    assert [event.sequence for event in log.events(since=2)] == [3, 4]
    assert log.events(since=99) == []
    assert len(log) == 4
    with pytest.raises(DataError, match="'since' must be >= 0"):
        log.events(since=-1)


def test_event_lookup_and_reverted_ids():
    log = EventLog()
    merge = append_pair_event(log, "merge", "a", "b")
    assert log.event(merge.event_id) is merge
    with pytest.raises(DataError, match="unknown event id"):
        log.event("evt-999999")
    append_pair_event(log, "revert", "a", "b", target_event_id=merge.event_id)
    assert log.reverted_event_ids() == {merge.event_id}


def test_event_lookup_is_by_sequence():
    log = EventLog()
    events = [append_pair_event(log, "escalate", "a", f"b{index}") for index in range(12)]
    for event in events:
        assert log.event(event.event_id) is event
    for bad in ("evt-000000", "evt-1", "evt-abc", "x", "evt-000013"):
        with pytest.raises(DataError, match="unknown event id"):
            log.event(bad)


def test_file_mirroring_and_reload(tmp_path):
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    append_pair_event(log, "merge", "a", "b")
    append_pair_event(log, "split", "a", "c")
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert json.loads(lines[0])["decision"] == "merge"

    reloaded = EventLog(path)
    assert [event.to_dict() for event in reloaded] == [
        event.to_dict() for event in log
    ]
    # Appends continue the sequence across the reload.
    event = append_pair_event(reloaded, "escalate", "a", "d")
    assert event.sequence == 3


@pytest.fixture
def append_opens(monkeypatch) -> list[str]:
    """The mode of every ``Path.open`` for appending while the test runs."""
    opened: list[str] = []
    real_open = Path.open

    def counting_open(self, mode="r", *args, **kwargs):
        if mode.startswith("a"):
            opened.append(mode)
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", counting_open)
    return opened


def test_one_held_handle_serves_every_append(tmp_path, monkeypatch, append_opens):
    made: list[Path] = []
    real_mkdir = Path.mkdir

    def counting_mkdir(self, *args, **kwargs):
        made.append(self)
        return real_mkdir(self, *args, **kwargs)

    monkeypatch.setattr(Path, "mkdir", counting_mkdir)
    path = tmp_path / "nested" / "events.jsonl"
    log = EventLog(path)
    written = [append_pair_event(log, "escalate", "a", f"b{index}") for index in range(1000)]
    assert append_opens == ["a"]
    assert made == [path.parent]

    # Each append is flushed before it returns: a second reader sees every
    # line while the writer still holds its handle.
    reader = EventLog(path)
    assert [event.to_dict() for event in reader] == [event.to_dict() for event in written]

    log.close()
    log.close()  # closing twice is harmless
    reopened = EventLog(path)
    assert append_pair_event(reopened, "merge", "a", "z").sequence == 1001
    reopened.close()
    assert len(EventLog(path)) == 1001


def test_context_manager_closes_and_a_later_append_reopens(tmp_path, append_opens):
    path = tmp_path / "events.jsonl"
    with EventLog(path) as log:
        append_pair_event(log, "merge", "a", "b")
    assert append_opens == ["a"]
    # The in-memory events outlive the handle; an append opens it again.
    assert len(log) == 1
    append_pair_event(log, "split", "a", "c")
    log.close()
    assert append_opens == ["a", "a"]
    assert [event.sequence for event in EventLog(path)] == [1, 2]


def test_reverted_ids_are_kept_on_append_and_load(tmp_path):
    path = tmp_path / "events.jsonl"
    with EventLog(path) as log:
        merge = append_pair_event(log, "merge", "a", "b")
        split = append_pair_event(log, "split", "a", "c")
        assert log.reverted_event_ids() == set()
        append_pair_event(log, "revert", "a", "b", target_event_id=merge.event_id)
        assert log.reverted_event_ids() == {merge.event_id}
        # The returned set is a copy.
        log.reverted_event_ids().add(split.event_id)
        assert log.reverted_event_ids() == {merge.event_id}
    assert EventLog(path).reverted_event_ids() == {merge.event_id}


def test_corrupt_log_files_rejected(tmp_path):
    bad_json = tmp_path / "bad.jsonl"
    bad_json.write_text("{not json\n")
    with pytest.raises(DataError, match="not valid JSON"):
        EventLog(bad_json)

    gap = tmp_path / "gap.jsonl"
    log = EventLog()
    first = append_pair_event(log, "merge", "a", "b")
    skipped = ResolutionEvent.from_dict({**first.to_dict(), "sequence": 3})
    gap.write_text(first.to_json_line() + skipped.to_json_line())
    with pytest.raises(DataError, match="not contiguous"):
        EventLog(gap)


def test_torn_final_line_is_truncated_on_reload(tmp_path):
    # A crash mid-append leaves a final line with no newline; reopening the
    # log drops exactly those bytes so the resolver can restart.
    path = tmp_path / "events.jsonl"
    log = EventLog(path)
    for right in ("b", "c", "d"):
        append_pair_event(log, "merge", "a", right)
    complete = path.read_bytes()
    fourth = ResolutionEvent.from_dict({**log.event("evt-000003").to_dict(), "sequence": 4})
    path.write_bytes(complete + fourth.to_json_line().encode()[:40])

    with pytest.warns(RuntimeWarning, match="dropped 40 bytes"):
        reloaded = EventLog(path)
    assert [event.to_dict() for event in reloaded] == [event.to_dict() for event in log]
    assert path.read_bytes() == complete
    assert append_pair_event(reloaded, "split", "a", "e").event_id == "evt-000004"
    assert len(EventLog(path)) == 4


def test_replay_applies_merges_and_splits_and_honours_reverts():
    log = EventLog()
    merge = append_pair_event(log, "merge", "a", "b")
    append_pair_event(log, "split", "a", "c")
    append_pair_event(log, "escalate", "a", "d")
    store = replay_events(log.events())
    assert store.to_dict() == {
        "clusters": {"s:a": ["s:a", "s:b"]},
        "cannot_links": [["s:a", "s:c"]],
    }

    append_pair_event(log, "revert", "a", "b", target_event_id=merge.event_id)
    reverted = replay_events(log.events())
    assert reverted.to_dict() == {
        "clusters": {},
        "cannot_links": [["s:a", "s:c"]],
    }
