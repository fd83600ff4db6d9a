"""The append-only resolution-event log: every online decision, audited.

Each :class:`ResolutionEvent` is one pairwise decision — ``merge``, ``split``,
``escalate`` — or a ``revert`` pointing at an earlier event.  An event carries
the full merge audit trail: the pair's identity, the machine probability and
label, the risk score, the threshold that triggered the decision, the
fired-rule explanation (:meth:`~repro.risk.model.PairRiskExplanation.to_dict`)
and the cluster states before/after.  The wire format is one sorted-key
compact JSON object per line (the convention the HTTP tier's golden fixtures
pin), stamped with :data:`EVENT_SCHEMA_VERSION`.

:class:`EventLog` is append-only: events get monotonically increasing
sequence numbers and ids, optionally mirrored to a JSONL file on disk.  The
file is opened once, on the first append, and each event is written and
flushed on that held handle before it is visible to readers;
:meth:`EventLog.close` (or leaving a ``with`` block) releases the handle.
Nothing is ever rewritten — a revert is itself an appended event, and
:func:`replay_events` rebuilds a :class:`ClusterStore` by applying every
non-reverted merge/split in order.  Because cluster naming is deterministic
(see :mod:`repro.online.cluster`), replay reconstructs the live store
bit-identically, which is both the revert mechanism and the crash-recovery
story: a resolver restarted on an existing log resumes from the replayed
state.  The one thing reopening a log removes is a torn final line, the
unacknowledged half-append a crash leaves behind.
"""

from __future__ import annotations

import json
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Iterable, Iterator, Mapping

from ..exceptions import DataError
from .cluster import ClusterStore

#: Stamped into every event; bump on any layout change.
EVENT_SCHEMA_VERSION = 1

#: The decisions an event may carry.
DECISIONS = ("merge", "split", "escalate", "revert")

#: Decisions that change cluster state (and are therefore revertable).
STATE_DECISIONS = ("merge", "split")


def _event_id(sequence: int) -> str:
    return f"evt-{sequence:06d}"


def _event_sequence(event_id: str) -> int | None:
    """The sequence a canonical event id encodes; ``None`` for any other string."""
    if not isinstance(event_id, str):
        return None
    try:
        sequence = int(event_id.removeprefix("evt-"))
    except ValueError:
        return None
    return sequence if _event_id(sequence) == event_id else None


@dataclass(frozen=True)
class ResolutionEvent:
    """One audited resolution decision (immutable once appended)."""

    sequence: int
    decision: str
    left_id: str
    left_source: str
    right_id: str
    right_source: str
    #: Why this decision fired (e.g. ``"risk_below_merge_threshold"``).
    reason: str
    probability: float | None = None
    machine_label: int | None = None
    risk_score: float | None = None
    #: The policy threshold the risk score was compared against.
    threshold: float | None = None
    #: ``PairRiskExplanation.to_dict()`` payload (``None`` when disabled).
    explanation: dict[str, Any] | None = None
    cluster_before_left: list[str] | None = None
    cluster_before_right: list[str] | None = None
    cluster_after: list[str] | None = None
    #: For ``revert`` events: the id of the decision being reverted.
    target_event_id: str | None = None
    schema_version: int = EVENT_SCHEMA_VERSION

    @property
    def event_id(self) -> str:
        return _event_id(self.sequence)

    @property
    def left_key(self) -> str:
        return f"{self.left_source}:{self.left_id}"

    @property
    def right_key(self) -> str:
        return f"{self.right_source}:{self.right_id}"

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema_version": self.schema_version,
            "sequence": self.sequence,
            "event_id": self.event_id,
            "decision": self.decision,
            "left_id": self.left_id,
            "left_source": self.left_source,
            "right_id": self.right_id,
            "right_source": self.right_source,
            "reason": self.reason,
            "probability": self.probability,
            "machine_label": self.machine_label,
            "risk_score": self.risk_score,
            "threshold": self.threshold,
            "explanation": self.explanation,
            "cluster_before_left": self.cluster_before_left,
            "cluster_before_right": self.cluster_before_right,
            "cluster_after": self.cluster_after,
            "target_event_id": self.target_event_id,
        }

    def to_json_line(self) -> str:
        """The event's one byte representation: sorted keys, compact, + LF."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":")) + "\n"

    @classmethod
    def from_dict(cls, values: Mapping[str, Any]) -> "ResolutionEvent":
        if not isinstance(values, Mapping):
            raise DataError(f"resolution event must be a mapping, got {type(values).__name__}")
        try:
            event = cls(
                sequence=int(values["sequence"]),
                decision=str(values["decision"]),
                left_id=str(values["left_id"]),
                left_source=str(values["left_source"]),
                right_id=str(values["right_id"]),
                right_source=str(values["right_source"]),
                reason=str(values["reason"]),
                probability=values.get("probability"),
                machine_label=values.get("machine_label"),
                risk_score=values.get("risk_score"),
                threshold=values.get("threshold"),
                explanation=values.get("explanation"),
                cluster_before_left=values.get("cluster_before_left"),
                cluster_before_right=values.get("cluster_before_right"),
                cluster_after=values.get("cluster_after"),
                target_event_id=values.get("target_event_id"),
                schema_version=int(values.get("schema_version", EVENT_SCHEMA_VERSION)),
            )
        except KeyError as exc:
            raise DataError(f"resolution event is missing field {exc.args[0]!r}") from exc
        if event.decision not in DECISIONS:
            raise DataError(f"unknown resolution decision {event.decision!r}")
        return event


class EventLog:
    """Append-only, thread-safe log of resolution events.

    Parameters
    ----------
    path:
        Optional JSONL file the log mirrors to.  When the file already
        exists its events are loaded first, so a resolver constructed on an
        old log continues its sequence (the restart/recovery path).  A final
        line without its newline is what a crash mid-append leaves behind:
        it is truncated away with a :class:`RuntimeWarning` naming the
        dropped byte count.  Any other malformed line raises
        :class:`~repro.exceptions.DataError`.

    The file is opened for appending on the first :meth:`append` and held
    until :meth:`close`; an append after ``close()`` opens it again.
    """

    def __init__(self, path: str | Path | None = None) -> None:
        self._lock = threading.Lock()
        self._events: list[ResolutionEvent] = []
        #: Ids targeted by a ``revert`` event, kept current on load and append.
        self._reverted: set[str] = set()
        self._handle: IO[str] | None = None
        self.path = Path(path) if path is not None else None
        if self.path is not None and self.path.exists():
            data = self.path.read_bytes()
            complete = data.rfind(b"\n") + 1
            if complete < len(data):
                with self.path.open("r+b") as handle:
                    handle.truncate(complete)
                warnings.warn(
                    f"event log {self.path}: dropped {len(data) - complete} bytes "
                    "of a torn final line",
                    RuntimeWarning,
                    stacklevel=2,
                )
            text = data[:complete].decode("utf-8")
            for number, line in enumerate(text.splitlines(), start=1):
                if not line.strip():
                    continue
                try:
                    values = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise DataError(
                        f"event log {self.path} line {number} is not valid JSON: {exc}"
                    ) from exc
                self._events.append(ResolutionEvent.from_dict(values))
            for index, event in enumerate(self._events, start=1):
                if event.sequence != index:
                    raise DataError(
                        f"event log {self.path} is not contiguous: "
                        f"expected sequence {index}, found {event.sequence}"
                    )
                self._note_revert(event)

    def _note_revert(self, event: ResolutionEvent) -> None:
        if event.decision == "revert" and event.target_event_id is not None:
            self._reverted.add(event.target_event_id)

    def append(self, **fields: Any) -> ResolutionEvent:
        """Append one event (sequence assigned here); returns it.

        With a path, the event's line is written and flushed on the held
        handle before the event becomes visible to readers.
        """
        with self._lock:
            event = ResolutionEvent(sequence=len(self._events) + 1, **fields)
            if event.decision not in DECISIONS:
                raise DataError(f"unknown resolution decision {event.decision!r}")
            if self.path is not None:
                if self._handle is None:
                    self.path.parent.mkdir(parents=True, exist_ok=True)
                    self._handle = self.path.open("a", encoding="utf-8")
                self._handle.write(event.to_json_line())
                self._handle.flush()
            self._events.append(event)
            self._note_revert(event)
            return event

    def close(self) -> None:
        """Release the file handle; the in-memory events stay readable."""
        with self._lock:
            if self._handle is not None:
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def events(self, since: int = 0) -> list[ResolutionEvent]:
        """Events with ``sequence > since`` (a consistent snapshot)."""
        if since < 0:
            raise DataError(f"'since' must be >= 0, got {since}")
        with self._lock:
            if since >= len(self._events):
                return []
            return list(self._events[since:])

    def event(self, event_id: str) -> ResolutionEvent:
        """Look one event up by id (the id encodes its sequence number)."""
        sequence = _event_sequence(event_id)
        with self._lock:
            if sequence is not None and 1 <= sequence <= len(self._events):
                return self._events[sequence - 1]
        raise DataError(f"unknown event id {event_id!r}")

    def reverted_event_ids(self) -> set[str]:
        """Ids of events targeted by a ``revert`` event (a copy)."""
        with self._lock:
            return set(self._reverted)

    def __len__(self) -> int:
        with self._lock:
            return len(self._events)

    def __iter__(self) -> Iterator[ResolutionEvent]:
        return iter(self.events())


def replay_events(events: Iterable[ResolutionEvent]) -> ClusterStore:
    """Rebuild a :class:`ClusterStore` from a log, honouring reverts.

    Merge/split decisions are applied in sequence order; decisions targeted
    by a ``revert`` event are skipped entirely, and escalations/reverts
    themselves never touch cluster state.  Because the store's cluster naming
    and constraint bookkeeping are order-deterministic, the result is
    bit-identical (via :meth:`ClusterStore.to_dict`) to the live store that
    produced the log.
    """
    events = list(events)
    reverted = {
        event.target_event_id
        for event in events
        if event.decision == "revert" and event.target_event_id is not None
    }
    store = ClusterStore()
    for event in events:
        if event.decision not in STATE_DECISIONS or event.event_id in reverted:
            continue
        left_key, right_key = event.left_key, event.right_key
        store.add(left_key)
        store.add(right_key)
        if event.decision == "merge":
            store.merge(left_key, right_key)
        else:
            store.split(left_key, right_key)
    return store
