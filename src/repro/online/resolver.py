"""`OnlineResolver`: incremental, audited entity resolution.

Records arrive one at a time (or in corpus waves); each arrival is

1. **blocked** against a live :class:`~repro.blocking.index.InvertedIndex`
   over everything seen so far (the incremental ``add()``/``max_postings``
   path — the index grows with the stream and prunes hot tokens, so probing
   stays bounded on open-ended streams);
2. **risk-scored** against its candidates through a kernel-warm
   :class:`~repro.serve.service.RiskService` — the same batched, cached,
   batch-invariant scoring path the batch pipeline and the HTTP tier use, so
   online scores are bit-identical to batch-scoring the same pairs;
3. **decided** by the :class:`ResolutionPolicy` thresholds: a low-risk
   machine *match* auto-merges the two clusters, a low-risk machine
   *unmatch* auto-splits them (a cannot-link constraint), and everything
   else — high risk either way, or a merge blocked by a constraint — is
   escalated to the human review queue.  This is the paper's operational
   payoff: risk analysis deciding *which* machine decisions to trust, with
   the gradual-ML easy-instances-first regime falling out of the thresholds.

Every decision appends a :class:`~repro.online.events.ResolutionEvent` to the
append-only log with its full audit trail; :meth:`OnlineResolver.revert`
appends a revert event and deterministically rebuilds the cluster store by
replaying the log without the reverted decision.

Policies are registered in :data:`POLICIES` (kind ``"threshold"`` is the
built-in), so a :class:`~repro.compose.spec.PipelineSpec` can carry an
``online`` component spec and the serve CLI / HTTP tier can build a resolver
from JSON configuration.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Mapping

from ..blocking.corpus import CorpusStream, CorpusWave
from ..blocking.index import InvertedIndex, record_token_set
from ..data.records import Record, RecordPair
from ..exceptions import ConfigurationError, DataError
from ..obs import get_recorder
from ..registry import ComponentRegistry
from .cluster import record_key
from .events import EventLog, ResolutionEvent, STATE_DECISIONS, replay_events

if TYPE_CHECKING:  # pragma: no cover - typing only (no runtime serve import)
    from ..risk.model import PairRiskExplanation
    from ..serve.service import RiskService


@dataclass(frozen=True)
class ResolutionPolicy:
    """The online resolver's knobs: blocking signal + decision thresholds.

    Attributes
    ----------
    attributes:
        Record attributes the live blocking index tokenises.
    merge_threshold:
        A machine *match* with ``risk_score <= merge_threshold`` auto-merges;
        above it, the pair is escalated.
    split_threshold:
        A machine *unmatch* with ``risk_score <= split_threshold`` auto-splits
        (cannot-link); above it, the pair is escalated.
    min_shared, stop_tokens, max_postings:
        Passed to the live :class:`~repro.blocking.index.InvertedIndex`;
        ``max_postings`` is the open-ended-stream pruning cap.
    top_rules:
        Fired rules kept per event explanation (``None`` keeps all).
    explain:
        Attach fired-rule explanations to events.  Disabling scores without
        explaining (the bench's throughput mode).
    """

    attributes: tuple[str, ...]
    merge_threshold: float = 0.2
    split_threshold: float = 0.2
    min_shared: int = 1
    stop_tokens: tuple[str, ...] = ()
    max_postings: int | None = None
    top_rules: int | None = 3
    explain: bool = True

    def __post_init__(self) -> None:
        attributes = tuple(self.attributes)
        if not attributes or not all(isinstance(a, str) and a for a in attributes):
            raise ConfigurationError(
                "resolution policy needs a non-empty tuple of attribute names"
            )
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "stop_tokens", tuple(self.stop_tokens))
        for name in ("merge_threshold", "split_threshold"):
            value = float(getattr(self, name))
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(f"{name} must be in [0, 1], got {value}")
            object.__setattr__(self, name, value)
        if self.min_shared < 1:
            raise ConfigurationError("min_shared must be >= 1")
        if self.max_postings is not None and self.max_postings < 1:
            raise ConfigurationError("max_postings must be >= 1 or None")
        if self.top_rules is not None and self.top_rules < 1:
            raise ConfigurationError("top_rules must be >= 1 or None")

    def to_dict(self) -> dict[str, Any]:
        return {
            "attributes": list(self.attributes),
            "merge_threshold": self.merge_threshold,
            "split_threshold": self.split_threshold,
            "min_shared": self.min_shared,
            "stop_tokens": list(self.stop_tokens),
            "max_postings": self.max_postings,
            "top_rules": self.top_rules,
            "explain": self.explain,
        }

    @classmethod
    def from_dict(cls, values: Mapping[str, Any]) -> "ResolutionPolicy":
        if not isinstance(values, Mapping):
            raise ConfigurationError(
                f"resolution policy must be a mapping, got {type(values).__name__}"
            )
        return cls(**dict(values))

    def build_index(self) -> InvertedIndex:
        """A fresh live blocking index configured by this policy."""
        return InvertedIndex(
            min_shared=self.min_shared,
            stop_tokens=self.stop_tokens,
            max_postings=self.max_postings,
        )


#: Policy registry: lets a ``PipelineSpec``'s ``online`` component and the
#: serve layers name their decision policy from JSON configuration.
POLICIES = ComponentRegistry("resolution policy")
POLICIES.register("threshold", ResolutionPolicy)


def register_policy(key: str, factory=None, *, overwrite: bool = False):
    """Register a resolution-policy factory under ``key`` (decorator-friendly)."""
    return POLICIES.register(key, factory, overwrite=overwrite)


def registered_policies() -> list[str]:
    """Registered policy kinds, sorted."""
    return POLICIES.keys()


def create_policy(kind: str, params: Mapping[str, Any] | None = None) -> ResolutionPolicy:
    """Build a policy from its registry kind + params."""
    policy = POLICIES.create(kind, **dict(params or {}))
    if not isinstance(policy, ResolutionPolicy):
        raise ConfigurationError(
            f"resolution policy {kind!r} built a {type(policy).__name__}, "
            "expected a ResolutionPolicy"
        )
    return policy


@dataclass
class ResolutionSummary:
    """Counts of one resolution pass (what the CLI and bench print)."""

    records: int = 0
    pairs_scored: int = 0
    merges: int = 0
    splits: int = 0
    escalations: int = 0

    def observe(self, events: Iterable[ResolutionEvent]) -> None:
        for event in events:
            self.pairs_scored += 1
            if event.decision == "merge":
                self.merges += 1
            elif event.decision == "split":
                self.splits += 1
            elif event.decision == "escalate":
                self.escalations += 1

    def to_dict(self) -> dict[str, int]:
        return {
            "records": self.records,
            "pairs_scored": self.pairs_scored,
            "merges": self.merges,
            "splits": self.splits,
            "escalations": self.escalations,
        }


class OnlineResolver:
    """Incrementally resolve a record stream with an audited merge log.

    Parameters
    ----------
    service:
        A kernel-warm :class:`~repro.serve.service.RiskService` around the
        fitted pipeline; all scoring goes through it (cached, batched,
        bit-identical to the batch path).
    policy:
        The :class:`ResolutionPolicy` (blocking attributes + thresholds).
    event_log:
        The append-only log decisions go to; defaults to an in-memory log.
        A log loaded from an existing JSONL file resumes its cluster state
        by replay before any new record is accepted.
    recorder:
        Obs recorder the ``online.*`` counters/gauges/spans go to; defaults
        to the ambient :func:`~repro.obs.get_recorder` at each call (the CLI
        path), but the HTTP tier pins its metrics registry here so ``GET
        /stats`` sees the resolver's telemetry regardless of the global
        recorder.

    All public methods are thread-safe; one lock serialises resolution so
    cluster state, index and log always agree, while log *reads*
    (:meth:`events`) only take the log's own lock and never block a
    long-running resolve.
    """

    def __init__(
        self,
        service: "RiskService",
        policy: ResolutionPolicy,
        *,
        event_log: EventLog | None = None,
        recorder=None,
    ) -> None:
        self.service = service
        self.policy = policy
        self.log = event_log if event_log is not None else EventLog()
        self._pinned_recorder = recorder
        self._lock = threading.RLock()
        self._index = policy.build_index()
        self._records: dict[str, Record] = {}
        self._escalated: list[str] = []  # event ids awaiting human review
        # A resolver constructed on a non-empty (persisted) log resumes the
        # clusters the log describes; records/index state is stream-side and
        # rebuilds as the stream is re-fed.
        self.store = replay_events(self.log.events())

    def _recorder(self):
        return self._pinned_recorder if self._pinned_recorder is not None else get_recorder()

    # -------------------------------------------------------------- resolution
    def add_record(self, record: Record) -> list[ResolutionEvent]:
        """Resolve one arriving record; returns the decisions it produced."""
        recorder = self._recorder()
        with self._lock:
            started = time.perf_counter()
            with recorder.span("online_resolve"):
                key = record_key(record)
                if key in self._records:
                    raise DataError(
                        f"record key {key!r} was already resolved; online record "
                        "keys (source:record_id) must be unique per stream"
                    )
                tokens = record_token_set(record, self.policy.attributes)
                candidate_keys = self._index.candidates(tokens)
                self._records[key] = record
                self.store.add(key)
                events: list[ResolutionEvent] = []
                if candidate_keys:
                    pairs = [
                        RecordPair(self._records[candidate], record)
                        for candidate in candidate_keys
                    ]
                    # One pass per arrival: an explanation carries the
                    # probability, label and risk score it explains.
                    if self.policy.explain:
                        outcomes = [
                            (one.machine_probability, one.machine_label, one.risk_score, one)
                            for one in self.service.explain_pairs(
                                pairs, top_rules=self.policy.top_rules
                            )
                        ]
                    else:
                        outcomes = [
                            (one.probability, one.machine_label, one.risk_score, None)
                            for one in self.service.score_pairs(pairs)
                        ]
                    for candidate, outcome in zip(candidate_keys, outcomes):
                        events.append(self._decide(candidate, key, *outcome))
                # Index *after* probing so a record never pairs with itself.
                self._index.add(key, tokens)
            recorder.apply(
                counters={
                    "online.records": 1,
                    "online.pairs_scored": len(candidate_keys),
                },
                observations={"online.decision_seconds": time.perf_counter() - started},
                gauges={"online.queue_depth": len(self._escalated)},
            )
            return events

    def _decide(
        self,
        left_key: str,
        right_key: str,
        probability: float,
        machine_label: int,
        risk_score: float,
        explanation: "PairRiskExplanation | None",
    ) -> ResolutionEvent:
        """Apply the policy to one scored pair and log the decision."""
        policy = self.policy
        store = self.store
        before_left = store.members(left_key)
        before_right = store.members(right_key)
        threshold = (
            policy.merge_threshold if machine_label == 1 else policy.split_threshold
        )
        cluster_after: list[str] | None = None

        if risk_score > threshold:
            decision, reason = "escalate", "risk_above_threshold"
        elif machine_label == 1:
            if store.find(left_key) == store.find(right_key):
                decision, reason = "merge", "already_same_cluster"
            elif store.can_merge(left_key, right_key):
                decision, reason = "merge", "risk_below_merge_threshold"
            else:
                decision, reason = "escalate", "cannot_link_conflict"
        else:
            if store.find(left_key) == store.find(right_key):
                decision, reason = "escalate", "split_within_cluster"
            else:
                decision, reason = "split", "risk_below_split_threshold"

        recorder = self._recorder()
        if decision == "merge":
            store.merge(left_key, right_key)
            cluster_after = store.members(left_key)
            recorder.count("online.merges")
        elif decision == "split":
            store.split(left_key, right_key)
            recorder.count("online.splits")
        else:
            recorder.count("online.escalations")

        left, right = self._records[left_key], self._records[right_key]
        event = self.log.append(
            decision=decision,
            left_id=left.record_id,
            left_source=left.source,
            right_id=right.record_id,
            right_source=right.source,
            reason=reason,
            probability=probability,
            machine_label=machine_label,
            risk_score=risk_score,
            threshold=threshold,
            explanation=explanation.to_dict() if explanation is not None else None,
            cluster_before_left=before_left,
            cluster_before_right=before_right,
            cluster_after=cluster_after,
        )
        if decision == "escalate":
            self._escalated.append(event.event_id)
        return event

    def resolve_wave(self, wave: CorpusWave) -> list[ResolutionEvent]:
        """Feed one corpus wave (left table, then right table) record by record."""
        events: list[ResolutionEvent] = []
        for record in wave.left:
            events.extend(self.add_record(record))
        for record in wave.right:
            events.extend(self.add_record(record))
        return events

    def resolve_corpus(
        self, corpus: CorpusStream, max_waves: int | None = None
    ) -> ResolutionSummary:
        """Stream a whole corpus through the resolver; returns pass counts."""
        summary = ResolutionSummary()
        for number, wave in enumerate(corpus.waves(), start=1):
            events = self.resolve_wave(wave)
            summary.records += wave.n_records
            summary.observe(events)
            if max_waves is not None and number >= max_waves:
                break
        return summary

    # ------------------------------------------------------------------ revert
    def revert(self, event_id: str) -> ResolutionEvent:
        """Revert a merge/split decision; cluster state is rebuilt by replay.

        The revert is itself an appended event (the log stays append-only);
        the new cluster store is ``replay_events(log)`` — deterministic, and
        bit-identical to what any other reader replaying the log computes.
        """
        with self._lock:
            target = self.log.event(event_id)
            if target.decision not in STATE_DECISIONS:
                raise DataError(
                    f"event {event_id!r} is a {target.decision!r} decision; "
                    "only merge/split decisions can be reverted"
                )
            if event_id in self.log.reverted_event_ids():
                raise DataError(f"event {event_id!r} was already reverted")
            event = self.log.append(
                decision="revert",
                left_id=target.left_id,
                left_source=target.left_source,
                right_id=target.right_id,
                right_source=target.right_source,
                reason=f"revert_{target.decision}",
                target_event_id=event_id,
            )
            self.store = replay_events(self.log.events())
            for key in self._records:
                self.store.add(key)
            self._recorder().count("online.reverts")
            return event

    def revert_with_state(self, event_id: str) -> tuple[ResolutionEvent, dict]:
        """:meth:`revert`, and the :meth:`state_dict` it leaves, under one lock hold.

        No decision another thread makes after the revert can show in the
        returned state, so it always equals the replay of the log up to and
        including the revert event.
        """
        with self._lock:
            return self.revert(event_id), self.store.to_dict()

    # -------------------------------------------------------------- inspection
    def events(self, since: int = 0) -> list[ResolutionEvent]:
        """The decision log (``since`` = last sequence already seen)."""
        return self.log.events(since=since)

    def cluster_of(self, key: str) -> list[str]:
        """Sorted member keys of the cluster containing record ``key``."""
        with self._lock:
            return self.store.members(key)

    def escalations(self) -> list[ResolutionEvent]:
        """Escalated decisions awaiting review, oldest first."""
        with self._lock:
            pending = list(self._escalated)
        return [self.log.event(event_id) for event_id in pending]

    @property
    def record_count(self) -> int:
        with self._lock:
            return len(self._records)

    def state_dict(self) -> dict:
        """The cluster store's canonical exported state (replay-comparable)."""
        with self._lock:
            return self.store.to_dict()
