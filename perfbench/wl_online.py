"""``online_resolve``: stream a corpus one record at a time through the resolver.

Each session is a fresh kernel-warm service (built off the clock), a fresh
file-backed ``EventLog`` and an ``OnlineResolver`` under the production
policy (``explain=True``, ``top_rules=3``, ``min_shared=2``,
``max_postings=256``); the session's records arrive one ``add_record`` call
at a time.  Batches are small, the explain pass explains every scored pair
again, and the cluster store and log grow with the session's history.
Sessions cycle through a few streams generated from the seed, so one run
averages over several inputs; sessions of the same stream must journal the
same bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

from gates import compare_scores
from harness import (
    BLOCK_ATTRIBUTES,
    Budget,
    RunResult,
    Samples,
    SpeedProbe,
    clock,
    fit_and_save,
    generate_waves,
    is_match,
    mislabel_auroc,
    new_service,
    stream_records,
    workload_seed,
)

NAME = "online_resolve"
ENTITIES = 85
#: Distinct record streams the sessions cycle through.
STREAMS = 4
#: Sessions of the traced run (fixed work, so its counts repeat exactly).
TRACE_UNITS = 2
WARM_UP_RECORDS = 100

POLICY = {
    "attributes": list(BLOCK_ATTRIBUTES), "min_shared": 2, "max_postings": 256,
    "explain": True, "top_rules": 3, "merge_threshold": 0.2, "split_threshold": 0.2,
}
PARAMS = {"entities": ENTITIES, "waves": 1, "streams": STREAMS, "policy": POLICY,
          "batch_size": 256, "cache_size": 4096}


def policy():
    from repro.online import ResolutionPolicy

    return ResolutionPolicy.from_dict(POLICY)


@dataclass
class State:
    model_dir: Path
    streams: list[list]
    workdir: Path


def setup(directory: Path, seed: int) -> State:
    streams = [stream_records(generate_waves(ENTITIES, 1, workload_seed(seed, 10 * k + 2),
                                             "online"))
               for k in range(STREAMS)]
    model_dir = fit_and_save(directory)
    new_service(model_dir)
    return State(model_dir, streams, directory)


def warm_up(state: State) -> None:
    """An untimed partial session, so the measured ones skip process warm-up."""
    from repro.online import OnlineResolver

    resolver = OnlineResolver(new_service(state.model_dir), policy())
    for record in state.streams[0][:WARM_UP_RECORDS]:
        resolver.add_record(record)


def run(state: State, budget: Budget) -> RunResult:
    from repro.data.records import RecordPair
    from repro.online import EventLog, OnlineResolver, record_key, replay_events

    class JournalLog(EventLog):
        """The session's ``EventLog``, adding up the CPU time its appends take."""

        spent = 0.0

        def append(self, **fields):
            started = clock()
            try:
                return super().append(**fields)
            finally:
                self.spent += clock() - started

    #: ``writes``: per record that decided anything, its journal appends' time.
    latencies, late, writes = Samples(), Samples(), Samples()
    pair_counts: list[int] = []
    #: Per stream: the first session's log digest and final state.
    first: dict[int, tuple[str, dict]] = {}
    #: (machine label, truth, risk) of every decision in each stream's first session.
    decided: list[tuple[int, int, float]] = []
    problems: list[str] = []
    attempted = failed = 0
    stats = []
    decisions = {"merge": 0, "split": 0, "escalate": 0}
    log_bytes = 0
    elapsed = 0.0
    while budget.more(len(pair_counts), elapsed, minimum=len(state.streams)):
        session = len(pair_counts)
        stream = session % len(state.streams)
        records = state.streams[stream]
        log_path = state.workdir / "events.jsonl"
        log_path.unlink(missing_ok=True)
        service = new_service(state.model_dir)
        log = JournalLog(log_path)
        resolver = OnlineResolver(service, policy(), event_log=log)
        session_events = []
        probe = SpeedProbe()
        for position, record in enumerate(records):
            journalled = log.spent
            started = clock()
            events = resolver.add_record(record)
            seconds = clock() - started
            elapsed += seconds
            factor = probe.scale()
            latencies.add(seconds * factor)
            if position >= len(records) // 2:
                late.add(seconds * factor)
            if events:
                writes.add((log.spent - journalled) * factor)
            attempted += 1
            session_events.extend(events)
            for event in events:
                decisions[event.decision] += 1
        pair_counts.append(len(session_events))
        stats.append(service.stats.snapshot())

        # Sessions of one stream journal the same bytes and end in the same state.
        attempted += 1
        log_bytes += log_path.stat().st_size
        outcome = (hashlib.sha256(log_path.read_bytes()).hexdigest(), resolver.state_dict())
        if stream not in first:
            first[stream] = outcome
            by_key = {record_key(record): record for record in records}
            decided += [(e.machine_label, is_match(RecordPair(by_key[e.left_key],
                                                              by_key[e.right_key])),
                         e.risk_score) for e in session_events]
        elif outcome != first[stream]:
            failed += 1
            problems.append(f"session {session}: stream {stream} journalled differently")

    events = session_events
    by_key = {record_key(record): record for record in records}
    pairs = [RecordPair(by_key[e.left_key], by_key[e.right_key]) for e in events]
    final_state = outcome[1]

    def replay() -> tuple[int, list[str]]:
        """Gate: replaying the journalled log reproduces the live state."""
        replayed = replay_events(EventLog(log_path).events()).to_dict()
        return 1, [] if replayed == final_state else ["replay_events(log) != state_dict()"]

    def online_equals_batch() -> tuple[int, list[str]]:
        """Gate: online event scores equal batch scoring of the same pairs."""
        batch = new_service(state.model_dir, cache_size=0).score_pairs(pairs)
        return len(events), compare_scores("online events vs batch scoring", events, batch)

    labels, truths, risks = zip(*decided)
    auroc = mislabel_auroc(labels, truths, risks)
    return RunResult(
        metrics={
            # Totals over every session, so one run averages its streams.
            "pairs_per_s": sum(pair_counts) / sum(latencies.values),
            "records_per_s": len(latencies) / sum(latencies.values),
            # The arrival rate a resolver keeps up with once its history has
            # grown: records per second over the second half of every session.
            "max_rate_rps": len(late) / sum(late.values),
            "risk_auroc": auroc,
            "latency_p50_ms": latencies.p(50),
            "latency_p99_ms": latencies.p(99),
            "write_p99_ms": writes.p(99),
        },
        samples={
            "latency_p50_ms": len(latencies), "latency_p99_ms": len(latencies),
            "write_p99_ms": len(writes), "max_rate_rps": len(late),
            "sessions": len(pair_counts),
        },
        attempted=attempted,
        failed=failed,
        layer={
            "online.merges": decisions["merge"],
            "online.splits": decisions["split"],
            "online.escalations": decisions["escalate"],
            "online.log_bytes": log_bytes,
            "online.add_record_clock_s": sum(latencies.values),
        },
        service_stats=stats,
        problems=problems,
        checks=[replay, online_equals_batch],
    )
