"""Online incremental entity resolution with an audited merge log.

Records arrive one at a time; each arrival is blocked against a live index,
risk-scored through the same batch-invariant service the offline pipeline
uses, and auto-merged, auto-split or escalated by the policy's risk
thresholds — the paper's operational payoff: risk analysis deciding *which*
machine decisions to trust.  Every decision lands in an append-only event
log, so the example can

1. stream a small generated corpus through an :class:`OnlineResolver`,
2. inspect the audit trail of one merge (probability, risk score, threshold,
   fired rules, cluster states before/after),
3. revert that merge and show the cluster store rebuilt deterministically by
   replaying the log without it, and
4. prove any independent reader replaying the JSONL file reconstructs the
   exact same clusters.

Run with::

    python examples/online_resolution.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

from repro.blocking import GeneratedCorpus
from repro.compose import build_pipeline
from repro.data.generators import GenerationConfig, generate_workload, make_generator
from repro.data.workload import split_workload
from repro.online import EventLog, OnlineResolver, ResolutionPolicy, replay_events
from repro.serve import RiskService


def fit_service(seed: int = 0) -> RiskService:
    """Fit a small LearnRisk pipeline on a generated bibliographic workload."""
    workload = generate_workload(
        make_generator("bibliographic"), GenerationConfig(n_base_entities=250, seed=seed),
        "online-fit",
    )
    split = split_workload(workload, ratio=(3, 2, 5), seed=seed)
    pipeline = build_pipeline(
        {"classifier": {"kind": "logistic", "params": {"epochs": 60}}, "seed": seed}
    )
    pipeline.fit(split.train, split.validation)
    return RiskService(pipeline)


def main() -> None:
    print("fitting the risk-scoring pipeline ...")
    service = fit_service()

    policy = ResolutionPolicy(
        attributes=("title", "authors"),
        merge_threshold=0.6,   # trust low-risk machine matches
        split_threshold=0.6,   # trust low-risk machine unmatches
        min_shared=2,
        top_rules=2,
    )
    corpus = GeneratedCorpus(
        "bibliographic", GenerationConfig(n_base_entities=40),
        n_waves=2, name="stream", seed=11,
    )

    with tempfile.TemporaryDirectory() as tmp:
        events_path = Path(tmp) / "events.jsonl"
        resolver = OnlineResolver(service, policy, event_log=EventLog(events_path))

        print("streaming the corpus one record at a time ...")
        summary = resolver.resolve_corpus(corpus)
        print(f"  {summary.records} records, {summary.pairs_scored} pairs scored: "
              f"{summary.merges} merged, {summary.splits} split, "
              f"{summary.escalations} escalated to review")

        merges = [e for e in resolver.events() if e.decision == "merge"
                  and e.cluster_after and len(e.cluster_after) > 1]
        event = merges[0]
        print(f"\naudit trail of {event.event_id}:")
        print(f"  pair       : {event.left_key} <-> {event.right_key}")
        print(f"  probability: {event.probability:.4f}  "
              f"risk {event.risk_score:.4f} <= threshold {event.threshold}")
        if event.explanation:
            for rule in event.explanation.get("fired_rules", []):
                print(f"  fired rule : {rule['description']} "
                      f"(weight share {rule['weight_share']:.3f})")
        print(f"  cluster    : {event.cluster_before_left} + "
              f"{event.cluster_before_right} -> {event.cluster_after}")

        print(f"\nreverting {event.event_id} (the log stays append-only) ...")
        revert = resolver.revert(event.event_id)
        print(f"  appended {revert.event_id} ({revert.reason}); "
              f"{event.left_key} now lives in {resolver.cluster_of(event.left_key)}")

        # Any reader replaying the JSONL file computes the same clusters.
        replayed = replay_events(EventLog(events_path).events())
        assert replayed.to_dict() == resolver.state_dict()
        clusters = resolver.state_dict()["clusters"]
        print(f"\nindependent replay of {events_path.name} reconstructs the "
              f"same state: {len(clusters)} multi-record clusters")
        for root, members in list(clusters.items())[:3]:
            print(f"  {root}: {members}")

    print("\nthe same resolver runs behind the serve tier: "
          "`python -m repro.serve resolve` (CLI) or "
          "`python -m repro.serve http --resolve-attributes title,authors` "
          "(POST /resolve, GET /clusters/{id}, GET /events, POST /events/revert).")


if __name__ == "__main__":
    main()
