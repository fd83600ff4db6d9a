"""Span tracing from outside the program: wrap public calls into each layer.

:class:`Tracer` replaces chosen methods of the program's classes with timed
wrappers for the duration of a traced pass and restores them afterwards.
Every call becomes a span ``(id, parent id, name, group, start, end)``; the
parent is the innermost open span on the same thread, so spans opened by the
HTTP server's executor threads nest correctly too.  Spans stay in memory and
are summarised when the pass ends:

* a span's **self time** is its duration minus the durations of its child
  spans (children nest strictly inside their parent on one thread);
* a name's **outer time** sums only the spans not nested inside another span
  of the same *group*, so recursive or re-entrant calls are never counted
  twice.

Untraced passes never construct a tracer, so they run the unmodified code.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable

#: ``counter(counts, args, result)`` — adds a call's work to ``counts``.
Counter = Callable[[dict, tuple, Any], None]


@dataclass(frozen=True)
class Span:
    sid: int
    parent: int
    name: str
    group: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class NameSummary:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    outer_s: float = 0.0


class Tracer:
    """Timed wrappers around class attributes, restored on exit."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[type, str, Any]] = []

    # ------------------------------------------------------------ recording
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _timed(self, name: str, group: str, call: Callable[[], Any]) -> Any:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else 0
        stack.append(sid)
        start = self.clock()
        try:
            return call()
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append(Span(sid, parent, name, group, start, end))

    def patch(self, owner: type, attribute: str, name: str, group: str,
              counter: Counter | None = None) -> None:
        """Time every call of ``owner.attribute`` as a span called ``name``."""
        original = owner.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            result = tracer._timed(name, group, lambda: original(*args, **kwargs))
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        self._install(owner, attribute, original, traced)

    def patch_iterator(self, owner: type, attribute: str, name: str, group: str,
                       counter: Counter | None = None) -> None:
        """Time every ``next()`` of the iterator ``owner.attribute`` returns."""
        original = owner.__dict__[attribute]
        tracer = self
        done = object()

        @functools.wraps(original)
        def traced(*args, **kwargs):
            inner = iter(original(*args, **kwargs))
            while True:
                item = tracer._timed(name, group, lambda: next(inner, done))
                if item is done:
                    return
                if counter is not None:
                    counter(tracer.counts, args, item)
                yield item

        self._install(owner, attribute, original, traced)

    def _install(self, owner: type, attribute: str, original: Any, traced: Any) -> None:
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def restore(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.restore()

    # ------------------------------------------------------------ summaries
    def summary(self) -> dict[str, NameSummary]:
        """Calls, total, self and outer seconds per span name."""
        spans = list(self.spans)
        child_seconds: dict[int, float] = defaultdict(float)
        group_of = {span.sid: span.group for span in spans}
        for span in spans:
            if span.parent:
                child_seconds[span.parent] += span.seconds
        table: dict[str, NameSummary] = defaultdict(NameSummary)
        for span in spans:
            entry = table[span.name]
            entry.calls += 1
            entry.total_s += span.seconds
            entry.self_s += span.seconds - child_seconds[span.sid]
            if group_of.get(span.parent) != span.group:
                entry.outer_s += span.seconds
        return dict(table)

    def reset(self) -> None:
        """Drop recorded spans and counts (the patches stay installed)."""
        self.spans = []
        self.counts = defaultdict(float)


# ------------------------------------------------------------ layer probes
def _count_rows(key: str) -> Counter:
    def counter(counts: dict, args: tuple, result: Any) -> None:
        counts[key] += len(result)
        counts[key + "_calls"] += 1
    return counter


def _count_candidates(counts: dict, args: tuple, result: Any) -> None:
    counts["blocking.fanout"] += len(result)
    counts["blocking.probes"] += 1


def install_layer_probes(tracer: Tracer) -> None:
    """Wrap the public entry points of every layer the workloads reach."""
    from repro.blocking import BlockingPairSource, InvertedIndex
    from repro.compose.staged import StagedPipeline
    from repro.features.vectorizer import PairVectorizer
    from repro.online import ClusterStore, EventLog, OnlineResolver
    from repro.risk.model import LearnRiskModel
    from repro.serve.service import RiskService

    for stage in ("fit_vectorizer", "fit_classifier", "generate_risk_features",
                  "fit_risk_model"):
        tracer.patch(StagedPipeline, stage, f"compose.{stage}", "compose")
    tracer.patch_iterator(BlockingPairSource, "iter_chunks", "blocking.busy", "blocking",
                          counter=_count_rows("blocking.candidates"))
    tracer.patch(InvertedIndex, "candidates", "blocking.probe", "probe",
                 counter=_count_candidates)
    tracer.patch(InvertedIndex, "add", "blocking.probe", "probe")
    tracer.patch(PairVectorizer, "transform", "features.vectorize", "features",
                 counter=_count_rows("features.pairs"))
    tracer.patch(StagedPipeline, "classify_matrix", "classifiers.classify", "classifiers")
    tracer.patch(LearnRiskModel, "score", "risk.score", "risk")
    tracer.patch(RiskService, "explain_pairs", "risk.explain", "explain",
                 counter=_count_rows("risk.explain_pairs"))
    tracer.patch(RiskService, "score_pairs", "service.score_pairs", "service")
    tracer.patch_iterator(RiskService, "score_source", "service.score_pairs", "service")
    tracer.patch(OnlineResolver, "add_record", "online.add_record", "online")
    tracer.patch(ClusterStore, "members", "online.members", "cluster")
    for method in ("add", "can_merge", "merge", "split"):
        tracer.patch(ClusterStore, method, "online.store", "cluster")
    tracer.patch(EventLog, "append", "online.log_append", "log")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(fit: dict[str, NameSummary], tracer: Tracer,
                  span_totals: dict[str, float], service_stats: list[dict]) -> dict[str, float]:
    """The per-layer figures of one traced pass; ``fit`` summarises its set-up."""
    table = tracer.summary()
    counts = tracer.counts

    def outer(name: str, summary: dict = table) -> float:
        return summary[name].outer_s if name in summary else 0.0

    def calls(name: str) -> int:
        return table[name].calls if name in table else 0

    stats = {key: sum(s.get(key, 0.0) for s in service_stats)
             for key in ("batches", "pairs_scored", "cache_hits", "cache_misses")}
    metrics = {
        f"compose.{stage}_s": outer(f"compose.{stage}", fit)
        for stage in ("fit_vectorizer", "fit_classifier", "generate_risk_features",
                      "fit_risk_model")
    }
    add_record = table.get("online.add_record")
    metrics.update({
        "blocking.busy_s": outer("blocking.busy"),
        "blocking.candidates": counts["blocking.candidates"],
        "blocking.probe_s": outer("blocking.probe"),
        "blocking.fanout_mean": _ratio(counts["blocking.fanout"], counts["blocking.probes"]),
        "features.vectorize_s": outer("features.vectorize"),
        "features.pairs": counts["features.pairs"],
        "features.batch_mean": _ratio(counts["features.pairs"], counts["features.pairs_calls"]),
        "features.corpus_index_entries": max(
            (s.get("corpus_index_entries", 0.0) for s in service_stats), default=0.0),
        "classifiers.classify_s": outer("classifiers.classify"),
        "risk.score_s": outer("risk.score"),
        "risk.rule_kernel_s": span_totals.get("rule_kernel", 0.0),
        "risk.aggregate_s": span_totals.get("aggregate", 0.0),
        "risk.explain_s": outer("risk.explain"),
        "risk.explain_pairs": counts["risk.explain_pairs"],
        "service.score_pairs_s": outer("service.score_pairs"),
        "service.batches": stats["batches"],
        "service.batch_mean": _ratio(stats["pairs_scored"], stats["batches"]),
        "service.cache_hits": stats["cache_hits"],
        "service.cache_misses": stats["cache_misses"],
        "service.cache_hit_ratio": _ratio(
            stats["cache_hits"], stats["cache_hits"] + stats["cache_misses"]),
        "online.members_s": outer("online.members"),
        "online.members_calls": calls("online.members"),
        "online.store_s": outer("online.store"),
        "online.log_append_s": outer("online.log_append"),
        "online.self_s": add_record.self_s if add_record else 0.0,
        "online.add_record_s": add_record.total_s if add_record else 0.0,
    })
    return metrics


#: Layers whose times sum to the traced ``add_record`` wall time: the record's
#: own code plus every call it makes into another layer.
ADD_RECORD_PARTS = ("online.self_s", "online.members_s", "online.store_s",
                    "online.log_append_s", "service.score_pairs_s", "risk.explain_s",
                    "blocking.probe_s")
