"""``batch_score``: block a generated corpus and score every candidate.

Each pass is one batch job: a freshly loaded service (built off the clock)
streams ``BlockingPairSource`` + ``InvertedIndexBlocker(("title",
"authors"), min_shared=2)`` candidates through ``RiskService.score_source``
at CLI defaults (batch 256, cache 4096).  No pair repeats within a pass and
every pass starts cold; the LRU cache sits idle and the online and HTTP
layers are never touched.  Passes cycle through a few corpora generated from
the seed, so one run averages over several inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

from gates import compare_scores
from harness import (
    BLOCK_ATTRIBUTES,
    SERVICE_BATCH,
    Budget,
    RunResult,
    Samples,
    SpeedProbe,
    clock,
    fit_and_save,
    frozen_corpus,
    generate_waves,
    mislabel_auroc,
    new_service,
    workload_seed,
)

NAME = "batch_score"
ENTITIES_PER_WAVE = 150
WAVES = 2
#: Distinct corpora the passes cycle through.
CORPORA = 6
#: Pairs re-scored one at a time by the batch ≡ scalar gate.
GATE_SAMPLE = 64
#: Passes of the traced run (fixed work, so its counts repeat exactly).
TRACE_UNITS = 4
WARM_UP_PASSES = 3

PARAMS = {
    "entities_per_wave": ENTITIES_PER_WAVE, "waves": WAVES, "corpora": CORPORA,
    "blocker": "inverted",
    "attributes": list(BLOCK_ATTRIBUTES), "min_shared": 2,
    "batch_size": SERVICE_BATCH, "cache_size": 4096, "gate_sample": GATE_SAMPLE,
}


@dataclass
class State:
    model_dir: Path
    corpora: list[list]
    seed: int


def setup(directory: Path, seed: int) -> State:
    corpora = [generate_waves(ENTITIES_PER_WAVE, WAVES, workload_seed(seed, 10 * k), "batch")
               for k in range(CORPORA)]
    model_dir = fit_and_save(directory)
    new_service(model_dir)
    return State(model_dir, corpora, seed)


class _TimedChunks:
    """A pair source recording how long each chunk pull from the blocker takes."""

    def __init__(self, source) -> None:
        self.source = source
        #: Pulls since the caller last took them, in raw CPU seconds.
        self.pending: list[float] = []

    def iter_chunks(self, chunk_size: int) -> Iterator[list]:
        chunks = iter(self.source.iter_chunks(chunk_size))
        while True:
            started = clock()
            chunk = next(chunks, None)
            self.pending.append(clock() - started)
            if chunk is None:
                return
            yield chunk


def _one_pass(model_dir: Path, waves: list, latencies: Samples, pulls: Samples):
    """Block + score one corpus; returns (scored pairs, seconds, batches, service).

    Every batch is timed, then scaled by a :class:`SpeedProbe` taken between
    batches; the probe's own time is left out.
    """
    from repro.blocking import BlockingPairSource, InvertedIndexBlocker

    service = new_service(model_dir)
    source = BlockingPairSource(
        frozen_corpus(waves), [InvertedIndexBlocker(BLOCK_ATTRIBUTES, min_shared=2)]
    )
    timed = _TimedChunks(source)
    latencies.next_unit()
    pulls.next_unit()
    scored, seconds, probe = [], 0.0, SpeedProbe()

    def lap(started: float) -> float:
        """Scaled seconds since ``started``; scales and records the pulls made since."""
        nonlocal seconds
        raw = clock() - started
        factor = probe.scale()
        for pull in timed.pending:
            pulls.add(pull * factor)
        timed.pending.clear()
        seconds += raw * factor
        return raw * factor

    last = clock()
    for scored_pair in service.score_source(timed):
        # The first pair of each batch arrives right after the batch is scored.
        if len(scored) % SERVICE_BATCH == 0:
            latencies.add(lap(last))
            last = clock()
        scored.append(scored_pair)
    lap(last)
    return scored, seconds, -(-len(scored) // SERVICE_BATCH), service


def warm_up(state: State) -> None:
    """A few untimed passes: the process's first passes run up to 2x slower."""
    for waves in state.corpora[:WARM_UP_PASSES]:
        _one_pass(state.model_dir, waves, Samples(), Samples())


def run(state: State, budget: Budget) -> RunResult:
    latencies, pulls = Samples(), Samples()
    totals: dict[str, list[int]] = {"pairs": [], "records": [], "batches": []}
    #: The first pass's output per corpus; later passes must match it exactly.
    reference: dict[int, list] = {}
    problems: list[str] = []
    attempted = failed = 0
    stats = []
    elapsed = 0.0
    while budget.more(len(totals["pairs"]), elapsed, minimum=len(state.corpora)):
        index = len(totals["pairs"]) % len(state.corpora)
        waves = state.corpora[index]
        scored, seconds, batches, service = _one_pass(state.model_dir, waves, latencies, pulls)
        elapsed += seconds
        stats.append(service.stats.snapshot())
        totals["pairs"].append(len(scored))
        totals["records"].append(sum(wave.n_records for wave in waves))
        totals["batches"].append(batches)
        attempted += batches
        if index not in reference:
            reference[index] = scored
        elif compare_scores("repeated pass", scored, reference[index]):
            failed += batches
            problems.append(f"pass {len(totals['pairs'])} scored corpus {index} differently")

    pooled = [one for index in sorted(reference) for one in reference[index]]
    truths = [one.pair.ground_truth for one in pooled]
    auroc = mislabel_auroc([one.machine_label for one in pooled], truths,
                           [one.risk_score for one in pooled])

    def one_at_a_time() -> tuple[int, list[str]]:
        """Gate: a seeded sample re-scored one pair at a time equals the batch."""
        sample = random.Random(state.seed).sample(pooled, min(GATE_SAMPLE, len(pooled)))
        single = new_service(state.model_dir, cache_size=0)
        rescored = [single.score_pairs([expected.pair])[0] for expected in sample]
        return len(sample), compare_scores("one-at-a-time re-score vs batch", rescored, sample)

    return RunResult(
        metrics={
            # Totals over every pass, so one run averages its corpora.
            "pairs_per_s": sum(totals["pairs"]) / elapsed,
            "records_per_s": sum(totals["records"]) / elapsed,
            "max_rate_rps": sum(totals["batches"]) / elapsed,
            "risk_auroc": auroc,
            "latency_p50_ms": latencies.p(50),
            # A pass has only ~14 batches, so its tail is its slowest batch;
            # the run reports the median pass's.
            "latency_p99_ms": latencies.unit_p(99),
            "write_p99_ms": pulls.unit_p(99),
        },
        samples={
            "latency_p50_ms": len(latencies), "latency_p99_ms": len(latencies),
            "write_p99_ms": len(pulls), "passes": len(totals["pairs"]),
        },
        attempted=attempted,
        failed=failed,
        service_stats=stats,
        problems=problems,
        checks=[one_at_a_time],
    )
