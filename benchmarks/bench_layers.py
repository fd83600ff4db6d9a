"""Layer gates and figures that perfbench does not cover.

``perfbench/`` measures the batch, online and HTTP paths end to end, and
tier-1 holds every bit-parity gate.  This script keeps the rest:

* **timing gates**, timed with :func:`time.perf_counter`, never under
  ``tracemalloc``:

  - the warm LRU cache serves 100%-repeat traffic faster than
    ``cache_size=0`` (the ``CorpusIndex`` memo alone), best of 20 passes;
  - 4 process workers score at least 2x faster than 1, best of two tries,
    checked only where at least 4 cores are available;

* **memory gates**, each its own ``tracemalloc`` pass with no clock inside:

  - streamed ``CsvPairSource`` scoring peaks below eager ``import_workload``;
  - streamed blocked-source scoring peaks below materialise-then-score;
  - a loose blocker's streamed candidates peak below its materialised list;
  - online resolution peaks below a materialise-everything batch control;

* **figures** (full mode only): recall, candidates and seconds per blocker at
  ~10^5 records, the ``RuleKernel`` time grid over 10k-200k pairs x 50/200
  rules, and pairs/s at 1, 2 and 4 process workers.

Every leg scores with the model ``perfbench/harness.py`` fits, through its
``new_service`` at the CLI defaults.  Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_layers.py --smoke   # the gates
    PYTHONPATH=src python benchmarks/bench_layers.py           # + figures -> BENCH_layers.json

The exit code is 1 when any gate fails.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import tempfile
import time
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from harness import environment_stamp, fit_and_save, generate_waves, new_service, stream_records

from repro.blocking import GeneratedCorpus, InvertedIndexBlocker, MinHashLSHBlocker
from repro.compose import create_source
from repro.data import CsvPairSource, export_workload, import_workload, load_dataset, split_workload
from repro.data.generators import GenerationConfig
from repro.data.records import RecordPair
from repro.data.workload import Workload
from repro.online import EventLog, OnlineResolver, ResolutionPolicy, record_key, replay_events
from repro.parallel import ExecutionConfig
from repro.risk.engine import RuleKernel
from repro.risk.rules import Condition, RiskRule
from repro.serve import load_pipeline
from repro.serve.cli import SCORED_CSV_HEADER, scored_csv_row

SEED = 0
ATTRIBUTES = ["title", "authors"]
#: Timed passes per cache regime; the best of each is compared.
CACHE_PASSES = 20
WORKER_PAIRS = 20_000
#: The resolver's throughput mode: production thresholds, explanations off.
POLICY = {"attributes": ATTRIBUTES, "merge_threshold": 0.2, "split_threshold": 0.2,
          "min_shared": 2, "max_postings": 256, "explain": False}


def traced_peak(work) -> tuple[int, object]:
    """Peak traced bytes of ``work()`` and its result; nothing is timed here."""
    tracemalloc.start()
    try:
        result = work()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


def write_scored(scored_pairs, path: Path) -> int:
    """Write scored pairs as the ``serve score`` CSV as they arrive; returns the rows."""
    rows = 0
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(SCORED_CSV_HEADER)
        for scored in scored_pairs:
            writer.writerow(scored_csv_row(scored))
            rows += 1
    return rows


def check(gates: dict, name: str, passed: bool, **figures) -> None:
    gates[name] = {"passed": passed, **figures}
    print(f"  {name:<16} {'ok' if passed else 'FAIL'}  {json.dumps(figures)}")


# --------------------------------------------------------------- timing gates
def cache_gate(gates: dict, model_dir: Path) -> None:
    """Warm LRU pairs/s must beat ``cache_size=0`` pairs/s on repeat traffic."""
    pairs = split_workload(load_dataset("DS", scale=0.15), ratio=(3, 2, 5), seed=SEED).test.pairs
    services = {"warm": new_service(model_dir), "uncached": new_service(model_dir, cache_size=0)}
    for service in services.values():
        service.score_pairs(pairs)  # the cold pass fills the LRU and the memo
    best = dict.fromkeys(services, 0.0)
    for _ in range(CACHE_PASSES):
        for name, service in services.items():
            started = time.perf_counter()
            service.score_pairs(pairs)
            best[name] = max(best[name], len(pairs) / (time.perf_counter() - started))
    speedup = best["warm"] / best["uncached"]
    check(gates, "cache", speedup > 1.0, ds_scale=0.15, pairs=len(pairs), passes=CACHE_PASSES,
          warm_pairs_per_s=round(best["warm"]), uncached_pairs_per_s=round(best["uncached"]),
          speedup=round(speedup, 3))


def scoring_workload(n_pairs: int) -> Workload:
    """``n_pairs`` DS pairs resampled with a fixed seed."""
    pool = load_dataset("DS", scale=0.3)
    picks = np.random.default_rng(7).integers(0, len(pool.pairs), size=n_pairs)
    return Workload(f"layers-{n_pairs}", [pool.pairs[int(i)] for i in picks],
                    pool.left_table, pool.right_table)


def pairs_per_s(pipeline, workload: Workload, workers: int) -> float:
    execution = ExecutionConfig(workers=workers, backend="process" if workers > 1 else "serial")
    started = time.perf_counter()
    for _ in pipeline.analyse_batches(workload, batch_size=512, execution=execution):
        pass
    return len(workload) / (time.perf_counter() - started)


def worker_gate(gates: dict, model_dir: Path) -> None:
    """At least 2x at 4 workers, where 4 cores exist (best of two tries)."""
    cores = len(os.sched_getaffinity(0))
    if cores < 4:
        check(gates, "workers", True, skipped=f"{cores} core(s) available")
        return
    pipeline, workload = load_pipeline(model_dir), scoring_workload(WORKER_PAIRS)
    speedup = 0.0
    for _ in range(2):
        speedup = max(speedup, pairs_per_s(pipeline, workload, 4) / pairs_per_s(pipeline, workload, 1))
        if speedup >= 2.0:
            break
    check(gates, "workers", speedup >= 2.0, cores=cores, speedup=round(speedup, 3))


# --------------------------------------------------------------- memory gates
def ingest_gate(gates: dict, model_dir: Path, directory: Path) -> None:
    """Streamed CSV scoring must peak below eager loading (DS scale 0.3, chunk 64)."""
    workload, chunk = load_dataset("DS", scale=0.3), 64
    schema, data_dir = workload.left_table.schema, directory / "corpus"
    export_workload(workload, data_dir)
    eager_service, streamed_service = (new_service(model_dir, cache_size=0) for _ in range(2))
    eager, rows = traced_peak(lambda: len(eager_service.score_pairs(
        import_workload(data_dir, workload.name, schema).pairs)))
    streamed, _ = traced_peak(lambda: write_scored(streamed_service.score_source(
        CsvPairSource(data_dir, workload.name, schema), chunk_size=chunk), directory / "ingest.csv"))
    check(gates, "ingest", rows > chunk and streamed < eager, ds_scale=0.3, rows=rows,
          chunk_size=chunk, eager_peak_bytes=eager, streamed_peak_bytes=streamed)


def blocked_source():
    """A strict blocker over a 150-entity, 2-wave bibliographic corpus."""
    return create_source("blocked", {
        "corpus": {"kind": "generator", "domain": "bibliographic",
                   "config": {"n_base_entities": 150}, "n_waves": 2, "name": "layers"},
        "blockers": [{"kind": "inverted", "params": {
            "attributes": ATTRIBUTES, "min_shared": 3, "max_token_frequency": 0.05}}],
    }, SEED)


def blocked_scoring_gate(gates: dict, model_dir: Path, directory: Path) -> None:
    """Streamed blocked-source scoring must peak below materialise-then-score.

    The eager control runs first on the same service, so it also absorbs the
    service's one-time warm-up allocations.
    """
    service, chunk = new_service(model_dir, cache_size=0), 256
    eager, _ = traced_peak(lambda: len(service.score_pairs(blocked_source().materialize().pairs)))
    streamed, rows = traced_peak(lambda: write_scored(
        service.score_source(blocked_source(), chunk_size=chunk), directory / "blocked.csv"))
    check(gates, "blocked_scoring", rows > chunk and streamed < eager, entities=150, waves=2,
          rows=rows, chunk_size=chunk, eager_peak_bytes=eager, streamed_peak_bytes=streamed)


def corpus(entities: int, waves: int, name: str) -> GeneratedCorpus:
    """A bibliographic corpus that generates its waves lazily, one at a time."""
    return GeneratedCorpus("bibliographic", GenerationConfig(n_base_entities=entities),
                           n_waves=waves, name=name, seed=SEED)


def loose_blocker_gate(gates: dict) -> None:
    """Where candidates dwarf the index, streaming them must peak below a list."""
    blocker = InvertedIndexBlocker(ATTRIBUTES, min_shared=1, max_token_frequency=0.3)
    streamed, candidates = traced_peak(lambda: sum(
        1 for wave in corpus(150, 1, "layers-loose").waves()
        for _ in blocker.iter_wave_candidates(wave)))
    listed, _ = traced_peak(lambda: len([
        pair for wave in corpus(150, 1, "layers-loose").waves()
        for pair in blocker.block(wave.left, wave.right)]))
    check(gates, "loose_blocker", streamed < listed, entities=150, waves=1, candidates=candidates,
          streamed_peak_bytes=streamed, materialized_peak_bytes=listed)


def online_gate(gates: dict, model_dir: Path, directory: Path) -> None:
    """Online resolution must peak below a materialise-everything batch control.

    The online leg streams the corpus a wave at a time.  The control ingests
    all of it, scores exactly the pairs the online run decided in one call,
    then journals the same decisions and replays them.  Both legs generate
    their corpus inside the trace, so they differ in how the work is held in
    memory, not in what work is done.
    """
    def online() -> OnlineResolver:
        resolver = OnlineResolver(new_service(model_dir, cache_size=0),
                                  ResolutionPolicy.from_dict(POLICY),
                                  event_log=EventLog(directory / "online.jsonl"))
        resolver.resolve_corpus(corpus(60, 2, "layers-online"))
        return resolver

    online_peak, resolver = traced_peak(online)
    events = [event for event in resolver.events() if event.decision != "revert"]
    names = [field.name for field in fields(events[0]) if field.name != "sequence"]

    def batch() -> None:
        records = {record_key(record): record
                   for record in stream_records(corpus(60, 2, "layers-online").waves())}
        pairs = [RecordPair(records[e.left_key], records[e.right_key]) for e in events]
        service = new_service(model_dir, cache_size=0)  # held to the end, like the resolver's
        scored = service.score_pairs(pairs)
        log = EventLog(directory / "batch.jsonl")
        for event, one in zip(events, scored):
            log.append(**{**{name: getattr(event, name) for name in names},
                          "probability": one.probability, "machine_label": one.machine_label,
                          "risk_score": one.risk_score})
        replay_events(log.events()).to_dict()

    batch_peak, _ = traced_peak(batch)
    check(gates, "online", online_peak < batch_peak, entities=60, waves=2, events=len(events),
          online_peak_bytes=online_peak, batch_peak_bytes=batch_peak,
          ratio=round(online_peak / batch_peak, 3))


# -------------------------------------------------------------------- figures
def blocking_figures() -> dict:
    """Recall, candidates and seconds per blocker over ~10^5 generated records."""
    waves = generate_waves(3400, 10, SEED, "layers-grid")
    matches = sum(len(wave.matches) for wave in waves)
    blockers = {
        "inverted(min_shared=2, f=0.05)": InvertedIndexBlocker(ATTRIBUTES, min_shared=2,
                                                                max_token_frequency=0.05),
        "inverted(min_shared=3, f=0.05)": InvertedIndexBlocker(ATTRIBUTES, min_shared=3,
                                                                max_token_frequency=0.05),
        "minhash(bands=6, rows=6)": MinHashLSHBlocker(ATTRIBUTES, bands=6, rows=6, seed=SEED),
        "minhash(bands=12, rows=6)": MinHashLSHBlocker(ATTRIBUTES, bands=12, rows=6, seed=SEED),
    }
    figures = {"entities": 3400, "waves": len(waves), "records": sum(w.n_records for w in waves),
               "blockers": {}}
    for name, blocker in blockers.items():
        candidates = hits = 0
        started = time.perf_counter()
        for wave in waves:
            for pair in blocker.iter_wave_candidates(wave):
                candidates += 1
                hits += pair in wave.matches
        seconds = time.perf_counter() - started
        figures["blockers"][name] = {"candidates": candidates, "recall": round(hits / matches, 4),
                                     "seconds": round(seconds, 2)}
        print(f"  {name:<32} {json.dumps(figures['blockers'][name])}")
    return figures


def forest_rules(n_rules: int, n_metrics: int, rng: np.random.Generator) -> list[RiskRule]:
    """Synthetic rules shaped like a one-sided forest: 8 leaves share each root split."""
    def condition(threshold: float) -> Condition:
        return Condition(metric_index=int(rng.integers(0, n_metrics)), metric_name="m",
                         threshold=threshold, is_leq=bool(rng.integers(0, 2)))

    rules: list[RiskRule] = []
    while len(rules) < n_rules:
        root = condition(float(rng.random()))
        for _ in range(8):
            extra = [condition(round(float(rng.random()), 2)) for _ in range(int(rng.integers(0, 3)))]
            rules.append(RiskRule(conditions=(root, *extra), label=1))
    return rules[:n_rules]


def kernel_figures() -> list[dict]:
    """Best-of-5 ``RuleKernel.membership`` seconds per (pairs, rules) cell, 20 metrics."""
    cells = []
    for n_pairs in (10_000, 50_000, 200_000):
        for n_rules in (50, 200):
            rng = np.random.default_rng(SEED)
            kernel = RuleKernel(forest_rules(n_rules, 20, rng))
            matrix = rng.random((n_pairs, 20))
            matrix[rng.random(matrix.shape) < 0.01] = np.nan
            seconds = []
            for _ in range(5):
                started = time.perf_counter()
                kernel.membership(matrix)
                seconds.append(time.perf_counter() - started)
            cells.append({"pairs": n_pairs, "rules": n_rules,
                          "unique_conditions": kernel.n_unique_conditions,
                          "seconds": round(min(seconds), 5)})
            print(f"  {json.dumps(cells[-1])}")
    return cells


def worker_figures(model_dir: Path) -> dict:
    pipeline, workload = load_pipeline(model_dir), scoring_workload(WORKER_PAIRS)
    figures = {"ds_scale": 0.3, "pairs": WORKER_PAIRS, "chunk_size": 512,
               "pairs_per_s": {str(w): round(pairs_per_s(pipeline, workload, w)) for w in (1, 2, 4)}}
    print(f"  {json.dumps(figures)}")
    return figures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="run the gates only (CI)")
    parser.add_argument("--output", type=Path, default=None,
                        help="JSON report path (default: BENCH_layers.json in full mode, "
                             "none in smoke mode)")
    args = parser.parse_args(argv)
    output = args.output or (None if args.smoke else ROOT / "BENCH_layers.json")

    report = environment_stamp("layers", SEED, {"mode": "smoke" if args.smoke else "full"})
    gates: dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        model_dir = fit_and_save(directory)
        print("gates")
        cache_gate(gates, model_dir)
        worker_gate(gates, model_dir)
        ingest_gate(gates, model_dir, directory)
        blocked_scoring_gate(gates, model_dir, directory)
        loose_blocker_gate(gates)
        online_gate(gates, model_dir, directory)
        report["gates"] = gates
        if not args.smoke:
            print("pairs/s by process workers")
            report["workers"] = worker_figures(model_dir)
            print("RuleKernel.membership grid")
            report["rule_kernel"] = kernel_figures()
            print("blockers at ~10^5 records")
            report["blocking"] = blocking_figures()

    if output is not None:
        output.write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {output}")
    failed = [name for name, gate in gates.items() if not gate["passed"]]
    print(f"FAILED: {', '.join(failed)}" if failed else "gates ok")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
