"""Streaming blocking: recall vs candidate count vs peak allocation.

The :mod:`repro.blocking` layer exists so candidate generation scales past
"return the full pair list": an index-backed blocker streams deduplicated
candidates wave by wave, so peak memory follows the index (O(records)) and
the chunk size — never the O(records²) candidate set.  This benchmark
quantifies that on a generated bibliographic corpus at the 10^4–10^5 record
scale:

* **blocker grid** — for each configured blocker (inverted index at two
  strictness levels, MinHash-LSH at two band counts) it streams the corpus
  and reports candidates emitted, blocking recall against the generator's
  ground truth, throughput, and the :mod:`tracemalloc` peak — next to the
  peak of the legacy materialise-the-pair-list path over the same corpus;
* **end-to-end** — a model is fitted through ``serve fit --spec`` whose
  :class:`~repro.compose.PipelineSpec` names a ``"blocked"`` source, then the
  full corpus is blocked, paired and risk-scored through
  ``serve score --source --chunk-size`` with the peak allocation measured
  around the CLI call, against an eager materialise-then-score control.

The ``--smoke`` CI mode shrinks the corpus and guards the contract:

* streamed candidates, collected and sorted, are **bit-identical** to the
  eager ``InvertedIndexBlocker.block`` output on the same tables (itself
  parity-locked to the historical token blocker in
  ``tests/data/test_blocking.py``);
* the corpus is larger than the scoring chunk size and the streamed peak
  stays below both the materialised-blocking peak and the eager-scoring peak
  (bounded-by-the-chunk working set);
* the CLI-scored risk scores equal the eager in-process scores exactly.

Run directly (``python benchmarks/bench_blocking.py``), at a custom scale
(``--entities-per-wave 5000 --waves 4``), or as the CI guard
(``python benchmarks/bench_blocking.py --smoke``).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np

from repro.blocking import (
    Blocker,
    GeneratedCorpus,
    InvertedIndexBlocker,
    MinHashLSHBlocker,
)
from repro.compose import create_source
from repro.data.generators import GenerationConfig
from repro.obs import Stopwatch
from repro.serve import RiskService, load_pipeline
from repro.serve.cli import SCORED_CSV_HEADER, main as serve_cli, scored_csv_row

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_blocking.json"

#: The strict blocker used for the end-to-end scoring leg: low candidate
#: volume so the run is dominated by blocking+scoring, not pair explosion.
SCORING_BLOCKER = {"kind": "inverted",
                   "params": {"attributes": ["title", "authors"],
                              "min_shared": 3, "max_token_frequency": 0.05}}


def blocker_grid() -> list[tuple[str, Blocker]]:
    attributes = ["title", "authors"]
    return [
        ("inverted(min_shared=2, f=0.05)",
         InvertedIndexBlocker(attributes, min_shared=2, max_token_frequency=0.05)),
        ("inverted(min_shared=3, f=0.05)",
         InvertedIndexBlocker(attributes, min_shared=3, max_token_frequency=0.05)),
        ("minhash(bands=6, rows=6)",
         MinHashLSHBlocker(attributes, bands=6, rows=6, seed=0)),
        ("minhash(bands=12, rows=6)",
         MinHashLSHBlocker(attributes, bands=12, rows=6, seed=0)),
    ]


def make_corpus(args: argparse.Namespace) -> GeneratedCorpus:
    return GeneratedCorpus(
        args.domain,
        GenerationConfig(n_base_entities=args.entities_per_wave),
        n_waves=args.waves,
        name="bench",
        seed=args.seed,
    )


def measure_streamed(corpus: GeneratedCorpus, blocker: Blocker) -> dict:
    """Stream the corpus through the blocker without keeping any pair."""
    candidates = matches_total = matches_hit = records = 0
    tracemalloc.start()
    with Stopwatch() as watch:
        for wave in corpus.waves():
            records += wave.n_records
            matches_total += len(wave.matches)
            for pair in blocker.iter_wave_candidates(wave):
                candidates += 1
                if pair in wave.matches:
                    matches_hit += 1
    seconds = watch.seconds
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "records": records,
        "candidates": candidates,
        "recall": matches_hit / matches_total if matches_total else 1.0,
        "seconds": seconds,
        "candidates_per_second": candidates / seconds if seconds else float("inf"),
        "peak_bytes": peak,
    }


def measure_materialized(corpus: GeneratedCorpus, blocker: Blocker) -> dict:
    """The legacy control: accumulate every wave's full ``block()`` list."""
    pairs: list[tuple[str, str]] = []
    tracemalloc.start()
    with Stopwatch() as watch:
        for wave in corpus.waves():
            pairs.extend(blocker.block(wave.left, wave.right))
    seconds = watch.seconds
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {"candidates": len(pairs), "seconds": seconds, "peak_bytes": peak}


def bounded_peak_check(args: argparse.Namespace) -> dict:
    """Streaming must beat materialising once the pair volume dominates.

    The grid's strict blockers can emit fewer candidates than the corpus has
    records, where the O(records) index is the larger allocation either way.
    This check uses a deliberately loose blocker (every shared token pairs)
    so the candidate set dwarfs the index — the regime the streaming layer
    exists for — and compares the two peaks there.  It runs on its own
    fixed-size corpus: with the loose blocker the pair list is quadratic in
    the wave size, so the control would not fit in memory at the 10^5 scale
    of the main corpus — which is exactly the point being demonstrated.
    """
    corpus = GeneratedCorpus(
        args.domain,
        GenerationConfig(n_base_entities=min(500, args.entities_per_wave)),
        n_waves=1,
        name="bench-bounded",
        seed=args.seed,
    )
    blocker = InvertedIndexBlocker(["title", "authors"], min_shared=1,
                                   max_token_frequency=0.3)
    streamed = measure_streamed(corpus, blocker)
    materialized = measure_materialized(corpus, blocker)
    return {
        "candidates": streamed["candidates"],
        "streamed_peak_bytes": streamed["peak_bytes"],
        "materialized_peak_bytes": materialized["peak_bytes"],
        "bounded": streamed["peak_bytes"] < materialized["peak_bytes"],
    }


def check_legacy_parity(corpus: GeneratedCorpus) -> bool:
    """Streamed inverted-index candidates == the eager block, bit for bit."""
    wave = next(iter(corpus.waves()))
    blocker = InvertedIndexBlocker(["title", "authors"], min_shared=2,
                                   max_token_frequency=0.05)
    streamed = sorted(blocker.iter_wave_candidates(wave))
    return streamed == blocker.block(wave.left, wave.right)


def fit_spec(seed: int) -> dict:
    """A PipelineSpec document whose training data is a blocked source."""
    return {
        "classifier": {"kind": "logistic", "params": {"epochs": 60}},
        "training": {"epochs": 30},
        "source": {
            "kind": "blocked",
            "params": {
                "corpus": {"kind": "generator", "domain": "bibliographic",
                           "config": {"n_base_entities": 250}, "n_waves": 1,
                           "name": "bench-fit"},
                "blockers": [{"kind": "inverted",
                              "params": {"attributes": ["title", "authors"],
                                         "min_shared": 2,
                                         "max_token_frequency": 0.1}}],
            },
        },
        "seed": seed,
    }


def score_source_params(args: argparse.Namespace) -> dict:
    return {
        "corpus": {"kind": "generator", "domain": args.domain,
                   "config": {"n_base_entities": args.entities_per_wave},
                   "n_waves": args.waves, "name": "bench"},
        "blockers": [SCORING_BLOCKER],
    }


def run_end_to_end(args: argparse.Namespace, directory: Path) -> dict:
    """Fit via ``serve fit --spec``, score the corpus via ``serve score --source``."""
    model_dir = directory / "model"
    spec_file = directory / "spec.json"
    spec_file.write_text(json.dumps(fit_spec(args.seed)))
    if serve_cli(["fit", "--spec", str(spec_file), "--output", str(model_dir)]) != 0:
        raise RuntimeError("serve fit --spec failed")

    source_file = directory / "source.json"
    source_file.write_text(json.dumps(
        {"kind": "blocked", "params": score_source_params(args)}
    ))
    service = RiskService(load_pipeline(model_dir), max_batch_size=256, cache_size=0)

    # Eager control first: materialise the same blocked source, score in one
    # go.  Running it first also absorbs the service's one-time warm-up
    # allocations so the streamed trace measures steady-state behaviour.
    tracemalloc.start()
    with Stopwatch() as watch:
        source = create_source("blocked", score_source_params(args), args.seed)
        workload = source.materialize()
        scored = service.score_pairs(workload.pairs)
    eager_seconds = watch.seconds
    _, eager_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    eager_scores = np.array([s.risk_score for s in scored])
    del workload, scored

    # Streamed leg: block, pair and risk-score the corpus in bounded chunks;
    # the candidate set never exists as a list anywhere, and scored rows hit
    # the CSV as they are produced.
    scores: list[float] = []
    streamed_csv = directory / "streamed.csv"
    tracemalloc.start()
    with Stopwatch() as watch:
        source = create_source("blocked", score_source_params(args), args.seed)
        with streamed_csv.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(SCORED_CSV_HEADER)
            for item in service.score_source(source, chunk_size=args.chunk_size):
                writer.writerow(scored_csv_row(item))
                scores.append(item.risk_score)
    streamed_seconds = watch.seconds
    _, streamed_peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    streamed_scores = np.array(scores)

    # CLI leg: the same blocked source through ``serve score --source``.
    scored_csv = directory / "cli-scored.csv"
    exit_code = serve_cli([
        "score", "--model", str(model_dir), "--source", str(source_file),
        "--chunk-size", str(args.chunk_size), "--output", str(scored_csv),
    ])
    if exit_code != 0:
        raise RuntimeError("serve score --source failed")
    with scored_csv.open() as handle:
        cli_scores = np.array([float(row["risk_score"])
                               for row in csv.DictReader(handle)])

    rows = len(streamed_scores)
    return {
        "rows_scored": rows,
        "streamed_seconds": streamed_seconds,
        "streamed_rows_per_second": rows / streamed_seconds if streamed_seconds else float("inf"),
        "streamed_peak_bytes": streamed_peak,
        "eager_seconds": eager_seconds,
        "eager_peak_bytes": eager_peak,
        "peak_ratio": streamed_peak / eager_peak if eager_peak else float("inf"),
        "score_parity": bool(np.array_equal(streamed_scores, eager_scores)),
        "cli_parity": bool(np.array_equal(cli_scores, eager_scores)),
    }


def format_grid(results: list[dict]) -> str:
    lines = ["Blocker grid — streamed vs materialised, same corpus"]
    for entry in results:
        lines.append(
            f"  {entry['blocker']:<32} candidates {entry['candidates']:>8} "
            f"recall {entry['recall']:.4f}  "
            f"{entry['candidates_per_second']:>9.0f} cand/s  "
            f"peak {entry['peak_bytes'] / 1e6:7.2f} MB "
            f"(materialised {entry['materialized_peak_bytes'] / 1e6:7.2f} MB)"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--domain", default="bibliographic",
                        help="generator domain for the corpus (default bibliographic)")
    parser.add_argument("--entities-per-wave", type=int, default=3400,
                        help="base entities per corpus wave (default 3400, ~10^4 records)")
    parser.add_argument("--waves", type=int, default=10,
                        help="corpus waves (default 10, ~10^5 records total)")
    parser.add_argument("--chunk-size", type=int, default=1024,
                        help="pairs per scored chunk in the end-to-end leg (default 1024)")
    parser.add_argument("--seed", type=int, default=0, help="corpus seed (default 0)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"JSON report path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI mode: small corpus, assert legacy parity and "
                             "bounded peak allocation")
    args = parser.parse_args(argv)

    if args.smoke:
        args.entities_per_wave, args.waves, args.chunk_size = 150, 2, 256

    corpus = make_corpus(args)
    grid_results = []
    for name, blocker in blocker_grid():
        streamed = measure_streamed(corpus, blocker)
        materialized = measure_materialized(corpus, blocker)
        grid_results.append({
            "blocker": name,
            **streamed,
            "materialized_peak_bytes": materialized["peak_bytes"],
            "materialized_candidates": materialized["candidates"],
        })
    records = grid_results[0]["records"]
    print(f"blocking benchmark: {args.domain} corpus, {records} records in "
          f"{args.waves} wave(s), seed {args.seed}")
    print(format_grid(grid_results))

    legacy_parity = check_legacy_parity(corpus)
    print(f"  legacy block() parity      : {'ok' if legacy_parity else 'FAIL'}")
    bounded = bounded_peak_check(args)
    print(f"  bounded peak (loose blocker, {bounded['candidates']} candidates): "
          f"streamed {bounded['streamed_peak_bytes'] / 1e6:.2f} MB vs "
          f"materialised {bounded['materialized_peak_bytes'] / 1e6:.2f} MB "
          f"-> {'ok' if bounded['bounded'] else 'FAIL'}")

    with tempfile.TemporaryDirectory() as tmp:
        end_to_end = run_end_to_end(args, Path(tmp))
    print("End-to-end — blocked source fitted and scored through the serve CLI")
    print(f"  rows scored           : {end_to_end['rows_scored']}")
    print(f"  streamed rows/sec     : {end_to_end['streamed_rows_per_second']:.0f}")
    print(f"  streamed peak alloc   : {end_to_end['streamed_peak_bytes'] / 1e6:.2f} MB")
    print(f"  eager peak alloc      : {end_to_end['eager_peak_bytes'] / 1e6:.2f} MB")
    print(f"  peak ratio (str/eager): {end_to_end['peak_ratio']:.2f}")
    print(f"  score parity          : {'ok' if end_to_end['score_parity'] else 'FAIL'}")
    print(f"  CLI --source parity   : {'ok' if end_to_end['cli_parity'] else 'FAIL'}")

    report = {
        "benchmark": "blocking",
        "mode": "smoke" if args.smoke else "full",
        "domain": args.domain,
        "records": records,
        "waves": args.waves,
        "entities_per_wave": args.entities_per_wave,
        "chunk_size": args.chunk_size,
        "blockers": [
            {key: (round(value, 4) if isinstance(value, float) else value)
             for key, value in entry.items()}
            for entry in grid_results
        ],
        "legacy_parity": legacy_parity,
        "bounded_peak": bounded,
        "end_to_end": {
            key: (round(value, 4) if isinstance(value, float) else value)
            for key, value in end_to_end.items()
        },
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not legacy_parity:
        print("FAILURE: streamed candidates diverge from the eager block() output")
        return 1
    if not end_to_end["score_parity"]:
        print("FAILURE: streamed risk scores diverge from the eager control")
        return 1
    if not end_to_end["cli_parity"]:
        print("FAILURE: CLI-scored risk scores diverge from the eager control")
        return 1
    if args.smoke:
        if end_to_end["rows_scored"] <= args.chunk_size:
            print("SMOKE FAILURE: scored corpus not larger than the chunk size")
            return 1
        if end_to_end["streamed_peak_bytes"] >= end_to_end["eager_peak_bytes"]:
            print("SMOKE FAILURE: streamed peak allocation not below the eager peak")
            return 1
        if not bounded["bounded"]:
            print("SMOKE FAILURE: streamed peak not below the materialised-pair-list "
                  "peak at dominant candidate volume")
            return 1
        print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
