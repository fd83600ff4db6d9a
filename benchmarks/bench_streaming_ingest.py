"""Streaming ingest: rows/sec and peak allocation, streamed vs eager loading.

The :mod:`repro.data.sources` backends exist so the stack can score workloads
bigger than RAM: a :class:`~repro.data.CsvPairSource` streams the exported
candidate-pair file in bounded chunks instead of materialising it.  This
benchmark quantifies the claim on one exported corpus:

* **eager** — ``import_workload`` (the old path: everything in memory), then
  ``RiskService.score_pairs``;
* **streamed** — ``RiskService.score_source`` over a ``CsvPairSource`` with a
  fixed chunk size, scored rows written to CSV as they are produced.

For each regime it reports rows/sec and the :mod:`tracemalloc` peak
allocation.  The peak of the streamed pass is bounded by the chunk size; the
eager peak grows with the corpus.  The streamed pass additionally runs under a
:class:`repro.obs.MetricsRegistry`, so the report includes the per-stage cost
split (vectorize vs classify vs risk scoring) straight from the library's own
span instrumentation — no benchmark-side timing of internals.

The ``--smoke`` CI mode additionally guards the streaming contract:

* streamed risk scores are **bit-identical** to the eager ones;
* the corpus is larger than the chunk size and the streamed peak allocation
  stays below the eager peak (bounded-by-the-chunk working set);
* ``python -m repro.serve score --chunk-size`` writes byte-identical output
  to the non-streaming CLI invocation;
* scoring with the batched vectorisation path disabled
  (``batch_enabled=False``) reproduces the eager risk scores bit for bit;
* every core token-set metric column dispatches to a batched kernel — a
  registry regression that silently dropped a ``batch_function`` (sending the
  column through the scalar per-pair loop) fails the run.

Run directly (``python benchmarks/bench_streaming_ingest.py``), at a custom
scale (``--scale 2.0 --chunk-size 512``), or as the CI guard
(``python benchmarks/bench_streaming_ingest.py --smoke``).
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

from repro.classifiers import MLPClassifier
from repro.data import CsvPairSource, export_workload, import_workload, load_dataset, split_workload
from repro.obs import MetricsRegistry, Stopwatch, use_recorder
from repro.pipeline import LearnRiskPipeline
from repro.risk.onesided_tree import OneSidedTreeConfig
from repro.risk.training import TrainingConfig
from repro.serve import RiskService, load_pipeline, save_pipeline
from repro.serve.cli import SCORED_CSV_HEADER, main as serve_cli, scored_csv_row

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_streaming_ingest.json"


def fit_and_save(workload, model_dir: Path) -> None:
    """Fit a small pipeline on the workload's labeled sample and save it."""
    split = split_workload(workload, ratio=(3, 2, 5), seed=0)
    pipeline = LearnRiskPipeline(
        classifier=MLPClassifier(hidden_sizes=(32, 16), epochs=30, seed=0),
        tree_config=OneSidedTreeConfig(max_depth=2, min_support=4, max_thresholds=32),
        training_config=TrainingConfig(epochs=60),
        seed=0,
    )
    pipeline.fit(split.train, split.validation)
    save_pipeline(pipeline, model_dir)


def run_eager(model_dir: Path, data_dir: Path, name: str, schema) -> dict[str, float]:
    """The load-everything control: import_workload + score_pairs."""
    service = RiskService(load_pipeline(model_dir), max_batch_size=256, cache_size=0)
    tracemalloc.start()
    with Stopwatch() as watch:
        workload = import_workload(data_dir, name, schema)
        scored = service.score_pairs(workload.pairs)
    seconds = watch.seconds
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "rows": len(scored),
        "seconds": seconds,
        "rows_per_second": len(scored) / seconds if seconds else float("inf"),
        "peak_bytes": peak,
        "risk_scores": np.array([s.risk_score for s in scored]),
    }


def run_streamed(
    model_dir: Path, data_dir: Path, name: str, schema, chunk_size: int, output: Path
) -> dict[str, float]:
    """The out-of-core path: CsvPairSource + score_source, rows written as scored."""
    service = RiskService(load_pipeline(model_dir), max_batch_size=256, cache_size=0)
    scores: list[float] = []
    registry = MetricsRegistry()
    tracemalloc.start()
    with use_recorder(registry), Stopwatch() as watch:
        source = CsvPairSource(data_dir, name, schema)
        with output.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(SCORED_CSV_HEADER)
            for scored in service.score_source(source, chunk_size=chunk_size):
                writer.writerow(scored_csv_row(scored))
                scores.append(scored.risk_score)
    seconds = watch.seconds
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return {
        "rows": len(scores),
        "seconds": seconds,
        "rows_per_second": len(scores) / seconds if seconds else float("inf"),
        "peak_bytes": peak,
        "risk_scores": np.array(scores),
        "span_totals": registry.span_totals(),
    }


#: Metric short names that must never silently fall back to the scalar loop:
#: the token-set/char/cosine workhorses the batched subsystem exists for.
CORE_BATCHED_METRICS = frozenset({
    "jaccard", "overlap", "edit", "jaro_winkler", "cosine_tfidf", "monge_elkan",
})


def run_scalar_control(model_dir: Path, data_dir: Path, name: str, schema) -> np.ndarray:
    """Eager scoring with batched vectorisation switched off (parity control)."""
    service = RiskService(load_pipeline(model_dir), max_batch_size=256, cache_size=0)
    service.pipeline.vectorizer.batch_enabled = False
    workload = import_workload(data_dir, name, schema)
    scored = service.score_pairs(workload.pairs)
    return np.array([s.risk_score for s in scored])


def check_batch_coverage(coverage: dict[str, list[str]]) -> list[str]:
    """Qualified names of core metrics that lost their batched kernel."""
    return [
        name for name in coverage["scalar"]
        if name.rsplit(".", 1)[-1] in CORE_BATCHED_METRICS
    ]


def cost_split(span_totals: dict[str, float]) -> dict[str, float]:
    """The vectorize-vs-score split of a scoring pass, from its span totals.

    ``risk_score`` nests ``rule_kernel`` and ``aggregate``, so total scoring
    time is ``vectorize + classify + risk_score`` — the nested leaves are
    reported for detail but not double-counted in the fraction.
    """
    vectorize = span_totals.get("vectorize", 0.0)
    classify = span_totals.get("classify", 0.0)
    risk_score = span_totals.get("risk_score", 0.0)
    scoring = vectorize + classify + risk_score
    return {
        "vectorize_seconds": round(vectorize, 4),
        "classify_seconds": round(classify, 4),
        "risk_score_seconds": round(risk_score, 4),
        "rule_kernel_seconds": round(span_totals.get("rule_kernel", 0.0), 4),
        "aggregate_seconds": round(span_totals.get("aggregate", 0.0), 4),
        "vectorize_fraction": round(vectorize / scoring, 4) if scoring else 0.0,
    }


def run_cli_parity(model_dir: Path, data_dir: Path, name: str, chunk_size: int,
                   directory: Path) -> bool:
    """``serve score --chunk-size`` must write byte-identical CSV to the eager CLI."""
    eager_csv = directory / "cli-eager.csv"
    streamed_csv = directory / "cli-streamed.csv"
    base = ["score", "--model", str(model_dir), "--data-dir", str(data_dir), "--name", name]
    if serve_cli(base + ["--output", str(eager_csv)]) != 0:
        return False
    if serve_cli(base + ["--output", str(streamed_csv), "--chunk-size", str(chunk_size)]) != 0:
        return False
    return eager_csv.read_text() == streamed_csv.read_text()


def format_results(eager: dict, streamed: dict, chunk_size: int) -> str:
    split = cost_split(streamed["span_totals"])
    lines = [
        "Streaming ingest — CsvPairSource vs eager import_workload",
        f"  corpus rows           : {int(eager['rows'])}",
        f"  chunk size            : {chunk_size}",
        f"  eager rows/sec        : {eager['rows_per_second']:.0f}",
        f"  streamed rows/sec     : {streamed['rows_per_second']:.0f}",
        f"  eager peak alloc      : {eager['peak_bytes'] / 1e6:.2f} MB",
        f"  streamed peak alloc   : {streamed['peak_bytes'] / 1e6:.2f} MB",
        f"  peak ratio (str/eager): {streamed['peak_bytes'] / eager['peak_bytes']:.2f}",
        f"  vectorize fraction    : {split['vectorize_fraction']:.1%} of scoring "
        f"(vectorize {split['vectorize_seconds'] * 1000:.1f}ms, "
        f"classify {split['classify_seconds'] * 1000:.1f}ms, "
        f"risk {split['risk_score_seconds'] * 1000:.1f}ms)",
    ]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale for the exported corpus (default 1.0)")
    parser.add_argument("--chunk-size", type=int, default=256,
                        help="pairs per streamed chunk (default 256)")
    parser.add_argument("--dataset", default="DS",
                        help="built-in workload to export (default DS)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"JSON report path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--smoke", action="store_true",
                        help="fast CI mode: small corpus, assert bit-parity, "
                             "bounded peak memory and CLI streaming parity")
    args = parser.parse_args(argv)

    scale = 0.3 if args.smoke else args.scale
    chunk_size = 64 if args.smoke else args.chunk_size

    workload = load_dataset(args.dataset, scale=scale)
    schema = workload.left_table.schema
    print(f"streaming-ingest benchmark: {args.dataset} scale={scale} "
          f"({len(workload)} pairs), chunk size {chunk_size}")

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp)
        data_dir = directory / "corpus"
        model_dir = directory / "model"
        export_workload(workload, data_dir)
        fit_and_save(workload, model_dir)

        eager = run_eager(model_dir, data_dir, workload.name, schema)
        streamed = run_streamed(
            model_dir, data_dir, workload.name, schema, chunk_size, directory / "scored.csv"
        )
        cli_parity = run_cli_parity(model_dir, data_dir, workload.name, chunk_size, directory)
        scalar_scores = run_scalar_control(model_dir, data_dir, workload.name, schema)
        coverage = load_pipeline(model_dir).vectorizer.batch_coverage()

    parity = bool(np.array_equal(eager["risk_scores"], streamed["risk_scores"]))
    batch_parity = bool(np.array_equal(eager["risk_scores"], scalar_scores))
    uncovered = check_batch_coverage(coverage)
    print(format_results(eager, streamed, chunk_size))
    print(f"  score bit-parity      : {'ok' if parity else 'FAIL'}")
    print(f"  CLI streaming parity  : {'ok' if cli_parity else 'FAIL'}")
    print(f"  batched/scalar parity : {'ok' if batch_parity else 'FAIL'}")
    print(f"  batched columns       : {len(coverage['batched'])}/"
          f"{len(coverage['batched']) + len(coverage['scalar'])}"
          + (f" (core fallback: {', '.join(uncovered)})" if uncovered else ""))

    report = {
        "benchmark": "streaming_ingest",
        "mode": "smoke" if args.smoke else "full",
        "dataset": args.dataset,
        "rows": int(eager["rows"]),
        "chunk_size": chunk_size,
        "eager_rows_per_second": round(eager["rows_per_second"], 1),
        "streamed_rows_per_second": round(streamed["rows_per_second"], 1),
        "eager_peak_bytes": int(eager["peak_bytes"]),
        "streamed_peak_bytes": int(streamed["peak_bytes"]),
        "peak_ratio": round(streamed["peak_bytes"] / eager["peak_bytes"], 4),
        "streamed_cost_split": cost_split(streamed["span_totals"]),
        "score_parity": parity,
        "cli_parity": cli_parity,
        "batch_parity": batch_parity,
        "batched_columns": len(coverage["batched"]),
        "scalar_columns": coverage["scalar"],
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    if not parity:
        print("FAILURE: streamed risk scores diverge from the eager path")
        return 1
    if not cli_parity:
        print("FAILURE: CLI streaming output diverges from the eager CLI output")
        return 1
    if not batch_parity:
        print("FAILURE: batched vectorisation diverges from the scalar path")
        return 1
    if uncovered:
        print(f"FAILURE: core metrics fell back to the scalar loop: {', '.join(uncovered)}")
        return 1
    if args.smoke:
        if eager["rows"] <= chunk_size:
            print("SMOKE FAILURE: corpus not larger than the chunk size")
            return 1
        if streamed["peak_bytes"] >= eager["peak_bytes"]:
            print("SMOKE FAILURE: streaming peak allocation not below the eager peak")
            return 1
        print("smoke ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
