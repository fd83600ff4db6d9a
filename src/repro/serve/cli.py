"""Command-line operations surface: ``python -m repro.serve``.

The subcommands cover the model lifecycle:

``fit``
    Fit a pipeline on a built-in workload (``--dataset``) or on CSV files
    (``--data-dir`` + ``--name`` + ``--schema``), then save it with
    :func:`~repro.serve.persistence.save_pipeline`.  The pipeline is either
    configured field by field (``--classifier``, ``--risk-metric``, ...) or
    declaratively with ``--spec spec.json`` — a
    :meth:`repro.compose.PipelineSpec.to_json` document assembled through the
    component registries, which is also how custom registered components are
    reached from the command line.  The flags are turned into the spec they
    describe, so both build through :func:`~repro.compose.build_pipeline`, and
    a model's saved ``spec.json`` refits it byte for byte.  When the spec
    names a data backend (``source``) and no ``--dataset``/``--data-dir`` is
    given, the training workload comes from that backend — including the
    ``"blocked"`` backend, which blocks raw tables on the fly.
``block``
    Run the streaming blocking layer on its own: raw record tables in
    (``--data-dir`` CSV layout, a built-in ``--dataset``, or a generated
    ``--domain`` corpus), candidate id pairs out as CSV, streamed chunk by
    chunk so the candidate set is never held in memory.  The output file uses
    the :mod:`repro.data.io` pair layout, so it can be streamed back through
    ``score --input``.
``score``
    Load a saved pipeline and stream a workload through :class:`RiskService`
    (micro-batched, cached): candidate pairs are pulled from a
    :class:`~repro.data.sources.PairSource` ``--chunk-size`` at a time
    (default: the batch size) and scored rows are written as they are
    produced, so a CSV workload of any size scores in memory bounded by the
    chunk.  ``--output`` writes one CSV row per pair with probability,
    machine label and risk score; the run prints throughput, the
    vectorisation-cache hit rate and, on labeled workloads, the risk-ranking
    AUROC.  ``--input pairs.csv`` points at a specific candidate-pair file in
    the data directory; ``--source spec.json`` streams from any registered
    pair source instead — e.g. a ``"blocked"`` source that generates
    candidates from raw tables on the fly.  ``--workers N`` shards the chunks
    over a worker pool (:mod:`repro.parallel`): rows still come out in exact
    source order with bit-identical numbers, just faster on multi-core
    machines.
``inspect``
    Print a saved model's manifest and risk-model summary without scoring.
``explain``
    Load a saved pipeline and emit decision-level explanations (fired rules
    with portfolio weight shares, the equivalence-probability interval, the
    risk score) for the riskiest pairs of a workload, as JSON.
``resolve``
    Stream a record corpus through the online resolver
    (:mod:`repro.online`): each record is blocked against a live inverted
    index, its candidate pairs risk-scored through :class:`RiskService`, and
    every decision (merge / split / escalate by the ``--merge-threshold`` /
    ``--split-threshold`` policy) appended to an audit log — ``--events``
    mirrors it to a JSONL file that a later run (or ``http --events``)
    resumes from.
``stats``
    Pretty-print a metrics snapshot written by ``score --metrics-out`` (or by
    :meth:`repro.obs.MetricsRegistry.write_json` anywhere else): counters,
    span time totals and serving throughput at a glance.
``http``
    Serve a saved model over HTTP (:mod:`repro.serve.http`): an asyncio
    server with micro-batch request coalescing — concurrent single-pair
    ``POST /score`` requests share one kernel-warm batch, flushed at
    ``--coalesce-batch-size`` requests or a fixed 2 ms after the oldest —
    plus ``POST /explain`` (decision-level payloads), ``GET /stats`` (the
    :mod:`repro.obs` snapshot), ``GET /healthz``, ``GET /models`` and
    ``POST /models/swap`` / ``/models/rollback`` driving the
    :class:`~repro.serve.registry.ModelRegistry` hot-swap.  Runs until
    interrupted; ``--metrics-out`` writes the final snapshot on shutdown.

``score --metrics-out metrics.json`` records the whole pass — pipeline spans
(vectorize / classify / rule_kernel / aggregate), serving counters, batch
latency histograms — into one JSON snapshot.  Recording never changes the
scores: output CSVs are byte-identical with and without it.

The CSV layout is the one of :mod:`repro.data.io` (``<name>_left.csv``,
``<name>_right.csv``, ``<name>_matches.csv``, optional ``<name>_pairs.csv``);
``--schema`` points at a JSON file in :meth:`repro.data.schema.Schema.to_dict`
format, e.g.::

    {"attributes": [{"name": "title", "type": "text"},
                    {"name": "year", "type": "numeric"}]}
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Sequence

import numpy as np

from ..compose import (
    PipelineSpec,
    build_pipeline,
    registered_classifiers,
    registered_risk_metrics,
)
from ..data import load_dataset, split_workload
from ..data.io import import_workload
from ..data.schema import Schema
from ..data.sources import CsvPairSource, InMemorySource, PairSource
from ..data.workload import Workload
from ..evaluation.roc import auroc_score, mislabel_indicator
from ..exceptions import DataError, ReproError
from ..obs import MetricsRegistry, use_recorder
from .persistence import load_pipeline, save_pipeline
from .service import RiskService


def _load_schema(path: str) -> Schema:
    return Schema.from_dict(json.loads(Path(path).read_text()))


def _load_workload(args: argparse.Namespace, schema: Schema | None = None) -> Workload:
    if args.dataset:
        return load_dataset(args.dataset, scale=args.scale)
    if args.data_dir:
        if schema is None:
            if not getattr(args, "schema", None):
                raise SystemExit("--schema is required when fitting from --data-dir")
            schema = _load_schema(args.schema)
        return import_workload(args.data_dir, args.name, schema)
    raise SystemExit("provide either --dataset or --data-dir")


#: Header of the scored-pair CSV written by ``score``,
#: ``benchmarks/bench_layers.py`` and any other writer that must stay
#: byte-compatible.
SCORED_CSV_HEADER = ("left_id", "right_id", "probability", "machine_label", "risk_score")


def scored_csv_row(scored) -> list:
    """One scored pair as a CSV row (``repr`` floats: round-trip exact)."""
    left_id, right_id = scored.pair.pair_id
    return [left_id, right_id, repr(scored.probability),
            scored.machine_label, repr(scored.risk_score)]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _parse_ratio(text: str) -> tuple[float, float, float]:
    parts = [float(part) for part in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError("ratio must have three comma-separated parts")
    return (parts[0], parts[1], parts[2])


# --------------------------------------------------------------------- commands
def _spec_from_flags(args: argparse.Namespace) -> PipelineSpec:
    """The spec a user would write for ``fit``'s per-field flags.

    ``--epochs`` reaches only the classifiers that train by epochs; with no
    ``--epochs`` the classifier keeps its own constructor defaults.
    """
    classifier_params = {}
    if args.epochs is not None and args.classifier in ("mlp", "logistic"):
        classifier_params["epochs"] = args.epochs
    return PipelineSpec(
        classifier={"kind": args.classifier, "params": classifier_params},
        risk_features={
            "kind": "onesided_tree", "params": {"tree": {"max_depth": args.rule_depth}}
        },
        risk_metric=args.risk_metric,
        training={"epochs": args.risk_epochs},
        seed=args.seed,
    )


def _cmd_fit(args: argparse.Namespace) -> int:
    # Parse and validate the spec before the (slow) workload load so a typo
    # in a config file fails immediately.
    if args.spec:
        spec = PipelineSpec.from_json(Path(args.spec).read_text())
    else:
        spec = _spec_from_flags(args)
    pipeline = build_pipeline(spec)
    if not args.dataset and not args.data_dir and spec.source is not None:
        # No workload flags: train from the spec's own data backend
        # (e.g. a "blocked" source streaming candidates from raw tables).
        from ..compose.registries import create_source

        source = create_source(spec.source.kind, spec.source.params, spec.seed)
        workload = source.materialize()
    else:
        workload = _load_workload(args)
    split = split_workload(workload, ratio=args.ratio, seed=spec.seed)
    print(
        f"fitting on {len(split.train)} training / {len(split.validation)} validation pairs "
        f"({workload.name})..."
    )
    pipeline.fit(split.train, split.validation)
    directory = save_pipeline(pipeline, args.output)
    summary = pipeline.risk_model.summary()
    print(f"saved fitted pipeline to {directory}")
    print(
        f"  rules: {int(summary['n_rules'])} "
        f"({int(summary['n_matching_rules'])} matching), "
        f"final ranking loss: {summary['final_loss']:.4f}"
    )
    return 0


def _parse_component_document(text: str, label: str) -> dict:
    """A component spec given as a JSON file path or an inline JSON string."""
    path = Path(text)
    document = path.read_text() if path.is_file() else text
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise SystemExit(f"--{label} must be a JSON file or inline JSON object: {exc}")
    if not isinstance(data, dict):
        raise SystemExit(f"--{label} must describe one component as a JSON object")
    return data


def _load_source(args: argparse.Namespace, schema: Schema) -> PairSource:
    """The pair source a ``score`` run streams from.

    ``--source`` wins (it names its backend explicitly), then ``--dataset``,
    then ``--data-dir`` — the order :func:`_load_workload` uses for ``fit``
    and ``explain``.
    """
    if getattr(args, "source", None):
        from ..compose import ComponentSpec
        from ..compose.registries import create_source

        spec = ComponentSpec.coerce(
            _parse_component_document(args.source, "source"), "pair source"
        )
        return create_source(spec.kind, spec.params, getattr(args, "seed", 0) or 0)
    if args.dataset:
        if getattr(args, "input", None):
            raise SystemExit("--input requires --data-dir (the record tables live there)")
        return InMemorySource(load_dataset(args.dataset, scale=args.scale))
    if args.data_dir:
        return CsvPairSource(
            args.data_dir, args.name, schema, pairs_path=getattr(args, "input", None)
        )
    if getattr(args, "input", None):
        raise SystemExit("--input requires --data-dir (the record tables live there)")
    raise SystemExit("provide --dataset, --data-dir or --source")


def _metrics_registry(args: argparse.Namespace) -> MetricsRegistry | None:
    """One registry for the whole score run when ``--metrics-out`` was given.

    The same registry is installed as the global recorder (capturing the
    pipeline's spans) *and* handed to the service as its statistics sink, so
    the written snapshot carries spans, serving counters and batch histograms
    together.
    """
    return MetricsRegistry() if getattr(args, "metrics_out", None) else None


def _write_metrics(args: argparse.Namespace, metrics: MetricsRegistry | None) -> None:
    if metrics is not None:
        path = metrics.write_json(args.metrics_out)
        print(f"wrote metrics snapshot to {path}")


def _cmd_score(args: argparse.Namespace) -> int:
    """Stream a workload through the service: bounded memory, rows written as they score."""
    pipeline = load_pipeline(args.model)
    metrics = _metrics_registry(args)
    source = _load_source(args, pipeline.vectorizer.schema)
    service = RiskService(
        pipeline, max_batch_size=args.batch_size, cache_size=args.cache_size,
        metrics=metrics,
    )
    # Resolved here rather than inside score_source so the summary line can
    # report the chunk size and worker count actually used.
    execution = pipeline._resolve_execution(args.workers)
    chunk_size = args.chunk_size or execution.resolve_chunk_size(args.batch_size)

    writer = None
    handle = None
    output = Path(args.output) if args.output else None
    if output is not None:
        output.parent.mkdir(parents=True, exist_ok=True)
        handle = output.open("w", newline="")
        writer = csv.writer(handle)
        writer.writerow(SCORED_CSV_HEADER)

    # Per-pair scalars only: enough for the final AUROC line without ever
    # holding the RecordPair objects or metric vectors of the whole stream.
    count = 0
    machine_labels: list[int] = []
    risk_scores: list[float] = []
    ground_truth: list[int] = []
    labeled = True
    recording = use_recorder(metrics) if metrics is not None else nullcontext()
    try:
        # The service owns a worker pool in parallel mode; close it before the
        # interpreter exits so no process pool is left to atexit teardown.
        with recording, service:
            for scored in service.score_source(
                source, chunk_size=chunk_size, execution=execution
            ):
                count += 1
                if writer is not None:
                    writer.writerow(scored_csv_row(scored))
                if scored.pair.ground_truth is None:
                    labeled = False
                elif labeled:
                    machine_labels.append(scored.machine_label)
                    risk_scores.append(scored.risk_score)
                    ground_truth.append(scored.pair.ground_truth)
    finally:
        if handle is not None:
            handle.close()
    if output is not None:
        print(f"wrote {count} scored pairs to {output}")

    stats = service.stats.snapshot()
    print(
        f"scored {count} pairs from {source.name} "
        f"(streamed, chunk size {chunk_size}, {execution.workers} worker(s))"
    )
    print(
        f"  throughput: {stats['pairs_per_second']:.1f} pairs/s over "
        f"{int(stats['batches'])} batches (mean batch {stats['mean_batch_size']:.1f})"
    )
    print(
        f"  vectorisation cache: {stats['cache_hit_rate']:.1%} hit rate "
        f"({int(stats['cache_hits'])} hits / {int(stats['cache_misses'])} misses)"
    )
    if labeled and count > 0:
        risk_labels = mislabel_indicator(
            np.asarray(machine_labels, dtype=int), np.asarray(ground_truth, dtype=int)
        )
        if 0 < risk_labels.sum() < len(risk_labels):
            auroc = auroc_score(risk_labels, np.asarray(risk_scores, dtype=float))
            print(f"  risk ranking AUROC: {auroc:.4f}")
    _write_metrics(args, metrics)
    return 0


def _build_block_corpus(args: argparse.Namespace):
    """The record corpus a ``block`` run reads (tables in, candidates out)."""
    from ..blocking import CsvCorpus, DatasetCorpus, GeneratedCorpus

    if args.dataset:
        return DatasetCorpus(args.dataset, scale=args.scale)
    if args.data_dir:
        if not args.schema:
            raise SystemExit("--schema is required when blocking from --data-dir")
        return CsvCorpus(args.data_dir, args.name, _load_schema(args.schema))
    if args.domain:
        from ..data.generators import GenerationConfig

        config = GenerationConfig(n_base_entities=args.entities, seed=args.seed)
        return GeneratedCorpus(
            args.domain, config=config, n_waves=args.waves, name=args.name, seed=args.seed
        )
    raise SystemExit("provide --dataset, --data-dir or --domain")


def _build_block_blocker(args: argparse.Namespace):
    """The blocker a ``block`` run applies, from the per-kind flag group."""
    from ..blocking import InvertedIndexBlocker, MinHashLSHBlocker, SortedWindowBlocker

    if args.blocker in ("inverted", "minhash"):
        if not args.attributes:
            raise SystemExit(f"--attributes is required for the {args.blocker} blocker")
        attributes = [part.strip() for part in args.attributes.split(",") if part.strip()]
        if args.blocker == "inverted":
            return InvertedIndexBlocker(
                attributes,
                min_shared=args.min_shared,
                max_token_frequency=args.max_token_frequency,
            )
        return MinHashLSHBlocker(attributes, bands=args.bands, rows=args.rows, seed=args.seed)
    if not args.key_attribute:
        raise SystemExit("--key-attribute is required for the sorted_window blocker")
    return SortedWindowBlocker(args.key_attribute, window=args.window)


def _cmd_block(args: argparse.Namespace) -> int:
    """Stream blocked candidate id pairs from raw record tables to CSV.

    Candidates are written chunk by chunk as each wave's index is probed —
    the full candidate set is never held in memory, so corpus size is bounded
    only by one wave's tables.  Recall against the corpus's ground-truth
    matches (when it has any) is tracked incrementally the same way.
    """
    from ..blocking.blockers import chunk_id_pairs
    from ..obs import get_recorder

    corpus = _build_block_corpus(args)
    blocker = _build_block_blocker(args)
    metrics = _metrics_registry(args)
    recording = use_recorder(metrics) if metrics is not None else nullcontext()

    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    candidates = 0
    waves = 0
    total_matches = 0
    found_matches = 0
    with recording, output.open("w", newline="") as handle:
        recorder = get_recorder()
        writer = csv.writer(handle)
        writer.writerow(("left_id", "right_id"))
        for wave in corpus.waves():
            waves += 1
            recorder.count("blocking.waves")
            remaining = set(wave.matches)
            total_matches += len(remaining)
            for chunk in chunk_id_pairs(blocker.iter_wave_candidates(wave), args.chunk_size):
                recorder.count("blocking.candidates_emitted", len(chunk))
                writer.writerows(chunk)
                candidates += len(chunk)
                for pair in chunk:
                    remaining.discard(pair)
            found_matches += len(wave.matches) - len(remaining)

    print(
        f"blocked {corpus.name} with {blocker.name}: "
        f"{candidates} candidate pairs over {waves} wave(s) -> {output}"
    )
    if total_matches:
        print(
            f"  recall: {found_matches / total_matches:.4f} "
            f"({found_matches}/{total_matches} ground-truth matches retained)"
        )
    _write_metrics(args, metrics)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Emit decision-level explain payloads for the riskiest pairs, as JSON."""
    pipeline = load_pipeline(args.model)
    workload = _load_workload(args, schema=pipeline.vectorizer.schema)
    pairs = list(workload.pairs)
    explanations = pipeline.explain_pairs(pairs, top_rules=args.rules)
    risk_scores = np.array(
        [explanation.risk_score for explanation in explanations], dtype=float
    )
    order = np.argsort(-risk_scores, kind="stable")
    if args.top is not None:
        order = order[:args.top]
    payload = []
    for index in order:
        left_id, right_id = pairs[int(index)].pair_id
        payload.append({
            "left_id": left_id,
            "right_id": right_id,
            **explanations[int(index)].to_dict(),
        })
    document = json.dumps(payload, indent=2)
    if args.output:
        output = Path(args.output)
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(document + "\n")
        print(f"wrote {len(payload)} explanations to {output}")
    else:
        print(document)
    return 0


def _resolve_policy_from_args(args: argparse.Namespace, attributes_flag: str):
    """A :class:`~repro.online.ResolutionPolicy` from the shared flag group."""
    from ..online import ResolutionPolicy

    raw = getattr(args, attributes_flag)
    attributes = tuple(part.strip() for part in raw.split(",") if part.strip())
    if not attributes:
        raise SystemExit(f"--{attributes_flag.replace('_', '-')} must name at least one attribute")
    return ResolutionPolicy(
        attributes=attributes,
        merge_threshold=args.merge_threshold,
        split_threshold=args.split_threshold,
        min_shared=args.min_shared,
        max_postings=args.max_postings,
        explain=not getattr(args, "no_explain", False),
    )


def _cmd_resolve(args: argparse.Namespace) -> int:
    """Stream a record corpus through the online resolver, decision by decision."""
    from ..online import EventLog, OnlineResolver

    pipeline = load_pipeline(args.model)
    corpus = _build_block_corpus(args)
    policy = _resolve_policy_from_args(args, "attributes")
    metrics = _metrics_registry(args)
    recording = use_recorder(metrics) if metrics is not None else nullcontext()
    service = RiskService(
        pipeline, max_batch_size=args.batch_size, cache_size=args.cache_size,
        metrics=metrics,
    )
    log = EventLog(args.events) if args.events else EventLog()
    resolver = OnlineResolver(service, policy, event_log=log)
    with recording, service, log:
        summary = resolver.resolve_corpus(corpus, max_waves=args.max_waves)
    state = resolver.state_dict()
    print(
        f"resolved {summary.records} records from {corpus.name} "
        f"({summary.pairs_scored} candidate pairs scored)"
    )
    print(
        f"  merges: {summary.merges}  splits: {summary.splits}  "
        f"escalations: {summary.escalations}"
    )
    print(
        f"  clusters (multi-record): {len(state['clusters'])}  "
        f"cannot-links: {len(state['cannot_links'])}"
    )
    if args.events:
        print(f"  event log: {len(resolver.log)} events -> {args.events}")
    _write_metrics(args, metrics)
    return 0


def _cmd_http(args: argparse.Namespace) -> int:
    """Serve a saved model over HTTP until interrupted."""
    import asyncio

    from .http import LINGER_SECONDS, ServerConfig, build_server

    config = ServerConfig(
        host=args.host,
        port=args.port,
        coalesce_batch_size=args.coalesce_batch_size,
        service_batch_size=args.batch_size,
        service_cache_size=args.cache_size,
    )
    online_policy = None
    if args.resolve_attributes:
        online_policy = _resolve_policy_from_args(args, "resolve_attributes")
    server = build_server(
        args.model, model_name=args.model_name, config=config,
        online_policy=online_policy, events_path=args.events,
    )

    async def _serve() -> None:
        await server.start()
        print(
            f"serving model {args.model_name!r} from {args.model} "
            f"on http://{server.host}:{server.port}",
            flush=True,
        )
        endpoints = (
            "endpoints: GET /healthz /models /stats, "
            "POST /score /explain /models/swap /models/rollback"
        )
        if online_policy is not None:
            endpoints += (
                "; online: POST /resolve /events/revert, "
                "GET /clusters/{id} /events"
            )
        print(
            f"  coalescing: batch<= {config.coalesce_batch_size}, "
            f"linger {LINGER_SECONDS * 1e3:g}ms; " + endpoints,
            flush=True,
        )
        try:
            await server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await server.stop()

    # Pipeline spans (vectorize/classify/...) recorded while serving land in
    # the same registry the HTTP counters use, so /stats shows both.
    try:
        with use_recorder(server.metrics):
            asyncio.run(_serve())
    except KeyboardInterrupt:
        print("shutting down", flush=True)
    if args.metrics_out:
        path = server.metrics.write_json(args.metrics_out)
        print(f"wrote metrics snapshot to {path}")
    return 0


def _format_seconds(seconds: float) -> str:
    return f"{seconds * 1000.0:.1f}ms" if seconds < 1.0 else f"{seconds:.2f}s"


def _cmd_stats(args: argparse.Namespace) -> int:
    """Pretty-print a metrics snapshot written by ``score --metrics-out``."""
    path = Path(args.metrics)
    if not path.is_file():
        raise DataError(f"metrics snapshot {path} does not exist")
    try:
        snapshot = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"metrics snapshot {path} is not valid JSON: {exc}") from exc
    if not isinstance(snapshot, dict):
        raise DataError(f"metrics snapshot {path} is not a JSON object")
    print(f"metrics snapshot {args.metrics} (schema v{snapshot.get('version', '?')})")
    counters = snapshot.get("counters", {})
    if counters:
        print("counters:")
        for name in sorted(counters):
            value = counters[name]
            text = f"{value:.3f}" if isinstance(value, float) and value != int(value) else f"{int(value)}"
            print(f"  {name}: {text}")
    totals = snapshot.get("span_totals", {})
    if totals:
        print("time by span (leaf totals):")
        grand_total = sum(totals.values()) or 1.0
        ranked = sorted(totals.items(), key=lambda item: -item[1])
        for name, seconds in ranked[:args.spans]:
            print(f"  {name}: {_format_seconds(seconds)} ({seconds / grand_total:.1%})")
    histograms = snapshot.get("histograms", {})
    batch = histograms.get("service.batch_seconds")
    if batch and batch.get("count"):
        print(
            f"batch latency: p50 {_format_seconds(batch['p50'])}  "
            f"p95 {_format_seconds(batch['p95'])}  "
            f"p99 {_format_seconds(batch['p99'])} over {int(batch['count'])} batches"
        )
    pairs = counters.get("service.pairs_scored", 0)
    seconds = counters.get("service.scoring_seconds", 0.0)
    if pairs and seconds:
        print(f"throughput: {pairs / seconds:.1f} pairs/s ({int(pairs)} pairs)")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    pipeline = load_pipeline(args.model)
    manifest = json.loads((Path(args.model) / "manifest.json").read_text())
    print(f"model directory: {args.model}")
    print(f"  kind: {manifest.get('kind')}  format: v{manifest.get('format_version')}  "
          f"written by repro {manifest.get('library_version')}")
    schema = pipeline.vectorizer.schema
    print(f"  schema: {', '.join(f'{a.name}:{a.attr_type.value}' for a in schema)}")
    print(f"  metrics: {pipeline.vectorizer.n_features}")
    print(f"  classifier: {type(pipeline.classifier).__name__}")
    print(f"  risk rules: {len(pipeline.risk_features.rules)}  "
          f"risk metric: {pipeline.spec.risk_metric}  "
          f"decision threshold: {pipeline.decision_threshold}")
    print(f"  spec: classifier={pipeline.spec.classifier.kind!r} "
          f"vectorizer={pipeline.spec.vectorizer.kind!r} "
          f"risk_features={pipeline.spec.risk_features.kind!r}")
    for description in pipeline.risk_features.describe(limit=args.rules):
        print(f"    {description}")
    return 0


# ----------------------------------------------------------------------- parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Fit, save, load and serve LearnRisk pipelines.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    def add_workload_arguments(sub: argparse.ArgumentParser, with_schema: bool) -> None:
        sub.add_argument("--dataset", help="built-in workload name (DS, DA, AB, AG, SG)")
        sub.add_argument("--scale", type=float, default=0.3,
                         help="built-in workload scale (default 0.3)")
        sub.add_argument("--data-dir", help="directory of CSV files (repro.data.io layout)")
        sub.add_argument("--name", default="workload",
                         help="CSV workload name prefix (default 'workload')")
        if with_schema:
            sub.add_argument("--schema",
                             help="JSON schema file (Schema.to_dict format) for --data-dir")

    fit = subparsers.add_parser("fit", help="fit a pipeline and save it")
    add_workload_arguments(fit, with_schema=True)
    fit.add_argument("--output", required=True, help="model directory to write")
    fit.add_argument("--spec",
                     help="pipeline spec JSON file (PipelineSpec.to_json format); "
                          "overrides the per-field options below")
    fit.add_argument("--classifier", choices=registered_classifiers(), default="mlp")
    fit.add_argument("--epochs", type=int, default=None,
                     help="classifier training epochs (classifier-specific default)")
    fit.add_argument("--risk-epochs", type=int, default=200,
                     help="risk-model training epochs (default 200)")
    fit.add_argument("--rule-depth", type=int, default=3,
                     help="max conditions per generated rule (default 3)")
    fit.add_argument("--risk-metric", choices=registered_risk_metrics(), default="var")
    fit.add_argument("--ratio", type=_parse_ratio, default=(3.0, 2.0, 5.0),
                     help="train,validation,test split ratio (default 3,2,5)")
    fit.add_argument("--seed", type=int, default=0)
    fit.set_defaults(handler=_cmd_fit)

    block = subparsers.add_parser(
        "block", help="stream blocked candidate pairs from raw record tables to CSV"
    )
    add_workload_arguments(block, with_schema=True)
    block.add_argument("--domain",
                       help="generate the corpus from this synthetic domain "
                            "(bibliographic, product, software, song) instead of "
                            "--dataset/--data-dir")
    block.add_argument("--entities", type=_positive_int, default=400,
                       help="base entities per generated wave (default 400)")
    block.add_argument("--waves", type=_positive_int, default=1,
                       help="number of generated waves (default 1)")
    block.add_argument("--blocker", choices=("inverted", "minhash", "sorted_window"),
                       default="inverted", help="blocking strategy (default inverted)")
    block.add_argument("--attributes",
                       help="comma-separated blocking attributes (inverted/minhash)")
    block.add_argument("--min-shared", type=_positive_int, default=1,
                       help="min shared tokens for the inverted blocker (default 1)")
    block.add_argument("--max-token-frequency", type=float, default=0.1,
                       help="stop-token document-frequency cutoff (default 0.1)")
    block.add_argument("--bands", type=_positive_int, default=8,
                       help="MinHash-LSH bands (default 8)")
    block.add_argument("--rows", type=_positive_int, default=4,
                       help="MinHash rows per band (default 4)")
    block.add_argument("--window", type=_positive_int, default=5,
                       help="sorted_window neighbourhood size (default 5)")
    block.add_argument("--key-attribute",
                       help="sort-key attribute for the sorted_window blocker")
    block.add_argument("--output", required=True,
                       help="candidate-pair CSV to write (left_id,right_id rows, "
                            "streamed chunk by chunk)")
    block.add_argument("--chunk-size", type=_positive_int, default=1024,
                       help="pairs per written chunk (default 1024)")
    block.add_argument("--seed", type=int, default=0,
                       help="seed for generated corpora and the minhash blocker")
    block.add_argument("--metrics-out",
                       help="write a JSON metrics snapshot (index-build spans, "
                            "candidate counters) to this file")
    block.set_defaults(handler=_cmd_block)

    score = subparsers.add_parser("score", help="score a workload with a saved pipeline")
    add_workload_arguments(score, with_schema=False)
    score.add_argument("--model", required=True, help="saved model directory")
    score.add_argument("--output", help="CSV file for the per-pair scores")
    score.add_argument("--batch-size", type=_positive_int, default=256)
    score.add_argument("--cache-size", type=int, default=4096)
    score.add_argument("--chunk-size", type=_positive_int, default=None,
                       help="pairs pulled from the workload per chunk; memory stays "
                            "bounded by one chunk (default: the model spec's "
                            "execution chunk size, else --batch-size)")
    score.add_argument("--input",
                       help="candidate-pair CSV streamed instead of <name>_pairs.csv "
                            "(requires --data-dir)")
    score.add_argument("--source",
                       help="pair-source component spec (JSON file or inline JSON, "
                            "{\"kind\": ..., \"params\": {...}}) streamed instead of "
                            "--dataset/--data-dir; e.g. a 'blocked' source that "
                            "generates candidates from raw tables")
    score.add_argument("--workers", type=_positive_int, default=None,
                       help="score with this many pool workers (sharded, deterministic "
                            "order, bit-identical output; default: the model spec's "
                            "execution config, else 1)")
    score.add_argument("--metrics-out",
                       help="write a JSON metrics snapshot of the run (spans, "
                            "serving counters, latency histograms) to this file; "
                            "never changes the scores")
    score.set_defaults(handler=_cmd_score)

    def add_policy_arguments(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--merge-threshold", type=float, default=0.2,
                         help="auto-merge a machine match when its risk score is "
                              "at or below this (default 0.2)")
        sub.add_argument("--split-threshold", type=float, default=0.2,
                         help="auto-split a machine unmatch when its risk score is "
                              "at or below this (default 0.2)")
        sub.add_argument("--min-shared", type=_positive_int, default=1,
                         help="min shared tokens for the live blocking index "
                              "(default 1)")
        sub.add_argument("--max-postings", type=_positive_int, default=None,
                         help="prune live-index tokens past this many postings "
                              "(bounds probing on open-ended streams)")
        sub.add_argument("--events",
                         help="mirror the decision log to this JSONL file "
                              "(an existing log resumes its cluster state)")

    resolve = subparsers.add_parser(
        "resolve",
        help="stream a record corpus through the online resolver "
             "(incremental blocking, risk-thresholded merge/split/escalate, "
             "audited event log)",
    )
    add_workload_arguments(resolve, with_schema=True)
    resolve.add_argument("--domain",
                         help="generate the corpus from this synthetic domain "
                              "(bibliographic, product, software, song) instead of "
                              "--dataset/--data-dir")
    resolve.add_argument("--entities", type=_positive_int, default=400,
                         help="base entities per generated wave (default 400)")
    resolve.add_argument("--waves", type=_positive_int, default=1,
                         help="number of generated waves (default 1)")
    resolve.add_argument("--model", required=True, help="saved model directory")
    resolve.add_argument("--attributes", required=True,
                         help="comma-separated attributes the live blocking index "
                              "tokenises")
    add_policy_arguments(resolve)
    resolve.add_argument("--no-explain", action="store_true",
                         help="skip fired-rule explanations on events (faster)")
    resolve.add_argument("--max-waves", type=_positive_int, default=None,
                         help="stop after this many corpus waves")
    resolve.add_argument("--batch-size", type=_positive_int, default=256)
    resolve.add_argument("--cache-size", type=int, default=4096)
    resolve.add_argument("--seed", type=int, default=0,
                         help="seed for generated corpora")
    resolve.add_argument("--metrics-out",
                         help="write a JSON metrics snapshot (online counters, "
                              "decision latency) to this file")
    resolve.set_defaults(handler=_cmd_resolve)

    inspect = subparsers.add_parser("inspect", help="describe a saved model")
    inspect.add_argument("--model", required=True, help="saved model directory")
    inspect.add_argument("--rules", type=int, default=5,
                         help="number of rules to print (default 5)")
    inspect.set_defaults(handler=_cmd_inspect)

    explain = subparsers.add_parser(
        "explain", help="emit fired-rule explain payloads for the riskiest pairs"
    )
    add_workload_arguments(explain, with_schema=False)
    explain.add_argument("--model", required=True, help="saved model directory")
    explain.add_argument("--top", type=_positive_int, default=10,
                         help="number of riskiest pairs to explain (default 10)")
    explain.add_argument("--rules", type=_positive_int, default=None,
                         help="max fired rules per pair (default: all)")
    explain.add_argument("--output", help="write the JSON document here instead of stdout")
    explain.set_defaults(handler=_cmd_explain)

    http_cmd = subparsers.add_parser(
        "http",
        help="serve a saved model over HTTP (async, micro-batch request coalescing)",
    )
    http_cmd.add_argument("--model", required=True, help="saved model directory")
    http_cmd.add_argument("--model-name", default="default",
                          help="registry name the endpoints default to "
                               "(default 'default')")
    http_cmd.add_argument("--host", default="127.0.0.1",
                          help="bind address (default 127.0.0.1)")
    http_cmd.add_argument("--port", type=int, default=8080,
                          help="bind port; 0 picks an ephemeral port (default 8080)")
    http_cmd.add_argument("--batch-size", type=_positive_int, default=256,
                          help="RiskService micro-batch size (default 256)")
    http_cmd.add_argument("--cache-size", type=int, default=4096,
                          help="vectorisation LRU cache entries (default 4096)")
    http_cmd.add_argument("--coalesce-batch-size", type=_positive_int, default=64,
                          help="max single-pair requests coalesced into one "
                               "scoring batch (default 64)")
    http_cmd.add_argument("--resolve-attributes",
                          help="enable the online-resolution endpoints "
                               "(POST /resolve, GET /clusters/{id}, GET /events, "
                               "POST /events/revert) with a live blocking index "
                               "over these comma-separated attributes")
    add_policy_arguments(http_cmd)
    http_cmd.add_argument("--metrics-out",
                          help="write the final obs snapshot here on shutdown")
    http_cmd.set_defaults(handler=_cmd_http)

    stats = subparsers.add_parser(
        "stats", help="pretty-print a metrics snapshot from score --metrics-out"
    )
    stats.add_argument("--metrics", required=True,
                       help="metrics snapshot JSON written by score --metrics-out")
    stats.add_argument("--spans", type=_positive_int, default=10,
                       help="number of span totals to show (default 10)")
    stats.set_defaults(handler=_cmd_stats)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
