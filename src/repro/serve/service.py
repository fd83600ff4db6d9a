"""Batched risk scoring around a fitted pipeline.

:class:`RiskService` is the online counterpart of
:meth:`~repro.compose.staged.StagedPipeline.analyse`: it wraps a fitted pipeline
and scores record pairs as they arrive, the way a risk model sits in front of
a live ER classifier to triage its output for human review.

Three serving concerns are handled here:

* **Micro-batching** — :meth:`RiskService.score_pairs` and
  :meth:`RiskService.explain_pairs` run their input in batches of at most
  ``max_batch_size`` pairs.  Batch scoring amortises the classifier forward
  pass and the portfolio aggregation over many pairs; explaining scores the
  pairs in the same pass, so an explained pair is never scored twice.
* **Vectorisation caching** — turning a record pair into its metric vector
  (string similarities, TF-IDF cosine, ...) dominates scoring cost and depends
  only on the pair's records, so vectors are memoised in an LRU cache keyed by
  record-pair identity.  Re-scoring a pair after a model hot-swap hits the
  cache even though the risk scores change.
* **Statistics** — the service counts pairs, batches, cache hits and scoring
  time so operators can watch throughput and cache effectiveness.

All public methods are thread-safe; a single lock serialises scoring, which
keeps the numpy pipeline components (which are not re-entrant during a forward
pass) safe under concurrent callers.

**Multi-worker scoring.**  :meth:`RiskService.score_source` accepts
``workers=N`` / an :class:`~repro.parallel.config.ExecutionConfig` and routes
chunks through the :class:`~repro.parallel.engine.ParallelScoringEngine`,
which shards them over a process pool (small known-length sources stay
serial) and merges results back in source order, bit-identical to the serial
path.  The service itself is never shipped to workers — it holds a lock and a
mutable LRU cache, both of which are process-local by design; workers rebuild
the *pipeline* from its picklable state instead.  Parallel passes therefore
bypass the vectorisation cache; the statistics count those pairs separately
(``cache_bypassed``) so the hit rate keeps describing only lookups the cache
actually served.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..compose.staged import StagedPipeline
from ..data.records import RecordPair
from ..data.sources import PairSource
from ..data.workload import Workload
from ..exceptions import ConfigurationError, NotFittedError
from ..obs import MetricsRegistry
from ..parallel.config import ExecutionConfig
from ..risk.model import PairRiskExplanation

#: Identity of a record pair: source + id of both sides.
PairKey = tuple[str, str, str, str]


def pair_key(pair: RecordPair) -> PairKey:
    """The cache identity of a record pair."""
    return (pair.left.source, pair.left.record_id, pair.right.source, pair.right.record_id)


@dataclass(frozen=True)
class ScoredPair:
    """One pair's serving result: classifier output plus mislabeling risk."""

    pair: RecordPair
    probability: float
    machine_label: int
    risk_score: float


class ServiceStats:
    """Serving counters backed by a :class:`~repro.obs.MetricsRegistry`.

    The ``record_*`` methods write; :meth:`snapshot` is the one read.  Pass
    the registry the rest of the process records into (e.g. the one
    installed with :func:`repro.obs.use_recorder`) and one JSON snapshot
    carries the serving counters next to the pipeline's span timings.  All
    counters live under the ``service.`` prefix; batch latencies additionally
    feed the ``service.batch_seconds`` histogram (p50/p95/p99 in the registry
    snapshot).
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    def record_batch(self, batch_size: int, seconds: float) -> None:
        # One atomic transaction: a concurrent snapshot() sees either none or
        # all of a batch's updates, so cross-counter invariants (pairs_scored
        # == sum of batch sizes, batches == batch_size histogram count) hold
        # in every snapshot, not just quiescent ones.
        self.registry.apply(
            counters={
                "service.pairs_scored": batch_size,
                "service.batches": 1,
                "service.scoring_seconds": seconds,
            },
            observations={
                "service.batch_seconds": seconds,
                "service.batch_size": batch_size,
            },
            gauge_maxima={"service.largest_batch": batch_size},
        )

    def record_cache(self, hits: int, misses: int) -> None:
        self.registry.apply(
            counters={"service.cache_hits": hits, "service.cache_misses": misses}
        )

    def record_bypass(self, pairs: int) -> None:
        """Count pairs scored without consulting the cache (parallel passes)."""
        self.registry.count("service.cache_bypassed", pairs)

    def record_corpus_entries(self, entries: int) -> None:
        """Track the vectoriser's corpus-index size as a gauge."""
        self.registry.gauge("service.corpus_index_entries", entries)

    def snapshot(self) -> dict[str, float]:
        """A point-in-time copy of the counters plus derived rates.

        ``cache_hit_rate`` covers only lookups the LRU cache served: pairs
        that bypassed it (multi-worker scoring vectorises inside the workers)
        count in ``cache_bypassed``, never as misses.  All values come from
        *one* consistent registry read
        (:meth:`~repro.obs.MetricsRegistry.values`), so a snapshot taken while
        other threads are recording batches is internally consistent: derived
        rates (mean batch size, hit rate, throughput) are computed from
        counters captured at the same instant, never from a numerator read
        before and a denominator read after a concurrent
        :meth:`record_batch`.
        """
        counters, gauges = self.registry.values()

        def counter(name: str) -> float:
            return float(counters.get(f"service.{name}", 0))

        pairs_scored = counter("pairs_scored")
        batches = counter("batches")
        cache_hits = counter("cache_hits")
        cache_misses = counter("cache_misses")
        scoring_seconds = counter("scoring_seconds")
        lookups = cache_hits + cache_misses
        return {
            "pairs_scored": pairs_scored,
            "batches": batches,
            "largest_batch": float(gauges.get("service.largest_batch", 0.0)),
            "mean_batch_size": pairs_scored / batches if batches else 0.0,
            "cache_hits": cache_hits,
            "cache_misses": cache_misses,
            "cache_bypassed": counter("cache_bypassed"),
            "cache_hit_rate": cache_hits / lookups if lookups else 0.0,
            "corpus_index_entries": float(gauges.get("service.corpus_index_entries", 0.0)),
            "scoring_seconds": scoring_seconds,
            "pairs_per_second": (
                pairs_scored / scoring_seconds if scoring_seconds > 0.0 else 0.0
            ),
        }


class RiskService:
    """Serve risk scores from a fitted :class:`~repro.compose.staged.StagedPipeline`.

    Parameters
    ----------
    pipeline:
        A fitted pipeline, freshly fitted or loaded with
        :func:`repro.serve.persistence.load_pipeline`.
    max_batch_size:
        The most pairs scored or explained under one hold of the service lock.
    cache_size:
        Maximum number of metric vectors kept in the LRU vectorisation cache;
        0 disables caching.
    metrics:
        A :class:`~repro.obs.MetricsRegistry` the serving statistics record
        into; defaults to a private registry.  Pass the registry installed as
        the global recorder to get one combined snapshot (service counters
        plus pipeline spans) — the serve CLI's ``--metrics-out`` does exactly
        that.
    """

    def __init__(
        self,
        pipeline: StagedPipeline,
        *,
        max_batch_size: int = 256,
        cache_size: int = 4096,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if not pipeline.is_fitted:
            raise NotFittedError("RiskService requires a fitted pipeline")
        if max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be >= 1")
        if cache_size < 0:
            raise ConfigurationError("cache_size must be >= 0")
        self.pipeline = pipeline
        self.max_batch_size = max_batch_size
        self.cache_size = cache_size
        self.stats = ServiceStats(metrics)
        self._lock = threading.RLock()
        self._cache: OrderedDict[PairKey, np.ndarray] = OrderedDict()
        # Lazily-built multi-worker engines keyed by execution config, reused
        # across parallel passes so repeated score_source(workers=N) calls
        # keep their warmed pool.  One engine per config (instead of swapping
        # a single slot) so a caller with a new config can never tear down a
        # pool that another in-flight stream is still consuming.
        self._engines: dict[ExecutionConfig, object] = {}
        # Compile the rule-coverage kernel up front so the first request does
        # not pay the build cost; every batch then reuses this one kernel.
        if pipeline.risk_model is not None:
            pipeline.risk_model.features.kernel

    # ------------------------------------------------------------ vectorising
    def _vectorize(self, pairs: Sequence[RecordPair]) -> np.ndarray:
        """Metric matrix for ``pairs``, served from the LRU cache where possible."""
        vectorizer = self.pipeline.vectorizer
        if self.cache_size == 0:
            self.stats.record_cache(hits=0, misses=len(pairs))
            return vectorizer.transform(pairs)

        rows: list[np.ndarray | None] = [None] * len(pairs)
        miss_indices: list[int] = []
        hits = 0
        for index, pair in enumerate(pairs):
            key = pair_key(pair)
            cached = self._cache.get(key)
            if cached is not None:
                self._cache.move_to_end(key)
                rows[index] = cached
                hits += 1
            else:
                miss_indices.append(index)
        self.stats.record_cache(hits=hits, misses=len(miss_indices))

        if miss_indices:
            # One batched transform for all misses (the vectoriser's
            # column-major path) instead of a per-pair call each.
            miss_matrix = vectorizer.transform([pairs[index] for index in miss_indices])
            for row_number, index in enumerate(miss_indices):
                # Copy the row out of the batch matrix (so the cache does not
                # pin the whole batch in memory) and freeze it: a caller
                # mutating a matrix built from cached rows can never corrupt
                # the cache.
                vector = miss_matrix[row_number].copy()
                vector.setflags(write=False)
                rows[index] = vector
                key = pair_key(pairs[index])
                self._cache[key] = vector
                self._cache.move_to_end(key)
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)

        if not rows:
            return np.zeros((0, vectorizer.n_features), dtype=float)
        return np.vstack(rows)

    def clear_cache(self) -> None:
        """Drop every cached metric vector and the vectoriser's corpus index.

        The corpus index is a pure cache (scores never depend on it), so
        resetting it alongside the LRU rows returns the service to its
        cold-memory footprint without touching any fitted state.
        """
        with self._lock:
            self._cache.clear()
            index = getattr(self.pipeline.vectorizer, "corpus_index", None)
            if index is not None:
                index.reset()
            self.stats.record_corpus_entries(0)

    @property
    def cache_fill(self) -> int:
        """Number of metric vectors currently cached."""
        with self._lock:
            return len(self._cache)

    # ----------------------------------------------------------------- scoring
    def _model_batch(self, pairs: Sequence[RecordPair], model_pass) -> tuple:
        """Vectorise, classify and run ``model_pass`` on one batch (caller holds the lock).

        ``model_pass(matrix, probabilities, machine_labels)`` is the risk
        model's ``score`` or ``explain_pairs``; the batch counts once in the
        statistics either way.  Returns ``(probabilities, machine_labels,
        model_pass output)``.
        """
        start = time.perf_counter()
        matrix = self._vectorize(pairs)
        # The pipeline owns the decision threshold (a spec field); going
        # through classify_matrix keeps serving and analyse() in agreement.
        probabilities, machine_labels = self.pipeline.classify_matrix(matrix)
        output = model_pass(matrix, probabilities, machine_labels)
        elapsed = time.perf_counter() - start
        self.stats.record_batch(len(pairs), elapsed)
        index = getattr(self.pipeline.vectorizer, "corpus_index", None)
        if index is not None:
            self.stats.record_corpus_entries(index.entry_count)
        return probabilities, machine_labels, output

    def _score_batch(self, pairs: Sequence[RecordPair]) -> list[ScoredPair]:
        """Score ``pairs`` as one batch (caller holds the lock)."""
        probabilities, machine_labels, risk_scores = self._model_batch(
            pairs, self.pipeline.risk_model.score
        )
        return [
            ScoredPair(
                pair=pair,
                probability=float(probabilities[index]),
                machine_label=int(machine_labels[index]),
                risk_score=float(risk_scores[index]),
            )
            for index, pair in enumerate(pairs)
        ]

    def _in_batches(self, pairs: Iterable[RecordPair], run_batch) -> list:
        """``run_batch`` over consecutive ``max_batch_size`` slices of ``pairs``, concatenated."""
        pairs = list(pairs)
        results = []
        # Lock per micro-batch, not across the whole input, so concurrent
        # callers are never blocked for more than one batch.
        for start in range(0, len(pairs), self.max_batch_size):
            with self._lock:
                results.extend(run_batch(pairs[start:start + self.max_batch_size]))
        return results

    def score_pairs(self, pairs: Iterable[RecordPair]) -> list[ScoredPair]:
        """Score pairs immediately.

        Large inputs are processed in micro-batches of ``max_batch_size`` so
        memory stays bounded and batch statistics stay meaningful.
        """
        return self._in_batches(pairs, self._score_batch)

    def risk_scores(self, pairs: Iterable[RecordPair]) -> np.ndarray:
        """Risk scores only, as an array aligned with ``pairs``."""
        return np.array([scored.risk_score for scored in self.score_pairs(pairs)], dtype=float)

    def explain_pairs(
        self, pairs: Iterable[RecordPair], top_rules: int | None = None
    ) -> list[PairRiskExplanation]:
        """Score and explain pairs in one pass, micro-batched like :meth:`score_pairs`.

        Vectorisation goes through the service's LRU cache, and every batch
        counts in the statistics, exactly like scoring.  The payloads are the
        same :class:`~repro.risk.model.PairRiskExplanation` objects the
        pipeline API returns; each carries the probability, machine label and
        risk score :meth:`score_pairs` gives the pair, bit for bit, so a
        caller that explains need not also score.
        """
        explain = functools.partial(self.pipeline.risk_model.explain_pairs, top_rules=top_rules)
        return self._in_batches(pairs, lambda batch: self._model_batch(batch, explain)[2])

    def score_source(
        self,
        source: PairSource | Workload,
        chunk_size: int | None = None,
        workers: int | None = None,
        execution: ExecutionConfig | None = None,
    ) -> Iterator[ScoredPair]:
        """Stream scored pairs from a source without materialising it.

        This is the out-of-core serving path: pairs are pulled from the
        source ``chunk_size`` at a time (defaults to ``max_batch_size``),
        scored in micro-batches, and yielded one by one, so peak memory is
        one chunk regardless of the source size — including unbounded
        :class:`~repro.data.sources.GeneratorSource` streams, which this
        generator consumes lazily.

        ``workers`` / ``execution`` shard the chunks over a worker pool (see
        the module docstring); scored pairs still come back in exact source
        order with bit-identical numbers, so turning parallelism on is purely
        a throughput decision.
        """
        config = self.pipeline._resolve_execution(workers, execution)
        if chunk_size is None:
            chunk_size = config.resolve_chunk_size(self.max_batch_size)
        if chunk_size < 1:
            raise ConfigurationError("chunk_size must be >= 1")
        length_hint = None if config.workers <= 1 else StagedPipeline._length_hint(source)
        if config.resolve_backend(length_hint) != "serial":
            yield from self._score_source_parallel(source, chunk_size, config, length_hint)
            return
        for chunk in source.iter_chunks(chunk_size):
            # Chunks larger than the micro-batch size are split so batch
            # statistics keep their meaning and the lock is never held long.
            for start in range(0, len(chunk), self.max_batch_size):
                with self._lock:
                    scored = self._score_batch(chunk[start:start + self.max_batch_size])
                yield from scored

    def _parallel_engine(self, config: ExecutionConfig):
        """The service's cached scoring engine for ``config``.

        Keeping engines alive across calls means repeated parallel passes
        reuse their warmed worker pool (pipeline state shipped once, kernels
        compiled once) instead of re-paying pool startup per pass; caching
        per config means a concurrent caller with a *different* config gets
        its own engine rather than closing the pool an in-flight stream is
        still consuming.  Engines snapshot the pipeline state on first use —
        after mutating the served pipeline (e.g. ``refit_risk_model``), call
        :meth:`close` so the next pass rebuilds the workers from new state.
        """
        from ..parallel.engine import ParallelScoringEngine

        with self._lock:
            engine = self._engines.get(config)
            if engine is None:
                engine = ParallelScoringEngine(self.pipeline, config)
                self._engines[config] = engine
            return engine

    def close(self) -> None:
        """Shut down every cached multi-worker engine (idempotent)."""
        with self._lock:
            engines, self._engines = list(self._engines.values()), {}
        for engine in engines:
            engine.close()

    def __enter__(self) -> "RiskService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _score_source_parallel(
        self,
        source: PairSource | Workload,
        chunk_size: int,
        config: ExecutionConfig,
        length_hint: int | None,
    ) -> Iterator[ScoredPair]:
        """The multi-worker branch of :meth:`score_source` (same order, same numbers)."""
        engine = self._parallel_engine(config)
        results = engine.map_chunks(source.iter_chunks(chunk_size), length_hint=length_hint)
        while True:
            start = time.perf_counter()
            batch = next(results, None)
            if batch is None:
                return
            chunk, scores = batch
            elapsed = time.perf_counter() - start
            # Workers vectorise in their own processes; the parent-side LRU
            # cache is never consulted, so these pairs are counted as
            # *bypassed* — not as misses, which would dilute the hit rate of
            # lookups the cache actually served.  The stats object is shared
            # with the serial path, so updates happen under the service lock
            # like every other writer.
            with self._lock:
                self.stats.record_bypass(len(chunk))
                self.stats.record_batch(len(chunk), elapsed)
            for index, pair in enumerate(chunk):
                yield ScoredPair(
                    pair=pair,
                    probability=float(scores.probabilities[index]),
                    machine_label=int(scores.machine_labels[index]),
                    risk_score=float(scores.risk_scores[index]),
                )
