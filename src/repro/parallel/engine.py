"""Multi-worker sharded scoring: fan chunks out, merge results in order.

:class:`ParallelScoringEngine` takes a fitted pipeline plus an
:class:`~repro.parallel.config.ExecutionConfig` and turns any stream of pair
chunks into a stream of :class:`~repro.parallel.chunks.ChunkScores` — scored
by a pool of workers but **emitted in exact source order**, regardless of the
order in which workers finish.  Every consumer of chunked scoring
(``StagedPipeline.analyse_batches``, ``RiskService.score_source``, the serve
CLI, the benchmarks) goes through this one engine, so there is a single place
where the determinism contract lives:

* **Same numbers.**  Workers score with a pipeline rebuilt once per worker
  from the parent pipeline's picklable ``to_state()`` dict — the exact state
  the persistence layer round-trips bit for bit — and chunk scoring runs the
  same :meth:`~repro.compose.staged.StagedPipeline.score_chunk` code path as
  the serial loop.  Together with the batch-invariant reductions of
  :mod:`repro.numerics` this makes parallel output bit-identical to serial
  output at any worker count and any chunk size.
* **Same order.**  Chunks are tagged with their source index at submission
  and results are yielded strictly in that order; completion order never
  leaks.  The engine keeps at most ``config.window`` chunks in flight, so
  parent-side memory stays bounded by the window while the pool never
  starves.
* **Same failure.**  An exception in any worker propagates to the consumer at
  the failed chunk's position in the stream.

Backends: a :class:`~concurrent.futures.ProcessPoolExecutor` for throughput
(each worker process initialises its pipeline once and keeps its rule kernel
warm), and a serial path that scores with the parent pipeline directly.
"""

from __future__ import annotations

import dataclasses
import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from ..data.records import RecordPair
from ..exceptions import ConfigurationError, NotFittedError
from ..obs import get_recorder
from .chunks import ChunkScores
from .config import ExecutionConfig

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (compose imports us)
    from ..compose.staged import StagedPipeline


# ------------------------------------------------------------ worker side
#: The per-process pipeline of a process-pool worker, rebuilt once by
#: :func:`_initialize_process_worker` and reused for every chunk the worker
#: scores.  Module-global because process pools can only reach workers through
#: module-level functions.
_WORKER_PIPELINE: "StagedPipeline | None" = None

#: One-time pipeline rebuild cost of this worker process, stamped onto the
#: first chunk it returns (then reset to 0).  Process pools can only report
#: initializer-side work through a later task result, hence the stash.
_WORKER_REBUILD_SECONDS: float = 0.0


def _pipeline_from_state(state: dict) -> "StagedPipeline":
    """Rebuild a scoring pipeline from its picklable state and warm it up."""
    # Imported here, not at module level: repro.compose imports repro.parallel
    # for the ExecutionConfig spec field, so the reverse import must be lazy.
    from ..compose.staged import StagedPipeline

    pipeline = StagedPipeline.from_state(state)
    # Explicit warm-up: the rule kernel is a lazy cache that is deliberately
    # dropped from pickled state (see GeneratedRiskFeatures.__getstate__);
    # compiling it here means the first chunk pays no build cost and no lazy
    # state is ever populated mid-scoring.
    pipeline.warm_kernel()
    return pipeline


def _initialize_process_worker(state: dict) -> None:
    """Process-pool initializer: build this worker's pipeline exactly once."""
    global _WORKER_PIPELINE, _WORKER_REBUILD_SECONDS
    start = time.perf_counter()
    _WORKER_PIPELINE = _pipeline_from_state(state)
    _WORKER_REBUILD_SECONDS = time.perf_counter() - start


def _score_chunk_in_process(pairs: list[RecordPair], explain_top: int) -> ChunkScores:
    """Score one chunk with this process's warmed pipeline."""
    global _WORKER_REBUILD_SECONDS
    assert _WORKER_PIPELINE is not None, "process worker was not initialised"
    start = time.perf_counter()
    scores = _WORKER_PIPELINE.score_chunk(pairs, explain_top=explain_top)
    elapsed = time.perf_counter() - start
    rebuild, _WORKER_REBUILD_SECONDS = _WORKER_REBUILD_SECONDS, 0.0
    return dataclasses.replace(
        scores,
        worker=f"pid-{os.getpid()}",
        worker_seconds=elapsed,
        rebuild_seconds=rebuild,
    )


# ------------------------------------------------------------ parent side
class ParallelScoringEngine:
    """Deterministically ordered fan-out scoring over a worker pool.

    Parameters
    ----------
    pipeline:
        A fitted :class:`~repro.compose.staged.StagedPipeline`.  The engine
        snapshots its picklable state at construction; later mutations of
        the parent pipeline do not reach the workers.
    config:
        The :class:`ExecutionConfig` describing the pool.

    The engine is a context manager; the pool (if any) is created lazily on
    first use and shut down by :meth:`close` / ``__exit__``.  One engine can
    run :meth:`map_chunks` any number of times and reuses its warmed workers.
    """

    def __init__(self, pipeline: "StagedPipeline", config: ExecutionConfig) -> None:
        if not pipeline.is_fitted:
            raise NotFittedError("ParallelScoringEngine requires a fitted pipeline")
        self.pipeline = pipeline
        self.config = config
        self._state: dict | None = None
        self._executor: ProcessPoolExecutor | None = None
        self._closed = False

    # ------------------------------------------------------------- lifecycle
    def __enter__(self) -> "ParallelScoringEngine":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._executor is not None:
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        self._closed = True

    # ------------------------------------------------------------- internals
    def _pipeline_state(self) -> dict:
        """The parent pipeline's picklable state, snapshotted once per engine."""
        if self._state is None:
            self._state = self.pipeline.to_state()
        return self._state

    def _get_executor(self) -> ProcessPoolExecutor:
        if self._closed:
            raise ConfigurationError("ParallelScoringEngine is closed")
        if self._executor is None:
            import multiprocessing

            context = (
                multiprocessing.get_context(self.config.start_method)
                if self.config.start_method is not None
                else multiprocessing.get_context()
            )
            self._executor = ProcessPoolExecutor(
                max_workers=self.config.workers,
                mp_context=context,
                initializer=_initialize_process_worker,
                initargs=(self._pipeline_state(),),
            )
        return self._executor

    # --------------------------------------------------------------- scoring
    def map_chunks(
        self,
        chunks: Iterable[list[RecordPair]],
        explain_top: int = 0,
        length_hint: int | None = None,
    ) -> Iterator[tuple[list[RecordPair], ChunkScores]]:
        """Score ``chunks`` on the pool; yield ``(chunk, scores)`` in source order.

        Empty chunks (legal for custom sources) are skipped, exactly like the
        serial streaming loop.  ``length_hint`` (total pairs, when known)
        only steers the ``auto`` backend's serial-vs-process choice — never
        the numbers.
        """
        backend = self.config.resolve_backend(length_hint)
        if backend == "serial":
            for chunk in chunks:
                if not chunk:
                    continue
                yield chunk, self.pipeline.score_chunk(chunk, explain_top=explain_top)
            return

        executor = self._get_executor()

        # In-order merge with bounded look-ahead: futures are awaited in
        # submission order (so completion order cannot reorder anything) and
        # at most `window` chunks are in flight, which bounds parent memory.
        pending: deque[tuple[list[RecordPair], Any]] = deque()
        recorder = get_recorder()
        window = self.config.window

        def drain_head() -> tuple[list[RecordPair], ChunkScores]:
            """Await the oldest in-flight chunk, recording merge telemetry."""
            in_flight = len(pending)
            ready_chunk, future = pending.popleft()
            wait_start = time.perf_counter()
            scores = future.result()
            recorder.observe("parallel.chunk_wait_seconds", time.perf_counter() - wait_start)
            recorder.observe("parallel.queue_depth", in_flight)
            recorder.observe("parallel.window_occupancy", in_flight / window)
            recorder.count("parallel.chunks")
            recorder.count("parallel.pairs", len(ready_chunk))
            if scores.worker_seconds:
                recorder.observe("parallel.worker_chunk_seconds", scores.worker_seconds)
                if scores.worker:
                    # One histogram per worker (bounded by pool size): makes
                    # load imbalance visible in the snapshot.
                    recorder.observe(
                        f"parallel.worker.{scores.worker}.chunk_seconds",
                        scores.worker_seconds,
                    )
            if scores.rebuild_seconds:
                recorder.observe("parallel.worker_rebuild_seconds", scores.rebuild_seconds)
            return ready_chunk, scores

        try:
            for chunk in chunks:
                if not chunk:
                    continue
                pending.append((chunk, executor.submit(_score_chunk_in_process, chunk, explain_top)))
                if len(pending) >= window:
                    yield drain_head()
            while pending:
                yield drain_head()
        finally:
            for _, future in pending:
                future.cancel()

    def score_stream(
        self,
        chunks: Iterable[list[RecordPair]],
        explain_top: int = 0,
        length_hint: int | None = None,
    ) -> Iterator[ChunkScores]:
        """Like :meth:`map_chunks` but yielding only the scores."""
        for _, scores in self.map_chunks(chunks, explain_top=explain_top, length_hint=length_hint):
            yield scores
