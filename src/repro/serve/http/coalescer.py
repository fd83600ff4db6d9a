"""Micro-batch request coalescing: many concurrent requests, one warm batch.

The serving economics of the risk pipeline strongly favour batches: one
:meth:`RiskService.score_pairs` call amortises the vectoriser's column
kernels, the classifier forward pass and the rule-kernel membership over
every pair in the batch.  A naive HTTP server would score each single-pair
``POST /score`` alone and forfeit all of that.  The coalescer recovers it:

* each request's pair goes into a shared pending queue and its caller awaits
  a per-request future;
* a flusher task scores the queue as one batch the moment it reaches
  ``max_batch_size``, or :data:`LINGER_SECONDS` (2 ms) after the *oldest*
  pending request was queued — whichever comes first;
* the shared batch's results resolve every request's future individually.

The linger is fixed, not a knob.  Flushing whenever the flusher was idle
answered a lone request faster, but its batches flushed before they could
fill, and at 4–32 concurrent clients its throughput ranged from 4.5x worse
to 1.2x better across closed-loop runs.

The batching *decision* logic lives in :class:`CoalescerCore`, a sans-IO
state machine with an injectable clock — the unit tests drive it with a fake
clock and never sleep.  :class:`MicroBatchCoalescer` wraps the core in
asyncio: an event-driven flusher loop, scoring offloaded to a thread executor
(so the event loop keeps accepting requests — and filling the next batch —
while numpy works), per-item error isolation (a failing batch is retried
pair-by-pair so one poisoned pair fails only its own future) and shutdown
draining (``stop()`` scores everything still pending before returning).

Because the scoring stack is batch-invariant by construction (the
``repro.numerics`` contract), coalescing never changes a single bit of any
result — which batch a request lands in is purely a latency/throughput
decision, and ``tests/serve/test_http_server.py`` asserts exactly that.
"""

from __future__ import annotations

import asyncio
import time
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from ...exceptions import ConfigurationError
from ...obs import NULL_RECORDER

#: Seconds the oldest pending request waits for batch-mates before its batch
#: flushes regardless of fill.
LINGER_SECONDS = 0.002


@dataclass
class PendingEntry:
    """One queued item plus its resolution slot (a future in the async wrapper)."""

    item: Any
    enqueued_at: float
    future: Any = None


@dataclass(frozen=True)
class TakenBatch:
    """One batch popped from the core, with the telemetry of the take."""

    entries: tuple[PendingEntry, ...]
    #: Seconds each entry spent queued before the take (aligned with entries).
    linger_waits: tuple[float, ...]
    #: Pending items still queued *after* this take (overflow beyond the batch).
    queue_depth_after: int

    def __len__(self) -> int:
        return len(self.entries)


class CoalescerCore:
    """The sans-IO batching state machine (all timing decisions, no waiting).

    Parameters
    ----------
    max_batch_size:
        A take never returns more than this many entries; reaching it makes
        the queue immediately ready.  Otherwise the queue becomes ready
        :data:`LINGER_SECONDS` after its oldest entry was added.
    clock:
        Monotonic seconds; injectable so tests drive deadlines explicitly.
    """

    def __init__(
        self,
        max_batch_size: int = 32,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if max_batch_size < 1:
            raise ConfigurationError("max_batch_size must be >= 1")
        self.max_batch_size = int(max_batch_size)
        self.clock = clock
        self._pending: deque[PendingEntry] = deque()

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def add(self, item: Any, future: Any = None) -> PendingEntry:
        """Queue ``item``, stamping its arrival time from the core's clock."""
        entry = PendingEntry(item=item, enqueued_at=self.clock(), future=future)
        self._pending.append(entry)
        return entry

    def is_full(self) -> bool:
        return len(self._pending) >= self.max_batch_size

    def deadline(self) -> float | None:
        """Clock time at which the oldest pending entry must flush (None if idle)."""
        if not self._pending:
            return None
        return self._pending[0].enqueued_at + LINGER_SECONDS

    def ready(self, now: float) -> bool:
        """Whether a take should happen at clock time ``now``."""
        deadline = self.deadline()
        return deadline is not None and (self.is_full() or now >= deadline)

    def take(self, now: float) -> TakenBatch:
        """Pop up to ``max_batch_size`` entries (oldest first) as one batch."""
        entries = []
        while self._pending and len(entries) < self.max_batch_size:
            entries.append(self._pending.popleft())
        return TakenBatch(
            entries=tuple(entries),
            linger_waits=tuple(max(0.0, now - entry.enqueued_at) for entry in entries),
            queue_depth_after=len(self._pending),
        )


@dataclass
class _CoalescerMetricNames:
    """The obs names one coalescer records under (stable, documented surface)."""

    batches: str = "coalesce.batches"
    pairs: str = "coalesce.pairs"
    single_retries: str = "coalesce.single_retries"
    failed_items: str = "coalesce.failed_items"
    batch_fill: str = "coalesce.batch_fill"
    #: Each request's queue wait, from enqueue to the take of its batch.
    linger_seconds: str = "coalesce.linger_seconds"
    queue_depth: str = "coalesce.queue_depth"


class MicroBatchCoalescer:
    """Coalesce concurrent :meth:`submit` calls into shared scored batches.

    Parameters
    ----------
    score_batch:
        Synchronous batch function ``list[item] -> list[result]`` (typically
        ``service.score_pairs``); executed in ``executor`` so the event loop
        stays free to accept — and coalesce — more requests meanwhile.
    max_batch_size, clock:
        Forwarded to :class:`CoalescerCore` (see there).
    metrics:
        A :class:`~repro.obs.MetricsRegistry` (or recorder) for coalescing
        telemetry: batch fill, queue depth and each request's queue wait
        (``coalesce.linger_seconds``) histograms plus batch and pair
        counters.  Defaults to the no-op recorder.
    executor:
        ``concurrent.futures`` executor for the scoring calls; ``None`` uses
        the event loop's default thread pool.
    """

    def __init__(
        self,
        score_batch: Callable[[list[Any]], Sequence[Any]],
        *,
        max_batch_size: int = 32,
        clock: Callable[[], float] = time.monotonic,
        metrics: Any = None,
        executor: Any = None,
    ) -> None:
        self._score_batch = score_batch
        self._core = CoalescerCore(max_batch_size, clock)
        self._metrics = metrics if metrics is not None else NULL_RECORDER
        self._names = _CoalescerMetricNames()
        self._executor = executor
        self._wake: asyncio.Event | None = None
        self._task: asyncio.Task | None = None
        self._closed = False

    # ------------------------------------------------------------- lifecycle
    def _ensure_running(self) -> None:
        if self._wake is None:
            self._wake = asyncio.Event()
        if self._task is None or self._task.done():
            self._task = asyncio.get_running_loop().create_task(
                self._run(), name="micro-batch-coalescer"
            )

    async def stop(self) -> None:
        """Drain every pending future (scoring them now), then stop the flusher."""
        self._closed = True
        if self._task is None:
            return
        assert self._wake is not None
        self._wake.set()
        await self._task
        self._task = None

    @property
    def pending_count(self) -> int:
        return self._core.pending_count

    # ---------------------------------------------------------------- submit
    async def submit(self, item: Any) -> Any:
        """Queue ``item`` and await its individually-resolved result."""
        if self._closed:
            raise RuntimeError("coalescer is stopped")
        self._ensure_running()
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._core.add(item, future)
        assert self._wake is not None
        self._wake.set()
        return await future

    # ---------------------------------------------------------- flusher loop
    async def _run(self) -> None:
        wake = self._wake
        assert wake is not None
        while True:
            if not self._core.pending_count:
                if self._closed:
                    return
                await wake.wait()
                wake.clear()
                continue
            now = self._core.clock()
            if not self._closed and not self._core.ready(now):
                # Sleep until the oldest entry's linger deadline, waking early
                # when a new submit might have filled the batch.  The deadline
                # is pinned to the *first* entry, so later arrivals never
                # extend the wait.
                deadline = self._core.deadline()
                assert deadline is not None
                try:
                    await asyncio.wait_for(wake.wait(), timeout=max(0.0, deadline - now))
                except (asyncio.TimeoutError, TimeoutError):
                    pass
                wake.clear()
                continue
            batch = self._core.take(self._core.clock())
            self._record_take(batch)
            await self._flush(batch)

    def _record_take(self, batch: TakenBatch) -> None:
        names = self._names
        self._metrics.apply(
            counters={names.batches: 1, names.pairs: len(batch)},
            observations={names.batch_fill: len(batch)},
        )
        # Per-entry observations (variable count) go separately; the batch
        # fill/counters above are the invariant-bearing pair.
        for wait in batch.linger_waits:
            self._metrics.observe(names.linger_seconds, wait)
        self._metrics.observe(names.queue_depth, batch.queue_depth_after)

    async def _flush(self, batch: TakenBatch) -> None:
        if not batch.entries:
            return
        loop = asyncio.get_running_loop()
        items = [entry.item for entry in batch.entries]
        try:
            results = await loop.run_in_executor(
                self._executor, self._score_batch, items
            )
        except Exception as exc:
            await self._flush_individually(batch, exc)
            return
        if len(results) != len(batch.entries):
            error = RuntimeError(
                f"score_batch returned {len(results)} results for {len(items)} items"
            )
            self._metrics.count(self._names.failed_items, len(batch.entries))
            for entry in batch.entries:
                self._resolve_error(entry, error)
            return
        for entry, result in zip(batch.entries, results):
            self._resolve(entry, result)

    async def _flush_individually(self, batch: TakenBatch, batch_error: Exception) -> None:
        """Per-item error isolation: re-score a failed batch pair by pair.

        A single poisoned item (bad value, schema violation) must fail only
        its own caller, not every request that happened to share its batch.
        Single-item batches skip the retry — the batch error *is* the item's
        error.
        """
        loop = asyncio.get_running_loop()
        if len(batch.entries) == 1:
            self._metrics.count(self._names.failed_items)
            self._resolve_error(batch.entries[0], batch_error)
            return
        for entry in batch.entries:
            self._metrics.count(self._names.single_retries)
            try:
                results = await loop.run_in_executor(
                    self._executor, self._score_batch, [entry.item]
                )
                if len(results) != 1:
                    raise RuntimeError(
                        f"score_batch returned {len(results)} results for 1 item"
                    )
            except Exception as exc:
                self._metrics.count(self._names.failed_items)
                self._resolve_error(entry, exc)
            else:
                self._resolve(entry, results[0])

    @staticmethod
    def _resolve(entry: PendingEntry, result: Any) -> None:
        future = entry.future
        if future is not None and not future.done():
            future.set_result(result)

    @staticmethod
    def _resolve_error(entry: PendingEntry, error: Exception) -> None:
        future = entry.future
        if future is not None and not future.done():
            future.set_exception(error)
