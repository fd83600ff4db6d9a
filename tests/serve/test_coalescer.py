"""Coalescer tests in isolation: fake-clock deadlines, batching, errors, drain.

The timing logic (:class:`CoalescerCore`) is sans-IO and driven here with a
hand-advanced fake clock — no sleeps, no real time.  The asyncio wrapper
(:class:`MicroBatchCoalescer`) is exercised with deterministic triggers:
full-batch flushes (fullness, not time, decides), per-item error isolation,
result-count validation and shutdown draining all run on a frozen fake clock,
so the fixed linger deadline never arrives and the wall clock never
participates in the assertion.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.exceptions import ConfigurationError
from repro.obs import MetricsRegistry
from repro.serve.http import LINGER_SECONDS, CoalescerCore, MicroBatchCoalescer


class FakeClock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCoalescerCore:
    def test_validates_options(self):
        with pytest.raises(ConfigurationError):
            CoalescerCore(max_batch_size=0)

    def test_deadline_pinned_to_oldest_entry(self):
        clock = FakeClock(10.0)
        core = CoalescerCore(max_batch_size=8, clock=clock)
        assert core.deadline() is None
        core.add("a")
        assert core.deadline() == 10.0 + LINGER_SECONDS
        # Later arrivals never extend the oldest entry's deadline.
        clock.advance(0.75 * LINGER_SECONDS)
        core.add("b")
        assert core.deadline() == 10.0 + LINGER_SECONDS

    def test_ready_at_linger_deadline_not_before(self):
        clock = FakeClock(100.0)
        core = CoalescerCore(max_batch_size=8, clock=clock)
        core.add("a")
        assert not core.ready(100.0)
        assert not core.ready(100.0 + 0.999 * LINGER_SECONDS)
        clock.advance(LINGER_SECONDS)
        assert core.ready(clock.now)
        assert core.ready(clock.now + 1.0)

    def test_full_batch_ready_regardless_of_clock(self):
        clock = FakeClock(0.0)
        core = CoalescerCore(max_batch_size=3, clock=clock)
        for item in ("a", "b"):
            core.add(item)
        assert not core.ready(0.0)
        core.add("c")
        assert core.ready(0.0)  # fullness overrides the linger deadline

    def test_take_caps_at_batch_size_oldest_first(self):
        clock = FakeClock(0.0)
        core = CoalescerCore(max_batch_size=2, clock=clock)
        for index in range(5):
            clock.advance(0.1)
            core.add(index)
        batch = core.take(clock.now)
        assert [entry.item for entry in batch.entries] == [0, 1]
        assert batch.queue_depth_after == 3
        next_batch = core.take(clock.now)
        assert [entry.item for entry in next_batch.entries] == [2, 3]
        assert core.pending_count == 1

    def test_linger_waits_measure_each_entrys_queue_time(self):
        clock = FakeClock(0.0)
        core = CoalescerCore(max_batch_size=4, clock=clock)
        core.add("old")
        clock.advance(3.0)
        core.add("young")
        clock.advance(1.0)
        batch = core.take(clock.now)
        assert batch.linger_waits == (4.0, 1.0)

    def test_empty_take(self):
        core = CoalescerCore(max_batch_size=4, clock=FakeClock())
        batch = core.take(0.0)
        assert len(batch) == 0
        assert batch.queue_depth_after == 0
        assert not core.ready(99.0)


class RecordingScorer:
    """A scoring stub that records batch compositions and can poison items."""

    def __init__(self, poison=frozenset()):
        self.batches: list[list] = []
        self.poison = set(poison)

    def __call__(self, items):
        self.batches.append(list(items))
        if self.poison & set(items):
            raise ValueError(f"poisoned: {sorted(self.poison & set(items))}")
        return [f"scored:{item}" for item in items]


class TestMicroBatchCoalescer:
    def test_full_batch_flushes_and_resolves_every_future(self):
        scorer = RecordingScorer()
        metrics = MetricsRegistry()

        async def scenario():
            coalescer = MicroBatchCoalescer(
                scorer, max_batch_size=4, clock=FakeClock(), metrics=metrics
            )
            results = await asyncio.gather(*(coalescer.submit(i) for i in range(4)))
            await coalescer.stop()
            return results

        results = asyncio.run(scenario())
        assert results == [f"scored:{i}" for i in range(4)]
        # Fullness (the frozen clock never reaches the deadline) flushed:
        # exactly one shared batch.
        assert scorer.batches == [[0, 1, 2, 3]]
        counters, _ = metrics.values()
        assert counters["coalesce.batches"] == 1
        assert counters["coalesce.pairs"] == 4
        assert metrics.histogram("coalesce.batch_fill").maximum == 4

    def test_linger_deadline_flushes_a_partial_batch(self):
        scorer = RecordingScorer()

        async def scenario():
            coalescer = MicroBatchCoalescer(scorer, max_batch_size=100)
            results = await asyncio.gather(*(coalescer.submit(i) for i in range(3)))
            await coalescer.stop()
            return results

        results = asyncio.run(scenario())
        assert results == ["scored:0", "scored:1", "scored:2"]
        assert scorer.batches == [[0, 1, 2]]  # one linger-triggered flush

    def test_one_bad_item_fails_only_its_own_future(self):
        scorer = RecordingScorer(poison={"bad"})

        async def scenario():
            coalescer = MicroBatchCoalescer(scorer, max_batch_size=3, clock=FakeClock())
            results = await asyncio.gather(
                coalescer.submit("a"),
                coalescer.submit("bad"),
                coalescer.submit("b"),
                return_exceptions=True,
            )
            await coalescer.stop()
            return results

        good_a, bad, good_b = asyncio.run(scenario())
        assert good_a == "scored:a"
        assert good_b == "scored:b"
        assert isinstance(bad, ValueError)
        assert "poisoned" in str(bad)
        # The failed shared batch was retried item by item.
        assert scorer.batches[0] == ["a", "bad", "b"]
        assert sorted(map(tuple, scorer.batches[1:])) == [("a",), ("b",), ("bad",)]

    def test_single_item_batch_error_propagates_directly(self):
        scorer = RecordingScorer(poison={"bad"})
        metrics = MetricsRegistry()

        async def scenario():
            coalescer = MicroBatchCoalescer(
                scorer, max_batch_size=1, clock=FakeClock(), metrics=metrics
            )
            with pytest.raises(ValueError):
                await coalescer.submit("bad")
            await coalescer.stop()

        asyncio.run(scenario())
        assert scorer.batches == [["bad"]]  # no pointless single-item retry
        counters, _ = metrics.values()
        assert counters["coalesce.failed_items"] == 1
        assert counters.get("coalesce.single_retries", 0) == 0

    def test_result_count_mismatch_fails_the_batch(self):
        metrics = MetricsRegistry()

        async def scenario():
            coalescer = MicroBatchCoalescer(
                lambda items: ["only-one"], max_batch_size=2, clock=FakeClock(),
                metrics=metrics,
            )
            results = await asyncio.gather(
                coalescer.submit("a"), coalescer.submit("b"), return_exceptions=True
            )
            await coalescer.stop()
            return results

        results = asyncio.run(scenario())
        assert all(isinstance(result, RuntimeError) for result in results)
        counters, _ = metrics.values()
        assert counters["coalesce.failed_items"] == 2

    def test_stop_drains_pending_futures(self):
        scorer = RecordingScorer()

        async def scenario():
            coalescer = MicroBatchCoalescer(scorer, max_batch_size=100, clock=FakeClock())
            # Frozen clock: the deadline never arrives, nothing flushes on its own.
            pending = [asyncio.ensure_future(coalescer.submit(i)) for i in range(5)]
            while coalescer.pending_count < 5:
                await asyncio.sleep(0)
            await coalescer.stop()
            return await asyncio.gather(*pending), coalescer.pending_count

        results, remaining = asyncio.run(scenario())
        assert results == [f"scored:{i}" for i in range(5)]
        assert remaining == 0
        assert scorer.batches == [[0, 1, 2, 3, 4]]

    def test_submit_after_stop_raises(self):
        async def scenario():
            coalescer = MicroBatchCoalescer(RecordingScorer(), max_batch_size=2)
            await coalescer.stop()
            with pytest.raises(RuntimeError, match="stopped"):
                await coalescer.submit("late")

        asyncio.run(scenario())

    def test_oversized_burst_splits_into_bounded_batches(self):
        scorer = RecordingScorer()

        async def scenario():
            coalescer = MicroBatchCoalescer(scorer, max_batch_size=4)
            results = await asyncio.gather(*(coalescer.submit(i) for i in range(10)))
            await coalescer.stop()
            return results

        results = asyncio.run(scenario())
        assert results == [f"scored:{i}" for i in range(10)]
        assert all(len(batch) <= 4 for batch in scorer.batches)
        assert sorted(item for batch in scorer.batches for item in batch) == list(range(10))
