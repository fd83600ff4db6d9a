"""MetricsRegistry: fake-clock spans, thread safety, the no-op recorder."""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.obs import (
    NULL_RECORDER,
    MetricsRegistry,
    NullRecorder,
    get_recorder,
    set_recorder,
    use_recorder,
)
from repro.obs.registry import SNAPSHOT_VERSION


class FakeClock:
    """A monotonic clock advancing one second per read — fully deterministic."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        value = self.now
        self.now += 1.0
        return value


class TestCountersAndGauges:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.count("pairs")
        registry.count("pairs", 41)
        assert registry.counter_value("pairs") == 42
        assert registry.counter_value("never") == 0

    def test_gauge_last_write_wins(self):
        registry = MetricsRegistry()
        registry.gauge("largest_batch", 10)
        registry.gauge("largest_batch", 7)
        assert registry.gauge_value("largest_batch") == 7.0
        assert registry.gauge_value("never", default=-1.0) == -1.0


class TestSpans:
    def test_fake_clock_spans_are_deterministic(self):
        registry = MetricsRegistry(clock=FakeClock())
        # Clock reads: outer enter (0), inner enter (1), inner exit (2),
        # outer exit (3) — so inner = 1s and outer = 3s, exactly.
        with registry.span("outer"):
            with registry.span("inner"):
                pass
        assert registry.span_seconds("outer") == 3.0
        assert registry.span_seconds("outer.inner") == 1.0
        assert registry.span_seconds("inner") == 0.0  # never a root path

    def test_nesting_builds_dotted_paths_and_leaf_totals(self):
        registry = MetricsRegistry(clock=FakeClock())
        with registry.span("score_chunk"):
            with registry.span("vectorize"):
                pass
        with registry.span("vectorize"):  # same leaf, different nesting
            pass
        snapshot = registry.snapshot()
        assert set(snapshot["spans"]) == {"score_chunk", "score_chunk.vectorize", "vectorize"}
        totals = snapshot["span_totals"]
        # The leaf rollup folds both vectorize paths into one total.
        assert totals["vectorize"] == (
            registry.span_seconds("score_chunk.vectorize")
            + registry.span_seconds("vectorize")
        )

    def test_span_names_must_not_contain_dots(self):
        with pytest.raises(ValueError):
            MetricsRegistry().span("a.b")


class TestSnapshotAndReset:
    def test_snapshot_layout(self, tmp_path):
        registry = MetricsRegistry(clock=FakeClock())
        registry.count("n")
        registry.gauge("g", 2)
        registry.observe("h", 0.5)
        with registry.span("s"):
            pass
        snapshot = registry.snapshot()
        assert snapshot["version"] == SNAPSHOT_VERSION
        assert set(snapshot) == {
            "version", "counters", "gauges", "histograms", "spans", "span_totals",
        }
        path = registry.write_json(tmp_path / "nested" / "metrics.json")
        assert json.loads(path.read_text()) == json.loads(registry.to_json())

    def test_reset_drops_everything(self):
        registry = MetricsRegistry()
        registry.count("n")
        registry.observe("h", 1.0)
        registry.reset()
        assert registry.counter_value("n") == 0
        assert registry.histogram("h") is None
        assert registry.snapshot()["spans"] == {}


class TestThreadSafety:
    def test_concurrent_recording_loses_nothing(self):
        registry = MetricsRegistry()
        threads, per_thread = 8, 2_000

        def worker(index: int) -> None:
            for i in range(per_thread):
                registry.count("ops")
                registry.observe("latency", 0.001 * (i + 1))
                with registry.span(f"thread{index}"):
                    pass

        pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join()
        assert registry.counter_value("ops") == threads * per_thread
        assert registry.histogram("latency").count == threads * per_thread
        # Per-thread nesting stacks: every thread's spans land under its own
        # root path, with the exact per-thread count.
        for index in range(threads):
            snapshot = registry.snapshot()["spans"][f"thread{index}"]
            assert snapshot["count"] == per_thread


class TestGlobalRecorder:
    def test_default_is_the_null_recorder(self):
        assert get_recorder() is NULL_RECORDER
        assert get_recorder().enabled is False

    def test_use_recorder_installs_and_restores(self):
        registry = MetricsRegistry()
        with use_recorder(registry) as installed:
            assert installed is registry
            assert get_recorder() is registry
            get_recorder().count("inside")
        assert get_recorder() is NULL_RECORDER
        assert registry.counter_value("inside") == 1

    def test_use_recorder_restores_on_error(self):
        with pytest.raises(RuntimeError):
            with use_recorder(MetricsRegistry()):
                raise RuntimeError("boom")
        assert get_recorder() is NULL_RECORDER

    def test_set_recorder_none_restores_the_null_recorder(self):
        registry = MetricsRegistry()
        set_recorder(registry)
        try:
            assert get_recorder() is registry
        finally:
            set_recorder(None)
        assert get_recorder() is NULL_RECORDER


class TestNullRecorderOverhead:
    def test_null_recorder_records_nothing(self):
        recorder = NullRecorder()
        recorder.count("n", 5)
        recorder.gauge("g", 1)
        recorder.observe("h", 1.0)
        with recorder.span("s"):
            pass
        assert recorder.counter_value("n") == 0
        assert recorder.histogram("h") is None
        assert recorder.span_totals() == {}
        snapshot = recorder.snapshot()
        assert snapshot["counters"] == {} and snapshot["spans"] == {}

    def test_null_span_is_one_shared_context(self):
        # The disabled hot path must not allocate: span() hands back the same
        # reusable no-op context every time.
        recorder = NullRecorder()
        assert recorder.span("a") is recorder.span("b")

    def test_null_recorder_overhead_is_bounded(self):
        # Generous wall-clock guard (not a micro-benchmark): 100k disabled
        # span entries must stay far below a second even on a loaded CI box.
        recorder = NullRecorder()
        start = time.perf_counter()
        for _ in range(100_000):
            with recorder.span("x"):
                pass
        assert time.perf_counter() - start < 1.0
