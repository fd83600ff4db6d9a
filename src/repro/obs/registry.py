"""The metrics registry, span timing contexts and the global recorder.

:class:`MetricsRegistry` is the one mutable surface of :mod:`repro.obs`: a
thread-safe collection of counters, gauges, streaming histograms and nested
span timings with a JSON-safe :meth:`~MetricsRegistry.snapshot`.  Library code
never holds a registry directly — it asks :func:`get_recorder` for the
process-global recorder, which defaults to the :data:`NULL_RECORDER` no-op so
uninstrumented runs pay (almost) nothing:

* ``get_recorder().count(...)`` on the null recorder is one attribute lookup
  and one empty method call;
* ``get_recorder().span(...)`` returns a shared reusable no-op context
  manager — no allocation, no clock read.

Enabling observability is one call (or one ``with`` block)::

    from repro import obs

    registry = obs.MetricsRegistry()
    with obs.use_recorder(registry):
        pipeline.analyse(workload)
    print(registry.to_json())

**Spans** are nested wall-clock timings: ``span("risk_score")`` inside
``span("score_chunk")`` records under the dotted path
``"score_chunk.risk_score"``, with one streaming histogram per distinct path
(per-thread nesting stacks, so concurrent scorers never corrupt each other's
paths).  The clock is injectable (``MetricsRegistry(clock=...)``), which is
how the test suite makes span timings fully deterministic; instrumentation is
read-only with respect to the instrumented computation, so scored outputs are
bit-identical with observability on or off.

The snapshot layout is documented in the README ("Observability &
explainability"); its sections are ``counters``, ``gauges``, ``histograms``,
``spans`` and ``span_totals`` (per-leaf-name rollups of the span tree, the
easy way to read "total vectorize time" regardless of nesting).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Iterator, Mapping

from .histogram import StreamingHistogram

#: Schema version stamped into every snapshot (bump on layout changes).
SNAPSHOT_VERSION = 1


class _SpanContext:
    """Reusable context manager for one registry + span name (allocated per call)."""

    __slots__ = ("_registry", "_name", "_start", "_path")

    def __init__(self, registry: "MetricsRegistry", name: str) -> None:
        self._registry = registry
        self._name = name
        self._start = 0.0
        self._path = ""

    def __enter__(self) -> "_SpanContext":
        stack = self._registry._span_stack()
        stack.append(self._name)
        self._path = ".".join(stack)
        self._start = self._registry._clock()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = self._registry._clock() - self._start
        self._registry._span_stack().pop()
        self._registry._observe_span(self._path, elapsed)


class MetricsRegistry:
    """Thread-safe counters, gauges, histograms and span timings.

    Parameters
    ----------
    clock:
        Monotonic clock returning seconds as a float; defaults to
        :func:`time.perf_counter`.  Injectable so tests can drive spans
        deterministically with a fake clock.
    """

    #: Recorder-protocol flag: ``False`` only on the null recorder, so hot
    #: paths can skip *building* expensive metric values entirely.
    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock or time.perf_counter
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, StreamingHistogram] = {}
        self._span_histograms: dict[str, StreamingHistogram] = {}
        self._local = threading.local()

    # ---------------------------------------------------------------- counters
    def count(self, name: str, amount: float = 1) -> None:
        """Increment counter ``name`` by ``amount``."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counter_value(self, name: str) -> float:
        """Current value of counter ``name`` (0 when never incremented)."""
        with self._lock:
            return self._counters.get(name, 0)

    # ------------------------------------------------------------ transactions
    def apply(
        self,
        counters: Mapping[str, float] | None = None,
        observations: Mapping[str, float] | None = None,
        gauges: Mapping[str, float] | None = None,
        gauge_maxima: Mapping[str, float] | None = None,
    ) -> None:
        """Apply several metric updates as one atomic transaction.

        A reader holding a consistent view (:meth:`values` / :meth:`snapshot`)
        sees either none or all of the updates — never a torn subset.  This is
        what keeps multi-metric invariants (``service.pairs_scored`` equals
        the sum of the ``service.batch_size`` histogram, say) true in *every*
        snapshot taken concurrently with writers, not just quiescent ones.

        ``counters`` adds to counters, ``observations`` records one value per
        named histogram, ``gauges`` overwrites, and ``gauge_maxima`` keeps the
        maximum of the current and given value (a high-watermark update).
        """
        with self._lock:
            if counters:
                for name, amount in counters.items():
                    self._counters[name] = self._counters.get(name, 0) + amount
            if observations:
                for name, value in observations.items():
                    histogram = self._histograms.get(name)
                    if histogram is None:
                        histogram = self._histograms[name] = StreamingHistogram()
                    histogram.observe(value)
            if gauges:
                for name, value in gauges.items():
                    self._gauges[name] = float(value)
            if gauge_maxima:
                for name, value in gauge_maxima.items():
                    if float(value) > self._gauges.get(name, 0.0):
                        self._gauges[name] = float(value)

    def values(self) -> tuple[dict[str, float], dict[str, float]]:
        """One consistent ``(counters, gauges)`` copy under a single lock hold.

        The lightweight companion of :meth:`snapshot` for readers that only
        need scalar values: every counter/gauge in the returned dicts comes
        from the same instant, so derived ratios computed from them can never
        mix a pre-update numerator with a post-update denominator.
        """
        with self._lock:
            return dict(self._counters), dict(self._gauges)

    # ------------------------------------------------------------------ gauges
    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value`` (last write wins)."""
        with self._lock:
            self._gauges[name] = float(value)

    def gauge_value(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self._gauges.get(name, default)

    # -------------------------------------------------------------- histograms
    def observe(self, name: str, value: float) -> None:
        """Record ``value`` into streaming histogram ``name``."""
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = StreamingHistogram()
            histogram.observe(value)

    def histogram(self, name: str) -> StreamingHistogram | None:
        """The histogram recorded under ``name`` (``None`` when nothing was)."""
        with self._lock:
            return self._histograms.get(name)

    # ------------------------------------------------------------------- spans
    def _span_stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _observe_span(self, path: str, elapsed: float) -> None:
        with self._lock:
            histogram = self._span_histograms.get(path)
            if histogram is None:
                histogram = self._span_histograms[path] = StreamingHistogram()
            histogram.observe(elapsed)

    def span(self, name: str) -> _SpanContext:
        """A nested timing context: durations recorded under the dotted span path.

        ``name`` must not contain ``"."`` (the path separator).  Nesting is
        tracked per thread, so concurrent scoring threads each build their own
        correct paths against this one shared registry.
        """
        if "." in name:
            raise ValueError(f"span names must not contain '.', got {name!r}")
        return _SpanContext(self, name)

    def span_seconds(self, path: str) -> float:
        """Total seconds recorded under span ``path`` (0.0 when never entered)."""
        with self._lock:
            histogram = self._span_histograms.get(path)
            return histogram.total if histogram is not None else 0.0

    def span_totals(self) -> dict[str, float]:
        """Total seconds per span *leaf name*, summed across every nesting path.

        ``{"vectorize": 1.2}`` whether vectorisation ran under
        ``"score_chunk.vectorize"``, ``"fit.classifier.vectorize"`` or both —
        the easy way to split cost regardless of call-site nesting.
        """
        with self._lock:
            totals: dict[str, float] = {}
            for path, histogram in self._span_histograms.items():
                leaf = path.rsplit(".", 1)[-1]
                totals[leaf] = totals.get(leaf, 0.0) + histogram.total
            return totals

    # ---------------------------------------------------------------- snapshot
    def snapshot(self) -> dict:
        """A point-in-time JSON-safe export of everything recorded."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {name: h.snapshot() for name, h in self._histograms.items()}
            spans = {path: h.snapshot() for path, h in self._span_histograms.items()}
        totals = self.span_totals()
        return {
            "version": SNAPSHOT_VERSION,
            "counters": counters,
            "gauges": gauges,
            "histograms": histograms,
            "spans": spans,
            "span_totals": totals,
        }

    def to_json(self, indent: int = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    def write_json(self, path: str | Path) -> Path:
        """Write the snapshot to ``path`` (parent directories created)."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_json() + "\n")
        return path

    def reset(self) -> None:
        """Drop everything recorded so far (span stacks of live threads survive)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._span_histograms.clear()


class _NullContext:
    """The do-nothing context manager shared by every null span."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_CONTEXT = _NullContext()


class NullRecorder:
    """The disabled recorder: same surface as :class:`MetricsRegistry`, no work.

    Every mutator is an empty method and :meth:`span` returns one shared
    no-op context manager, so the instrumented hot paths cost a method
    call when observability is off (guarded by a test in ``tests/obs``).
    """

    enabled = False

    def count(self, name: str, amount: float = 1) -> None:
        return None

    def apply(
        self,
        counters: Mapping[str, float] | None = None,
        observations: Mapping[str, float] | None = None,
        gauges: Mapping[str, float] | None = None,
        gauge_maxima: Mapping[str, float] | None = None,
    ) -> None:
        return None

    def values(self) -> tuple[dict[str, float], dict[str, float]]:
        return {}, {}

    def gauge(self, name: str, value: float) -> None:
        return None

    def observe(self, name: str, value: float) -> None:
        return None

    def span(self, name: str) -> _NullContext:
        return _NULL_CONTEXT

    def counter_value(self, name: str) -> float:
        return 0

    def gauge_value(self, name: str, default: float = 0.0) -> float:
        return default

    def histogram(self, name: str) -> None:
        return None

    def span_seconds(self, path: str) -> float:
        return 0.0

    def span_totals(self) -> dict[str, float]:
        return {}

    def snapshot(self) -> dict:
        return {"version": SNAPSHOT_VERSION, "counters": {}, "gauges": {},
                "histograms": {}, "spans": {}, "span_totals": {}}


#: The process-wide disabled recorder (a singleton; never mutated).
NULL_RECORDER = NullRecorder()

_global_recorder: MetricsRegistry | NullRecorder = NULL_RECORDER


def get_recorder() -> MetricsRegistry | NullRecorder:
    """The process-global recorder the instrumented library code records into."""
    return _global_recorder


def set_recorder(recorder: MetricsRegistry | NullRecorder | None) -> None:
    """Install ``recorder`` globally (``None`` restores the no-op recorder)."""
    global _global_recorder
    _global_recorder = NULL_RECORDER if recorder is None else recorder


@contextmanager
def use_recorder(recorder: MetricsRegistry | NullRecorder) -> Iterator[MetricsRegistry | NullRecorder]:
    """Install ``recorder`` for the duration of the block, then restore."""
    global _global_recorder
    previous = _global_recorder
    _global_recorder = recorder
    try:
        yield recorder
    finally:
        _global_recorder = previous
