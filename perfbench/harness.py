"""Shared pieces of the end-to-end benchmark: inputs, set-up, statistics, stamps.

Everything here talks to the program through its public API only
(``repro.compose``, ``repro.blocking``, ``repro.serve``); nothing under
``src/`` is modified or monkeypatched by this module.
"""

from __future__ import annotations

import math
import os
import platform
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

ROOT = Path(__file__).resolve().parent.parent

#: Blocking attributes shared by every workload (title + authors tokens).
BLOCK_ATTRIBUTES = ("title", "authors")

#: Production serving defaults (``serve score`` / ``serve resolve`` CLI).
SERVICE_BATCH = 256
SERVICE_CACHE = 4096

#: Set-up is repeated this many times per run and the median reported.
SETUP_REPEATS = 3

#: Seed of the fitted model.  The model is part of the system under test, so
#: it is the same in every run; ``--seed`` varies the workload inputs.
FIT_SEED = 0

#: The clock of set-up and of the ``batch_score`` and ``online_resolve``
#: timings: the process's CPU time.  Time other processes hold the core
#: stretches wall-clock figures but not CPU time; a slower host (a busy
#: hypervisor, a lower clock) still slows both.  That code runs on one thread
#: and waits on no I/O but small file appends, so on an idle host the two
#: clocks agree within ~7%.  ``http_mixed`` latencies stay wall-clock:
#: waiting is what they measure.
clock = time.process_time

#: CPU seconds the reference task takes on the fast state of the 2-core
#: host this benchmark was built on; :class:`SpeedProbe` scales every
#: CPU-clock timing to a host where it takes exactly this long.
REFERENCE_SECONDS = 0.002


def reference_task() -> None:
    """Fixed work that shares no code with the program: the probe's yardstick.

    It mixes what the program spends its time on: tokenising and counting
    strings in Python dicts, sorting, and small numpy products.
    """
    import numpy as np

    words = [f"{(i * 7919) % 1000:03d}{'abcdefghij'[i % 10]}" * 2 for i in range(400)]
    matrix = np.arange(4096, dtype=float).reshape(64, 64)
    for _ in range(3):
        counts: dict[str, int] = {}
        for i in range(0, 400, 4):
            for token in " ".join(words[i:i + 8]).split():
                counts[token] = counts.get(token, 0) + 1
        sorted(counts.items(), key=lambda item: (item[1], item[0]))
        for _ in range(20):
            np.einsum("ij,jk->ik", matrix, matrix[:, :1])


class SpeedProbe:
    """Scales CPU-clock timings to a host of fixed speed.

    The shared host this benchmark was built on switched between two speeds
    about 1.7x apart every few seconds, and CPU time slowed with it.  Timed
    back to back in one process for 150 s, while other processes shared the
    host, 256-pair scoring calls and this probe's :func:`reference_task`
    moved together: in windows of ten calls their times spread by 19% and
    20%, their ratio by 4%.  So each timed operation
    is multiplied by :meth:`scale`, taken right after it: the reference's
    nominal time over the mean of its times just before and just after the
    operation.  The reference shares no code with the program, so a change to
    the program moves the scaled figures as it moves the raw ones.
    """

    def __init__(self) -> None:
        self.last = self._reference_seconds()

    @staticmethod
    def _reference_seconds() -> float:
        started = clock()
        reference_task()
        return clock() - started

    def scale(self) -> float:
        """The factor for the work timed since the previous call."""
        now = self._reference_seconds()
        factor = REFERENCE_SECONDS / (0.5 * (self.last + now))
        self.last = now
        return factor


def fit_spec(seed: int = FIT_SEED) -> dict[str, Any]:
    """The spec every workload fits: a logistic scorer on a blocked corpus.

    The training corpus is generated from ``seed`` by the spec's own
    ``blocked`` source; workload corpora use :func:`workload_seed`, far away.
    """
    return {
        "classifier": {"kind": "logistic", "params": {"epochs": 60}},
        "training": {"epochs": 30},
        "source": {
            "kind": "blocked",
            "params": {
                "corpus": {"kind": "generator", "domain": "bibliographic",
                           "config": {"n_base_entities": 150}, "n_waves": 1,
                           "name": "perfbench-fit"},
                "blockers": [{"kind": "inverted",
                              "params": {"attributes": list(BLOCK_ATTRIBUTES),
                                         "min_shared": 2,
                                         "max_token_frequency": 0.1}}],
            },
        },
        "seed": seed,
    }


def workload_seed(seed: int, offset: int) -> int:
    """Seed of a workload corpus, far from the training corpus seed."""
    return 1_000_003 + 101 * seed + offset


def fit_and_save(directory: Path) -> Path:
    """Fit :func:`fit_spec` on its own corpus and save it; returns the model dir."""
    from repro.compose import PipelineSpec, build_pipeline
    from repro.compose.registries import create_source
    from repro.data import split_workload
    from repro.serve import save_pipeline

    spec = PipelineSpec.from_dict(fit_spec())
    pipeline = build_pipeline(spec)
    workload = create_source(spec.source.kind, spec.source.params, spec.seed).materialize()
    split = split_workload(workload, seed=spec.seed)
    pipeline.fit(split.train, split.validation)
    return save_pipeline(pipeline, directory / "model")


def new_service(model_dir: Path, cache_size: int = SERVICE_CACHE):
    """Load the saved model and build a kernel-warm service at CLI defaults."""
    from repro.serve import RiskService, load_pipeline

    return RiskService(
        load_pipeline(model_dir), max_batch_size=SERVICE_BATCH, cache_size=cache_size
    )


# ------------------------------------------------------------------- corpora
def generate_waves(entities: int, waves: int, seed: int, name: str) -> list:
    """Pre-generated bibliographic corpus waves (generation stays off the clock)."""
    from repro.blocking import GeneratedCorpus
    from repro.data.generators import GenerationConfig

    corpus = GeneratedCorpus(
        "bibliographic", GenerationConfig(n_base_entities=entities),
        n_waves=waves, name=name, seed=seed,
    )
    return list(corpus.waves())


def frozen_corpus(waves: list):
    """A :class:`~repro.blocking.CorpusStream` replaying pre-generated waves."""
    from repro.blocking import CorpusStream

    class FrozenCorpus(CorpusStream):
        name = "perfbench"

        def waves(self) -> Iterator:
            return iter(waves)

        @property
        def n_waves(self) -> int:
            return len(waves)

    return FrozenCorpus()


def stream_records(waves: list) -> list:
    """Every record of the corpus in arrival order: per wave, left then right."""
    records = []
    for wave in waves:
        records.extend(wave.left)
        records.extend(wave.right)
    return records


def entity_of(record) -> tuple[str, str]:
    """Ground-truth identity of a generated record: (wave tag, entity id).

    Generated ids are ``L-<entity>`` / ``R-<entity>`` and sources are
    ``<corpus>#<wave>-left|right``, so two records are the same real-world
    entity exactly when wave tag and entity id agree.
    """
    wave_tag = record.source.rsplit("-", 1)[0]
    return wave_tag, record.record_id[2:]


def is_match(pair) -> int:
    return int(entity_of(pair.left) == entity_of(pair.right))


def mislabel_auroc(machine_labels: Sequence[int], truths: Sequence[int],
                   risk_scores: Sequence[float]) -> float:
    """The paper's quality metric: AUROC of risk at ranking mislabeled pairs."""
    import numpy as np
    from repro.evaluation.roc import mislabel_indicator, roc_curve

    labels = mislabel_indicator(np.asarray(machine_labels), np.asarray(truths))
    return roc_curve(labels, np.asarray(risk_scores, dtype=float)).auroc


# ---------------------------------------------------------------- statistics
def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100]) of unsorted ``values``."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


@dataclass
class Samples:
    """Latency samples in seconds, grouped by unit of work, summarised in ms."""

    values: list[float] = field(default_factory=list)
    units: list[list[float]] = field(default_factory=list)

    @classmethod
    def of_units(cls, units: list[list[float]]) -> "Samples":
        return cls([value for unit in units for value in unit], [list(u) for u in units])

    def next_unit(self) -> None:
        self.units.append([])

    def add(self, seconds: float) -> None:
        self.values.append(seconds)
        if self.units:
            self.units[-1].append(seconds)

    def __len__(self) -> int:
        return len(self.values)

    def p(self, q: float) -> float:
        """Percentile of every sample pooled."""
        return percentile(self.values, q) * 1e3

    def unit_p(self, q: float) -> float:
        """Median over units of work of each unit's own percentile.

        For tails with few samples per run, this keeps one stalled unit (a
        collector pause, a noisy neighbour) from setting the whole run's tail.
        """
        return statistics.median(percentile(u, q) for u in self.units if u) * 1e3


def median_setup(setup: Callable[[], Any], repeats: int = SETUP_REPEATS) -> tuple[Any, float]:
    """Run ``setup`` ``repeats`` times; returns the last result and the median seconds.

    Each set-up is timed in CPU seconds scaled by a :class:`SpeedProbe`.
    """
    seconds, result, probe = [], None, SpeedProbe()
    for _ in range(repeats):
        started = clock()
        result = setup()
        seconds.append((clock() - started) * probe.scale())
    return result, statistics.median(seconds)


def peak_rss_mb() -> float:
    """Process high-water resident set size (``ru_maxrss`` is KiB on Linux)."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 1024.0 if sys.platform != "darwin" else peak / (1024.0 * 1024.0)


# -------------------------------------------------------------------- stamps
def git_commit(root: Path = ROOT) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head_file = root / ".git" / "HEAD"
    try:
        head = head_file.read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_file = root / ".git" / ref
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split(" ", 1)[0]
    return "unknown"


def environment_stamp(workload: str, seed: int, params: dict[str, Any]) -> dict[str, Any]:
    import numpy
    import scipy

    return {
        "workload": workload,
        "seed": seed,
        "params": params,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


# ------------------------------------------------------------- run results
@dataclass
class Budget:
    """How much work one pass does: until ``seconds`` elapse, or ``units`` units."""

    seconds: float
    units: int | None = None

    def more(self, done: int, elapsed: float, minimum: int = 1) -> bool:
        """Whether to start another unit; time-bound passes do at least ``minimum``."""
        if self.units is not None:
            return done < self.units
        return done < minimum or elapsed < self.seconds


@dataclass
class RunResult:
    """What one measured pass of a workload produced."""

    #: End-to-end metrics other than ``setup_s`` and ``peak_rss_mb``.
    metrics: dict[str, float]
    #: Sample count behind each percentile metric.
    samples: dict[str, int]
    attempted: int
    failed: int
    #: Per-layer figures the workload measures itself (counts, HTTP, loadgen).
    layer: dict[str, float] = field(default_factory=dict)
    #: ``ServiceStats.snapshot()`` of every service the pass used.
    service_stats: list[dict] = field(default_factory=list)
    #: One line per correctness failure.
    problems: list[str] = field(default_factory=list)
    #: Gates run after the pass, off the clock and outside any tracing; each
    #: returns ``(operations checked, problems)``.
    checks: list[Callable[[], tuple[int, list[str]]]] = field(default_factory=list)

    def verify(self) -> None:
        """Run the deferred gates and fold their outcome into the counts."""
        for check in self.checks:
            checked, problems = check()
            self.attempted += checked
            self.failed += len(problems)
            self.problems += problems
        self.checks = []
