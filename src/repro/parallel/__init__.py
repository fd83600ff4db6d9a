"""Multi-worker sharded scoring (`repro.parallel`).

The execution subsystem of the stack: :class:`ExecutionConfig` describes *how*
scoring work is fanned out (worker count, pool backend, chunk size, in-flight
window), :class:`ParallelScoringEngine` does the fanning — a process pool for
throughput, serial scoring for small batches — and merges the per-chunk
:class:`ChunkScores` back **in deterministic source order**, bit-identical to
the serial path at any worker count and chunk size.

Entry points higher up the stack accept the same knobs directly:

* ``StagedPipeline.analyse_batches(source, workers=4)``
* ``RiskService.score_source(source, workers=4)``
* ``python -m repro.serve score --workers 4``
* ``PipelineSpec(execution={"workers": 4})`` → rides along in saved models

See ``BENCH_layers.json`` (written by ``benchmarks/bench_layers.py``) for
the measured worker scaling and ``tests/parallel/`` for the parity guarantees.
"""

from .chunks import ChunkScores
from .config import BACKENDS, DEFAULT_MIN_PROCESS_PAIRS, START_METHODS, ExecutionConfig
from .engine import ParallelScoringEngine

__all__ = [
    "BACKENDS",
    "DEFAULT_MIN_PROCESS_PAIRS",
    "START_METHODS",
    "ChunkScores",
    "ExecutionConfig",
    "ParallelScoringEngine",
]
