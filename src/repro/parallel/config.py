"""Execution configuration of the sharded scoring engine.

:class:`ExecutionConfig` is the one knob surface for parallel scoring: how
many workers, which pool backend, how large the streamed chunks are and how
much work may be in flight at once.  It is a plain JSON-serialisable
dataclass so it can ride along in a :class:`~repro.compose.spec.PipelineSpec`
(the ``execution`` field) and round-trip through ``build_pipeline`` exactly
like the component specs.

Backends
--------
``"serial"``
    No pool at all; chunks are scored in the calling thread with the calling
    pipeline.  This is also what any backend degrades to at ``workers <= 1``.
``"process"``
    A :class:`~concurrent.futures.ProcessPoolExecutor`; each worker process
    rebuilds the pipeline once from its picklable state and keeps it warm.
    This is the backend that actually multiplies throughput by cores.
``"auto"``
    ``"process"``, except for workloads known to be smaller than
    :attr:`ExecutionConfig.min_process_pairs`, which run ``"serial"``:
    there, process startup costs more than the second core buys.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any, Mapping

from ..exceptions import ConfigurationError

#: The backends a config may name explicitly.
BACKENDS = ("auto", "serial", "process")

#: Process start methods a config may pin (``None`` keeps the platform default).
START_METHODS = ("fork", "spawn", "forkserver")

#: Below this many pairs (when the source length is known) the ``auto``
#: backend scores serially: forking/spawning interpreter processes costs more
#: than it buys on small batches.  On a 2-core host a fresh two-worker pool
#: (start-up included, 256-pair chunks) first beat serial scoring in every
#: timing pass at 1,024 pairs.
DEFAULT_MIN_PROCESS_PAIRS = 1024


@dataclass(frozen=True)
class ExecutionConfig:
    """How scoring work is fanned out (see module docstring).

    Attributes
    ----------
    workers:
        Number of pool workers.  ``1`` means serial execution regardless of
        backend.
    backend:
        ``"auto"``, ``"serial"`` or ``"process"``.
    chunk_size:
        Pairs per streamed chunk when the caller does not pass an explicit
        batch/chunk size of its own; ``None`` defers to the call site's
        default.  Output is bit-identical at any chunk size, so this is a
        throughput knob, never a correctness knob.
    min_process_pairs:
        Known-length workloads smaller than this run serially under
        ``"auto"`` instead of on its process pool.
    start_method:
        Multiprocessing start method for the process backend (``"fork"``,
        ``"spawn"``, ``"forkserver"``); ``None`` keeps the platform default.
        Scores are bit-identical under every start method — workers rebuild
        the pipeline from explicit state, never from inherited lazy caches.
    max_pending:
        In-flight chunks per worker.  The engine keeps at most
        ``workers * max_pending`` chunks submitted ahead of the consumer, so
        parent-side memory stays bounded while the pool never starves.
    """

    workers: int = 1
    backend: str = "auto"
    chunk_size: int | None = None
    min_process_pairs: int = DEFAULT_MIN_PROCESS_PAIRS
    start_method: str | None = None
    max_pending: int = 2

    def __post_init__(self) -> None:
        if int(self.workers) < 1:
            raise ConfigurationError(f"workers must be >= 1, got {self.workers}")
        object.__setattr__(self, "workers", int(self.workers))
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown execution backend {self.backend!r}; "
                f"expected one of {', '.join(BACKENDS)}"
            )
        if self.chunk_size is not None:
            if int(self.chunk_size) < 1:
                raise ConfigurationError(f"chunk_size must be >= 1, got {self.chunk_size}")
            object.__setattr__(self, "chunk_size", int(self.chunk_size))
        if int(self.min_process_pairs) < 0:
            raise ConfigurationError(
                f"min_process_pairs must be >= 0, got {self.min_process_pairs}"
            )
        object.__setattr__(self, "min_process_pairs", int(self.min_process_pairs))
        if self.start_method is not None and self.start_method not in START_METHODS:
            raise ConfigurationError(
                f"unknown start_method {self.start_method!r}; "
                f"expected one of {', '.join(START_METHODS)} or null"
            )
        if int(self.max_pending) < 1:
            raise ConfigurationError(f"max_pending must be >= 1, got {self.max_pending}")
        object.__setattr__(self, "max_pending", int(self.max_pending))

    # --------------------------------------------------------------- resolution
    def with_workers(self, workers: int | None) -> "ExecutionConfig":
        """This config with ``workers`` overridden (``None`` keeps the current value)."""
        if workers is None or workers == self.workers:
            return self
        return replace(self, workers=workers)

    def resolve_backend(self, length: int | None = None) -> str:
        """The concrete backend for a workload of ``length`` pairs (``None`` = unknown).

        ``workers <= 1`` always resolves to ``"serial"``; ``"auto"`` runs
        known-small workloads serially and everything else on a process pool.
        """
        if self.workers <= 1:
            return "serial"
        if self.backend != "auto":
            return self.backend
        if length is not None and length < self.min_process_pairs:
            return "serial"
        return "process"

    @property
    def window(self) -> int:
        """Maximum chunks in flight (submitted but not yet yielded)."""
        return self.workers * self.max_pending

    def resolve_chunk_size(self, default: int) -> int:
        """The chunk size to stream with when the caller passed none of its own."""
        return default if self.chunk_size is None else self.chunk_size

    # ------------------------------------------------------------ serialisation
    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (inverse of :meth:`from_dict`)."""
        return {
            "workers": self.workers,
            "backend": self.backend,
            "chunk_size": self.chunk_size,
            "min_process_pairs": self.min_process_pairs,
            "start_method": self.start_method,
            "max_pending": self.max_pending,
        }

    @classmethod
    def from_dict(cls, values: Mapping[str, Any]) -> "ExecutionConfig":
        """Build a config from a mapping, rejecting unknown keys loudly."""
        if not isinstance(values, Mapping):
            raise ConfigurationError(
                f"execution config must be a mapping, got {type(values).__name__}"
            )
        known = {config_field.name for config_field in fields(cls)}
        unknown = set(values) - known
        if unknown:
            raise ConfigurationError(
                f"unknown execution config keys {sorted(unknown)}; "
                f"known keys: {sorted(known)}"
            )
        return cls(**dict(values))

    @classmethod
    def coerce(cls, value: "ExecutionConfig | Mapping[str, Any] | None") -> "ExecutionConfig | None":
        """Accept a config, its ``to_dict`` mapping, or ``None`` (passes through)."""
        if value is None or isinstance(value, ExecutionConfig):
            return value
        if isinstance(value, Mapping):
            return cls.from_dict(value)
        raise ConfigurationError(
            f"execution must be an ExecutionConfig or a mapping, "
            f"got {type(value).__name__}"
        )
