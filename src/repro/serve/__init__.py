"""Model persistence and the batched risk-scoring service layer.

This package turns a fitted :class:`~repro.pipeline.LearnRiskPipeline` from a
single-process object into an operable model:

* :mod:`repro.serve.persistence` — save/load fitted pipelines as JSON + npz
  (pickle-free, bit-exact round trips);
* :mod:`repro.serve.service` — :class:`RiskService`, micro-batched scoring
  with an LRU vectorisation cache and serving statistics;
* :mod:`repro.serve.registry` — :class:`ModelRegistry`, thread-safe named /
  versioned pipelines with hot-swap and rollback;
* :mod:`repro.serve.http` — the asyncio HTTP serving tier: micro-batch
  request coalescing over :class:`RiskService`, ``/score`` / ``/explain`` /
  ``/stats`` / model-control endpoints (imported on demand — see
  :func:`repro.serve.http.build_server` and the ``http`` CLI subcommand);
* :mod:`repro.serve.cli` — the ``python -m repro.serve`` fit/score/inspect/
  http operations surface.

Quick start::

    from repro import LearnRiskPipeline, load_dataset, split_workload
    from repro.serve import RiskService, load_pipeline, save_pipeline

    split = split_workload(load_dataset("DS", scale=0.3), ratio=(3, 2, 5), seed=0)
    pipeline = LearnRiskPipeline().fit(split.train, split.validation)
    save_pipeline(pipeline, "models/ds-v1")

    service = RiskService(load_pipeline("models/ds-v1"))
    for scored in service.score_workload(split.test)[:5]:
        print(scored.pair.pair_id, scored.risk_score)
"""

from .persistence import (
    load_pipeline,
    load_staged_pipeline,
    load_state,
    save_pipeline,
    save_state,
)
from .registry import ModelRegistry
from .service import RiskService, ScoredPair, ServiceStats, pair_key

__all__ = [
    "ModelRegistry",
    "RiskService",
    "ScoredPair",
    "ServiceStats",
    "load_pipeline",
    "load_staged_pipeline",
    "load_state",
    "pair_key",
    "save_pipeline",
    "save_state",
]
