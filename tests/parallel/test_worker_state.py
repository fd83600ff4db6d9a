"""Worker-safety regressions: lazy state must never leak across workers.

The hazards this file pins down:

* the lazily-compiled :class:`~repro.risk.engine.RuleKernel` is a derived
  cache — pickling it to workers would bloat every payload and carry an
  identity-based invalidation check that means nothing in another process, so
  ``GeneratedRiskFeatures`` must drop it from pickled state and rebuild via
  the explicit :meth:`warm_kernel`;
* :class:`~repro.serve.service.RiskService` holds a lock and a mutable LRU
  cache and must never cross a process boundary at all;
* scoring under the ``spawn`` start method (nothing inherited from the
  parent) must be bit-identical to ``fork`` (everything inherited) — the
  regression that proves no worker depends on inherited lazy state.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle

import numpy as np
import pytest

from repro.parallel import ExecutionConfig
from repro.risk.engine import RuleKernel
from repro.serve import RiskService


class TestKernelPickleSafety:
    def test_pickle_drops_the_lazy_kernel(self, fitted_pipeline, parallel_split):
        features = fitted_pipeline.risk_features
        features.warm_kernel()
        assert features._kernel is not None
        restored = pickle.loads(pickle.dumps(features))
        assert restored._kernel is None
        assert restored._kernel_rules is None
        # The original keeps its warmed kernel: __getstate__ copies, never mutates.
        assert features._kernel is not None

    def test_restored_features_score_identically(self, fitted_pipeline, parallel_split):
        features = fitted_pipeline.risk_features
        matrix = fitted_pipeline.vectorizer.transform(parallel_split.test.pairs[:25])
        restored = pickle.loads(pickle.dumps(features))
        assert np.array_equal(restored.membership(matrix), features.membership(matrix))

    def test_warm_kernel_is_explicit_and_reusable(self, fitted_pipeline):
        features = fitted_pipeline.risk_features
        kernel = features.warm_kernel()
        assert isinstance(kernel, RuleKernel)
        assert features.warm_kernel() is kernel  # warmed once, reused
        features.invalidate_kernel()
        rebuilt = features.warm_kernel()
        assert rebuilt is not kernel
        assert rebuilt.n_rules == kernel.n_rules

    def test_pipeline_warm_kernel(self, fitted_pipeline):
        fitted_pipeline.risk_features.invalidate_kernel()
        fitted_pipeline.warm_kernel()
        assert fitted_pipeline.risk_features._kernel is not None


class TestProcessWorkerState:
    def test_worker_rebuilds_once_and_stamps_only_its_first_chunk(
        self, fitted_pipeline, parallel_split, monkeypatch
    ):
        # The pool's initializer and task function, run in this process: the
        # worker pipeline is rebuilt from state with its kernel warmed, its
        # chunks score like the parent's, and the one-time rebuild cost rides
        # on the worker's first chunk only.
        from repro.parallel import engine

        monkeypatch.setattr(engine, "_WORKER_PIPELINE", None)
        monkeypatch.setattr(engine, "_WORKER_REBUILD_SECONDS", 0.0)
        engine._initialize_process_worker(fitted_pipeline.to_state())
        assert engine._WORKER_PIPELINE is not fitted_pipeline
        assert engine._WORKER_PIPELINE.risk_features._kernel is not None
        pairs = parallel_split.test.pairs[:12]
        first = engine._score_chunk_in_process(pairs[:6], 2)
        second = engine._score_chunk_in_process(pairs[6:], 2)
        assert first == fitted_pipeline.score_chunk(pairs[:6], explain_top=2)
        assert second == fitted_pipeline.score_chunk(pairs[6:], explain_top=2)
        assert first.worker == second.worker == f"pid-{os.getpid()}"
        assert first.worker_seconds > 0.0
        assert first.rebuild_seconds > 0.0
        assert second.rebuild_seconds == 0.0


class TestServiceIsProcessLocal:
    def test_risk_service_refuses_to_pickle(self, fitted_pipeline):
        service = RiskService(fitted_pipeline, cache_size=16)
        with pytest.raises(TypeError):
            pickle.dumps(service)


@pytest.mark.skipif(
    "spawn" not in multiprocessing.get_all_start_methods(),
    reason="platform has no spawn start method",
)
class TestSpawnForkParity:
    def test_spawn_matches_fork_and_serial(self, fitted_pipeline, parallel_split):
        """Scoring under spawn (cold workers) ≡ fork (inherited memory) ≡ serial."""
        workload = parallel_split.test
        serial = list(fitted_pipeline.analyse_batches(workload, batch_size=64))

        by_method = {}
        for method in ("fork", "spawn"):
            if method not in multiprocessing.get_all_start_methods():
                continue  # pragma: no cover - e.g. fork missing on Windows
            execution = ExecutionConfig(workers=2, backend="process", start_method=method)
            by_method[method] = list(fitted_pipeline.analyse_batches(
                workload, batch_size=64, execution=execution
            ))
        for method, reports in by_method.items():
            assert len(reports) == len(serial), method
            for left, right in zip(serial, reports):
                assert np.array_equal(left.risk_scores, right.risk_scores), method
                assert np.array_equal(
                    left.machine_probabilities, right.machine_probabilities
                ), method
                assert np.array_equal(left.machine_labels, right.machine_labels), method
