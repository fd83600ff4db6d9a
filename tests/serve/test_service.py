"""Tests of RiskService: batching, caching, stats, and parity with analyse()."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.data import split_workload
from repro.exceptions import ConfigurationError, NotFittedError
from repro.serve import RiskService, pair_key

from fast_spec import fast_pipeline


@pytest.fixture(scope="module")
def served(ds_workload):
    split = split_workload(ds_workload, ratio=(3, 2, 5), seed=0)
    pipeline = fast_pipeline()
    pipeline.fit(split.train, split.validation)
    return pipeline, split


class TestConstruction:
    def test_requires_fitted_pipeline(self):
        with pytest.raises(NotFittedError):
            RiskService(fast_pipeline())

    def test_validates_options(self, served):
        pipeline, _ = served
        with pytest.raises(ConfigurationError):
            RiskService(pipeline, max_batch_size=0)
        with pytest.raises(ConfigurationError):
            RiskService(pipeline, cache_size=-1)


class TestScoring:
    def test_matches_pipeline_analyse_exactly(self, served):
        # One service batch covering the workload reproduces analyse() bit for bit.
        pipeline, split = served
        service = RiskService(pipeline, max_batch_size=len(split.test))
        report = pipeline.analyse(split.test)
        scored = service.score_pairs(split.test.pairs)
        np.testing.assert_array_equal(
            np.array([s.risk_score for s in scored]), report.risk_scores
        )
        np.testing.assert_array_equal(
            np.array([s.probability for s in scored]), report.machine_probabilities
        )
        np.testing.assert_array_equal(
            np.array([s.machine_label for s in scored]), report.machine_labels
        )

    def test_micro_batched_scores_match_analyse_closely(self, served):
        # Micro-batching may change BLAS kernel choices; scores agree to 1e-12.
        pipeline, split = served
        service = RiskService(pipeline, max_batch_size=64)
        report = pipeline.analyse(split.test)
        scores = service.risk_scores(split.test.pairs)
        np.testing.assert_allclose(scores, report.risk_scores, rtol=0.0, atol=1e-12)

    def test_empty_input(self, served):
        pipeline, _ = served
        service = RiskService(pipeline)
        assert service.score_pairs([]) == []
        assert service.risk_scores([]).shape == (0,)
        assert service.explain_pairs([]) == []

    def test_micro_batching_splits_large_inputs(self, served):
        pipeline, split = served
        service = RiskService(pipeline, max_batch_size=10)
        pairs = split.test.pairs[:35]
        service.score_pairs(pairs)
        stats = service.stats.snapshot()
        assert stats["batches"] == 4
        assert stats["largest_batch"] == 10
        assert stats["pairs_scored"] == 35

    def test_cached_rescoring_is_identical(self, served):
        pipeline, split = served
        service = RiskService(pipeline, cache_size=4096)
        pairs = split.test.pairs[:50]
        first = service.risk_scores(pairs)
        second = service.risk_scores(pairs)
        np.testing.assert_array_equal(first, second)
        assert service.stats.snapshot()["cache_hits"] == 50
        assert service.stats.snapshot()["cache_misses"] == 50


class TestCache:
    def test_hit_rate_grows_on_repeats(self, served):
        pipeline, split = served
        service = RiskService(pipeline, cache_size=4096)
        pairs = split.test.pairs[:30]
        for _ in range(4):
            service.score_pairs(pairs)
        assert service.stats.snapshot()["cache_hit_rate"] == pytest.approx(0.75)
        assert service.cache_fill == 30

    def test_lru_eviction_bounds_memory(self, served):
        pipeline, split = served
        service = RiskService(pipeline, cache_size=8)
        service.score_pairs(split.test.pairs[:30])
        assert service.cache_fill == 8

    def test_lru_keeps_recently_used(self, served):
        pipeline, split = served
        service = RiskService(pipeline, cache_size=10)
        hot = split.test.pairs[:10]
        service.score_pairs(hot)
        # Touch the hot set, then push one cold pair through: the coldest
        # (least recently used) entry is evicted, not the hot ones.
        service.score_pairs(hot)
        service.score_pairs(split.test.pairs[10:11])
        keys = {pair_key(pair) for pair in hot[1:]}
        assert keys <= set(service._cache)
        assert pair_key(hot[0]) not in service._cache

    def test_cache_disabled(self, served):
        pipeline, split = served
        service = RiskService(pipeline, cache_size=0)
        service.score_pairs(split.test.pairs[:10])
        service.score_pairs(split.test.pairs[:10])
        assert service.stats.snapshot()["cache_hits"] == 0
        assert service.cache_fill == 0

    def test_clear_cache(self, served):
        pipeline, split = served
        service = RiskService(pipeline)
        service.score_pairs(split.test.pairs[:10])
        service.clear_cache()
        assert service.cache_fill == 0

    def test_misses_are_vectorized_as_one_batch(self, served):
        # Cache misses go through the vectoriser's batched transform; the
        # resulting matrix must match per-pair vectorisation exactly.
        pipeline, split = served
        service = RiskService(pipeline, cache_size=4096)
        pairs = split.test.pairs[:20]
        matrix = service._vectorize(pairs)
        expected = np.vstack([pipeline.vectorizer.transform_pair(pair) for pair in pairs])
        np.testing.assert_array_equal(matrix, expected)
        assert service.stats.snapshot()["cache_misses"] == 20

    def test_mixed_hits_and_misses_stay_aligned(self, served):
        pipeline, split = served
        service = RiskService(pipeline, cache_size=4096)
        service.score_pairs(split.test.pairs[:10])
        # 5 hits interleaved with 5 misses, in shuffled order.
        mixed = split.test.pairs[5:15]
        matrix = service._vectorize(mixed)
        expected = np.vstack([pipeline.vectorizer.transform_pair(pair) for pair in mixed])
        np.testing.assert_array_equal(matrix, expected)

    def test_cached_rows_are_immutable(self, served):
        pipeline, split = served
        service = RiskService(pipeline, cache_size=4096)
        service.score_pairs(split.test.pairs[:5])
        for row in service._cache.values():
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 123.0

    def test_mutating_returned_matrix_cannot_corrupt_cache(self, served):
        pipeline, split = served
        service = RiskService(pipeline, cache_size=4096)
        pairs = split.test.pairs[:8]
        first = service._vectorize(pairs)
        first[:] = -1.0  # caller scribbles over the returned matrix
        second = service._vectorize(pairs)  # all cache hits
        expected = np.vstack([pipeline.vectorizer.transform_pair(pair) for pair in pairs])
        np.testing.assert_array_equal(second, expected)
        assert service.stats.snapshot()["cache_hits"] == len(pairs)


class TestExplain:
    def test_explains_in_recorded_micro_batches(self, served):
        # Explaining takes the lock per max_batch_size slice and records each
        # slice as a batch, exactly like scoring.
        pipeline, split = served
        service = RiskService(pipeline, max_batch_size=7)
        pairs = split.test.pairs[:15]
        explained = service.explain_pairs(pairs, top_rules=3)
        stats = service.stats.snapshot()
        assert stats["batches"] == 3
        assert stats["largest_batch"] == 7
        assert stats["pairs_scored"] == 15
        assert stats["cache_hits"] + stats["cache_misses"] == 15
        chunked = RiskService(pipeline)
        expected = [
            explanation
            for start in range(0, 15, 7)
            for explanation in chunked.explain_pairs(pairs[start:start + 7], top_rules=3)
        ]
        assert explained == expected

    def test_explained_scores_match_scored_pairs(self, served):
        # An explanation carries the pair's score bit for bit, so an
        # explaining caller never needs a separate score_pairs pass.
        pipeline, split = served
        pairs = split.test.pairs[:20]
        explained = RiskService(pipeline, max_batch_size=7).explain_pairs(pairs)
        scored = RiskService(pipeline, max_batch_size=7).score_pairs(pairs)
        assert [e.machine_probability for e in explained] == [s.probability for s in scored]
        assert [e.machine_label for e in explained] == [s.machine_label for s in scored]
        assert [e.risk_score for e in explained] == [s.risk_score for s in scored]
        expected = pipeline.analyse(split.test.subset(range(20))).risk_scores
        np.testing.assert_allclose(
            [e.risk_score for e in explained], expected, rtol=0.0, atol=1e-12
        )

    def test_lock_is_released_between_batches(self, served, monkeypatch):
        # A long explain input must not hold the service lock across its
        # whole length: each max_batch_size slice takes and releases it.
        pipeline, split = served
        service = RiskService(pipeline, max_batch_size=7)
        log: list[str] = []

        class RecordingLock:
            def __init__(self) -> None:
                self._lock = threading.RLock()

            def __enter__(self) -> None:
                self._lock.acquire()
                log.append("acquire")

            def __exit__(self, *exc_info: object) -> None:
                log.append("release")
                self._lock.release()

        explain = pipeline.risk_model.explain_pairs

        def logged_explain(*args, **kwargs):
            log.append("explain")
            return explain(*args, **kwargs)

        monkeypatch.setattr(service, "_lock", RecordingLock())
        monkeypatch.setattr(pipeline.risk_model, "explain_pairs", logged_explain)
        service.explain_pairs(split.test.pairs[:15], top_rules=3)
        assert log == ["acquire", "explain", "release"] * 3

    def test_failed_batch_is_not_recorded_and_service_recovers(self, served, monkeypatch):
        # A transient model failure surfaces to the caller, records no batch,
        # leaves the lock free, and the next call explains normally.
        pipeline, split = served
        service = RiskService(pipeline, max_batch_size=100)
        pairs = split.test.pairs[:3]

        def boom(features):
            raise RuntimeError("transient classifier failure")

        with monkeypatch.context() as patch:
            patch.setattr(pipeline.classifier, "predict_proba", boom)
            with pytest.raises(RuntimeError, match="transient"):
                service.explain_pairs(pairs)
        assert service.stats.snapshot()["pairs_scored"] == 0
        assert service.stats.snapshot()["batches"] == 0

        acquired: list[bool] = []

        def probe() -> None:
            if service._lock.acquire(timeout=5):
                service._lock.release()
                acquired.append(True)

        thread = threading.Thread(target=probe)
        thread.start()
        thread.join()
        assert acquired == [True]

        assert service.explain_pairs(pairs) == RiskService(pipeline).explain_pairs(pairs)
        assert service.stats.snapshot()["pairs_scored"] == 3
        assert service.stats.snapshot()["batches"] == 1


class TestThreadSafety:
    def test_concurrent_scoring_is_consistent(self, served):
        pipeline, split = served
        service = RiskService(pipeline, max_batch_size=16, cache_size=64)
        pairs = split.test.pairs[:40]
        expected = pipeline.analyse(split.test.subset(range(40))).risk_scores
        failures: list[str] = []

        def worker() -> None:
            for _ in range(3):
                scores = service.risk_scores(pairs)
                if not np.array_equal(scores, expected):
                    failures.append("scores diverged under concurrency")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not failures
        assert service.stats.snapshot()["pairs_scored"] == 4 * 3 * 40
