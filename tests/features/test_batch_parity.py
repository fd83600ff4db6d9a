"""End-to-end parity of the batched vectorisation path.

The kernels are the only shipped definition of the registry metrics; these
tests pin them at the vectoriser level (bit-identical matrices against the
scalar oracle of ``tests/metric_oracle.py``, run through the custom-metric
per-pair loop on real DS-generated workloads), at the serving level
(concurrent workers sharing one corpus index), and around the lifecycle
edges (pickling drops the index; telemetry proves which path ran).
"""

from __future__ import annotations

import pickle
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.features.metric_registry import MetricSpec, metrics_for_schema
from repro.features.vectorizer import PairVectorizer
from repro.obs import MetricsRegistry, use_recorder

from metric_oracle import oracle_specs


def chunked(pairs, size):
    for start in range(0, len(pairs), size):
        yield pairs[start : start + size]


@pytest.fixture(scope="module")
def scoring_sample(ds_workload):
    return ds_workload.sample(120, seed=11).pairs


@pytest.fixture(scope="module")
def batched_vectorizer(ds_workload):
    return PairVectorizer(ds_workload.left_table.schema).fit_workload(ds_workload)


class TestBitParity:
    def test_kernels_equal_oracle_scalar_loop(self, ds_workload, scoring_sample, batched_vectorizer):
        schema = ds_workload.left_table.schema
        oracle = PairVectorizer(schema, metrics=oracle_specs(schema)).fit_workload(ds_workload)
        assert oracle.feature_names == batched_vectorizer.feature_names
        registry = MetricsRegistry()
        with use_recorder(registry):
            oracle_matrix = oracle.transform(scoring_sample)
        # Every oracle column ran through the custom-metric per-pair loop.
        assert registry.counter_value("vectorize.scalar_columns") == oracle.n_features
        assert registry.counter_value("vectorize.batch_columns") == 0
        # Bitwise, not approximate: the kernels replicate the oracle's op order.
        assert np.array_equal(batched_vectorizer.transform(scoring_sample), oracle_matrix)

    def test_chunked_transforms_equal_one_shot(self, scoring_sample, batched_vectorizer):
        # Chunking exercises cross-batch memoisation: later chunks resolve
        # repeated value pairs from the score store instead of the kernels.
        one_shot = batched_vectorizer.transform(scoring_sample)
        rows = [
            row
            for chunk in chunked(scoring_sample, 17)
            for row in batched_vectorizer.transform(chunk)
        ]
        assert np.array_equal(one_shot, np.vstack(rows))

    def test_transform_pair_matches_batch_rows(self, scoring_sample, batched_vectorizer):
        matrix = batched_vectorizer.transform(scoring_sample[:20])
        for row, pair in zip(matrix, scoring_sample[:20]):
            assert np.array_equal(row, batched_vectorizer.transform_pair(pair))

    def test_concurrent_workers_share_one_index(self, ds_workload, scoring_sample):
        # Two threads hammering one vectoriser model concurrent callers of one
        # served pipeline (the HTTP tier's executor threads); the corpus-index
        # lock must keep every row bit-identical to the serial result.
        serial = PairVectorizer(ds_workload.left_table.schema).fit_workload(ds_workload)
        expected = serial.transform(scoring_sample)
        shared = PairVectorizer(ds_workload.left_table.schema).fit_workload(ds_workload)
        chunks = list(chunked(scoring_sample, 9))
        with ThreadPoolExecutor(max_workers=2) as pool:
            results = list(pool.map(shared.transform, chunks))
        assert np.array_equal(expected, np.vstack(results))


class TestTelemetry:
    def test_spans_and_column_counters(self, scoring_sample, batched_vectorizer):
        registry = MetricsRegistry()
        with use_recorder(registry):
            batched_vectorizer.transform(scoring_sample[:30])
        assert registry.span_seconds("vectorize") > 0.0
        assert registry.span_seconds("vectorize.batch") > 0.0
        assert registry.span_seconds("vectorize.scalar") == 0.0
        # Every registry metric has a kernel, so every column ran batched.
        assert registry.counter_value("vectorize.batch_columns") == batched_vectorizer.n_features
        assert registry.counter_value("vectorize.scalar_columns") == 0

    def test_custom_metric_falls_back_to_scalar(self, ds_workload, scoring_sample):
        schema = ds_workload.left_table.schema
        custom = MetricSpec(
            attribute="title",
            metric="always_half",
            kind="similarity",
            function=lambda left, right, context: 0.5,
        )
        specs = metrics_for_schema(schema) + [custom]
        vectorizer = PairVectorizer(schema, metrics=specs).fit_workload(ds_workload)
        registry = MetricsRegistry()
        with use_recorder(registry):
            matrix = vectorizer.transform(scoring_sample[:10])
        assert registry.counter_value("vectorize.scalar_columns") == 1
        assert registry.counter_value("vectorize.batch_columns") == len(specs) - 1
        assert np.all(matrix[:, vectorizer.metric_index("title.always_half")] == 0.5)


class TestLifecycle:
    def test_pickle_drops_corpus_index_and_scores_identically(
        self, scoring_sample, batched_vectorizer
    ):
        expected = batched_vectorizer.transform(scoring_sample)
        assert batched_vectorizer.corpus_index is not None  # warm before pickling
        clone = pickle.loads(pickle.dumps(batched_vectorizer))
        assert clone.corpus_index is None  # caches never ship across processes
        assert np.array_equal(expected, clone.transform(scoring_sample))

    def test_cache_cap_reset_between_transforms_is_invisible(
        self, ds_workload, scoring_sample
    ):
        unbounded = PairVectorizer(ds_workload.left_table.schema).fit_workload(ds_workload)
        tiny = PairVectorizer(
            ds_workload.left_table.schema, corpus_cache_entries=8
        ).fit_workload(ds_workload)
        for chunk in chunked(scoring_sample, 13):
            assert np.array_equal(unbounded.transform(chunk), tiny.transform(chunk))
        # The cap actually triggered: the tiny index was reset below the cap
        # plus one transform's worth of fresh entries.
        assert tiny.corpus_index.entry_count < unbounded.corpus_index.entry_count
