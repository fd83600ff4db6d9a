"""Streaming parity: analysing through pair sources must be bit-identical to
the eager in-memory path, and spec-named sources must round-trip."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compose import PipelineSpec, build_pipeline, create_source, registered_sources
from repro.data import export_workload, split_workload
from repro.data.sources import CsvPairSource, InMemorySource, PairSource
from repro.data.workload import Workload
from repro.exceptions import ConfigurationError
from repro.serve import RiskService

SPEC_VALUES = {
    "classifier": {"kind": "mlp", "params": {"hidden_sizes": [16], "epochs": 15}},
    "risk_features": {
        "kind": "onesided_tree",
        "params": {"tree": {"max_depth": 2, "min_support": 4, "max_thresholds": 24}},
    },
    "training": {"epochs": 40},
    "seed": 0,
}


@pytest.fixture(scope="module")
def ds_split(ds_workload):
    return split_workload(ds_workload, ratio=(3, 2, 5), seed=0)


@pytest.fixture(scope="module")
def fitted(ds_split):
    pipeline = build_pipeline(PipelineSpec.from_dict(SPEC_VALUES))
    return pipeline.fit(ds_split.train, ds_split.validation)


@pytest.fixture(scope="module")
def eager_report(fitted, ds_split):
    return fitted.analyse(ds_split.test)


@pytest.fixture(scope="module")
def csv_test_dir(ds_split, tmp_path_factory):
    directory = tmp_path_factory.mktemp("csv-test-split")
    export_workload(ds_split.test, directory)
    return directory


def concatenated_scores(reports):
    reports = list(reports)
    return (
        np.concatenate([r.machine_probabilities for r in reports]),
        np.concatenate([r.machine_labels for r in reports]),
        np.concatenate([r.risk_scores for r in reports]),
        [pair.pair_id for r in reports for pair in r.pairs],
    )


class TestAnalyseStreamingParity:
    @pytest.mark.parametrize("batch_size", [64, 113])
    def test_in_memory_source_chunks_bit_identical(self, fitted, ds_split, eager_report, batch_size):
        source = InMemorySource(ds_split.test)
        probabilities, labels, scores, ids = concatenated_scores(
            fitted.analyse_batches(source, batch_size=batch_size)
        )
        np.testing.assert_array_equal(probabilities, eager_report.machine_probabilities)
        np.testing.assert_array_equal(labels, eager_report.machine_labels)
        np.testing.assert_array_equal(scores, eager_report.risk_scores)
        assert ids == [pair.pair_id for pair in eager_report.pairs]

    def test_csv_source_chunks_bit_identical(self, fitted, ds_split, eager_report, csv_test_dir):
        source = CsvPairSource(
            csv_test_dir, ds_split.test.name, ds_split.test.left_table.schema
        )
        _, _, scores, ids = concatenated_scores(
            fitted.analyse_batches(source, batch_size=77)
        )
        np.testing.assert_array_equal(scores, eager_report.risk_scores)
        assert ids == [pair.pair_id for pair in eager_report.pairs]

    def test_trailing_partial_chunk(self, fitted, ds_split, eager_report):
        n = len(ds_split.test)
        batch_size = (n // 2) + 1  # second chunk is a strict partial
        reports = list(fitted.analyse_batches(InMemorySource(ds_split.test), batch_size=batch_size))
        assert [len(r.pairs) for r in reports] == [batch_size, n - batch_size]
        _, _, scores, _ = concatenated_scores(reports)
        np.testing.assert_array_equal(scores, eager_report.risk_scores)

    def test_empty_source_yields_no_reports(self, fitted):
        assert list(fitted.analyse_batches(InMemorySource([], name="empty"))) == []

    def test_empty_chunks_from_custom_source_are_skipped(self, fitted, ds_split, eager_report):
        class EmptyChunkSource(PairSource):
            name = "with-empties"

            def iter_chunks(self, chunk_size=1024):
                pairs = ds_split.test.pairs
                yield []
                for start in range(0, len(pairs), chunk_size):
                    yield pairs[start:start + chunk_size]
                    yield []

        _, _, scores, _ = concatenated_scores(
            fitted.analyse_batches(EmptyChunkSource(), batch_size=97)
        )
        np.testing.assert_array_equal(scores, eager_report.risk_scores)

    def test_lazy_workload_view_streams_without_materialising(self, fitted, ds_split, eager_report):
        lazy = Workload.from_source(InMemorySource(ds_split.test))
        _, _, scores, _ = concatenated_scores(fitted.analyse_batches(lazy, batch_size=59))
        np.testing.assert_array_equal(scores, eager_report.risk_scores)
        assert not lazy.is_materialized

    def test_analyse_accepts_bounded_source(self, fitted, ds_split, eager_report):
        report = fitted.analyse(InMemorySource(ds_split.test))
        np.testing.assert_array_equal(report.risk_scores, eager_report.risk_scores)


class TestLabelStreamingParity:
    def test_label_source_matches_eager(self, fitted, ds_split):
        eager_probabilities, eager_labels = fitted.label(ds_split.test)
        probabilities, labels = fitted.label(InMemorySource(ds_split.test), batch_size=61)
        np.testing.assert_array_equal(probabilities, eager_probabilities)
        np.testing.assert_array_equal(labels, eager_labels)

    def test_label_empty_source(self, fitted):
        probabilities, labels = fitted.label(InMemorySource([], name="empty"))
        assert probabilities.shape == (0,) and labels.shape == (0,)


class TestServiceStreamingParity:
    def test_score_source_matches_score_pairs(self, fitted, ds_split):
        service = RiskService(fitted, max_batch_size=64, cache_size=0)
        eager = service.score_pairs(ds_split.test.pairs)
        streamed = list(service.score_source(InMemorySource(ds_split.test), chunk_size=150))
        assert [s.pair.pair_id for s in streamed] == [s.pair.pair_id for s in eager]
        np.testing.assert_array_equal(
            [s.risk_score for s in streamed], [s.risk_score for s in eager]
        )

    def test_score_source_accepts_workload(self, fitted, ds_split):
        service = RiskService(fitted, max_batch_size=64, cache_size=0)
        direct = list(service.score_source(ds_split.test))
        assert len(direct) == len(ds_split.test)

    def test_score_source_rejects_invalid_chunk_size(self, fitted, ds_split):
        service = RiskService(fitted, max_batch_size=64, cache_size=0)
        with pytest.raises(ConfigurationError):
            next(service.score_source(InMemorySource(ds_split.test), chunk_size=0))


class TestSpecNamedSources:
    def test_registered_backends(self):
        assert {"csv", "dataset", "generator", "sharded", "blocked"} <= set(
            registered_sources()
        )

    def test_spec_source_roundtrips_through_build_pipeline(self, csv_test_dir, ds_split):
        schema = ds_split.test.left_table.schema
        values = dict(SPEC_VALUES)
        values["source"] = {
            "kind": "csv",
            "params": {
                "directory": str(csv_test_dir),
                "name": ds_split.test.name,
                "schema": schema.to_dict(),
            },
        }
        spec = PipelineSpec.from_dict(values)
        restored = PipelineSpec.from_json(spec.to_json())
        assert restored.to_dict() == spec.to_dict()
        pipeline = build_pipeline(restored)
        source = pipeline.build_source()
        assert isinstance(source, CsvPairSource)
        assert sum(len(chunk) for chunk in source.iter_chunks(100)) == len(ds_split.test)

    def test_spec_without_source_keeps_legacy_layout(self):
        spec = PipelineSpec.from_dict(SPEC_VALUES)
        assert "source" not in spec.to_dict()
        with pytest.raises(ConfigurationError, match="names no data source"):
            build_pipeline(spec).build_source()

    def test_unknown_source_kind_fails_at_build(self):
        values = dict(SPEC_VALUES)
        values["source"] = {"kind": "nope", "params": {}}
        with pytest.raises(ConfigurationError, match="unknown pair source"):
            build_pipeline(PipelineSpec.from_dict(values))

    def test_dataset_and_generator_sources_from_registry(self):
        dataset = create_source("dataset", {"name": "DS", "scale": 0.1})
        assert dataset.length is not None and dataset.length > 0
        generator = create_source(
            "generator",
            {"domain": "product", "config": {"n_base_entities": 30}, "max_pairs": 40},
        )
        assert sum(len(chunk) for chunk in generator.iter_chunks(16)) == 40

    def test_blocked_source_from_registry(self):
        from repro.blocking import BlockingPairSource

        blocked = create_source("blocked", {
            "corpus": {
                "kind": "generator", "domain": "song",
                "config": {"n_base_entities": 30}, "n_waves": 1,
            },
            "blockers": [
                {"kind": "inverted", "params": {"attributes": ["title"]}},
            ],
        }, seed=7)
        assert isinstance(blocked, BlockingPairSource)
        assert blocked.labeled is True
        pairs = [pair.pair_id for chunk in blocked.iter_chunks(64) for pair in chunk]
        assert pairs and len(pairs) == len(set(pairs))

    def test_blocked_source_requires_corpus_and_blockers(self):
        with pytest.raises(ConfigurationError, match="corpus"):
            create_source("blocked", {"blockers": [
                {"kind": "inverted", "params": {"attributes": ["title"]}}
            ]})
        with pytest.raises(ConfigurationError, match="blocker"):
            create_source("blocked", {"corpus": {
                "kind": "generator", "domain": "song",
                "config": {"n_base_entities": 30}, "n_waves": 1,
            }})

    def test_sharded_source_from_registry(self):
        sharded = create_source("sharded", {
            "sources": [
                {"kind": "dataset", "params": {"name": "DS", "scale": 0.1}},
                {"kind": "generator",
                 "params": {"domain": "song", "config": {"n_base_entities": 30},
                            "max_pairs": 25}},
            ],
        })
        lengths = [source.length for source in sharded.sources]
        assert sharded.length == sum(lengths)
