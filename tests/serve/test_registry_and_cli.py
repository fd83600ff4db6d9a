"""Tests of the ModelRegistry (versioning, hot-swap, thread-safety) and the CLI."""

from __future__ import annotations

import csv
import json
import threading

import numpy as np
import pytest

from repro.compose import (
    PipelineSpec,
    build_pipeline,
    create_classifier,
    create_source,
    registered_classifiers,
)
from repro.compose.spec import component_spec_for_classifier
from repro.data import split_workload
from repro.data.io import export_workload
from repro.exceptions import ConfigurationError
from repro.serve import ModelRegistry, RiskService, load_pipeline, save_pipeline
from repro.serve.cli import _spec_from_flags, build_parser, main

from fast_spec import LOGISTIC_CHALLENGER, fast_pipeline


def _fit_pipeline(workload, classifier=None, seed=0):
    split = split_workload(workload, ratio=(3, 2, 5), seed=seed)
    pipeline = fast_pipeline(seed, classifier=classifier)
    pipeline.fit(split.train, split.validation)
    return pipeline, split


@pytest.fixture(scope="module")
def two_pipelines(ds_workload):
    first, split = _fit_pipeline(ds_workload, seed=0)
    second, _ = _fit_pipeline(ds_workload, classifier=LOGISTIC_CHALLENGER, seed=0)
    return first, second, split


class TestModelRegistry:
    def test_register_autoincrements_versions(self, two_pipelines):
        first, second, _ = two_pipelines
        registry = ModelRegistry()
        assert registry.register("ds", first) == 1
        assert registry.register("ds", second) == 2
        assert registry.versions("ds") == [1, 2]
        assert registry.active_version("ds") == 2

    def test_get_resolves_active_and_explicit_versions(self, two_pipelines):
        first, second, _ = two_pipelines
        registry = ModelRegistry()
        registry.register("ds", first)
        registry.register("ds", second)
        assert registry.get("ds") is second
        assert registry.get("ds", version=1) is first

    def test_hot_swap_changes_served_scores(self, two_pipelines):
        first, second, split = two_pipelines
        registry = ModelRegistry(max_batch_size=64)
        registry.register("ds", first)
        pairs = split.test.pairs[:20]
        before = registry.service("ds").risk_scores(pairs)

        registry.register("ds", second)  # hot-swap
        after = registry.service("ds").risk_scores(pairs)
        assert not np.array_equal(before, after)
        expected = second.analyse(split.test.subset(range(20))).risk_scores
        np.testing.assert_array_equal(after, expected)
        # Roll back to version 1: scores revert exactly.
        registry.activate("ds", 1)
        np.testing.assert_array_equal(registry.service("ds").risk_scores(pairs), before)

    def test_duplicate_version_rejected(self, two_pipelines):
        first, second, _ = two_pipelines
        registry = ModelRegistry()
        registry.register("ds", first, version=3)
        with pytest.raises(ConfigurationError, match="already has a version 3"):
            registry.register("ds", second, version=3)

    def test_unknown_lookups_raise(self, two_pipelines):
        first, _, _ = two_pipelines
        registry = ModelRegistry()
        with pytest.raises(ConfigurationError, match="unknown model"):
            registry.get("absent")
        registry.register("ds", first)
        with pytest.raises(ConfigurationError, match="no version 9"):
            registry.get("ds", version=9)
        with pytest.raises(ConfigurationError, match="no version 9"):
            registry.activate("ds", 9)

    def test_register_without_activate_keeps_old_active(self, two_pipelines):
        first, second, _ = two_pipelines
        registry = ModelRegistry()
        registry.register("ds", first)
        registry.register("ds", second, activate=False)
        assert registry.active_version("ds") == 1
        assert registry.get("ds") is first

    def test_load_from_disk(self, two_pipelines, tmp_path):
        first, _, split = two_pipelines
        save_pipeline(first, tmp_path / "model")
        registry = ModelRegistry()
        version = registry.load("ds", tmp_path / "model")
        assert version == 1
        pairs = split.test.pairs[:10]
        expected = first.analyse(split.test.subset(range(10))).risk_scores
        np.testing.assert_array_equal(registry.service("ds").risk_scores(pairs), expected)

    def test_the_challenger_refits_from_its_own_spec_json(self, two_pipelines, tmp_path):
        _, second, split = two_pipelines
        saved = save_pipeline(second, tmp_path / "challenger")
        spec = PipelineSpec.from_json((saved / "spec.json").read_text())
        assert spec.to_dict()["classifier"] == LOGISTIC_CHALLENGER
        refit = build_pipeline(spec).fit(split.train, split.validation)
        TestCli._assert_same_files(saved, save_pipeline(refit, tmp_path / "refit"))

    def test_unregister(self, two_pipelines):
        first, second, _ = two_pipelines
        registry = ModelRegistry()
        registry.register("ds", first)
        registry.register("ds", second)
        registry.unregister("ds", 2)
        assert registry.versions("ds") == [1]
        assert registry.active_version("ds") == 1
        registry.unregister("ds")
        with pytest.raises(ConfigurationError):
            registry.versions("ds")

    def test_service_is_memoised_per_version(self, two_pipelines):
        first, second, _ = two_pipelines
        registry = ModelRegistry()
        registry.register("ds", first)
        assert registry.service("ds") is registry.service("ds")
        registry.register("ds", second)
        assert registry.service("ds", version=1) is not registry.service("ds")

    def test_describe(self, two_pipelines):
        first, second, _ = two_pipelines
        registry = ModelRegistry()
        registry.register("a", first)
        registry.register("a", second)
        registry.register("b", first)
        assert registry.describe() == {
            "a": {"versions": [1, 2], "active": 2, "previous": 1},
            "b": {"versions": [1], "active": 1, "previous": None},
        }

    def test_concurrent_register_and_lookup(self, two_pipelines):
        first, _, split = two_pipelines
        registry = ModelRegistry(max_batch_size=32)
        registry.register("ds", first)
        pairs = split.test.pairs[:10]
        errors: list[Exception] = []

        def register_worker() -> None:
            try:
                for _ in range(5):
                    registry.register("ds", first)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        def score_worker() -> None:
            try:
                for _ in range(5):
                    registry.service("ds").risk_scores(pairs)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(exc)

        threads = [threading.Thread(target=register_worker) for _ in range(2)]
        threads += [threading.Thread(target=score_worker) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        assert registry.versions("ds") == list(range(1, 12))


def _flag_spec(*flags: str) -> PipelineSpec:
    return _spec_from_flags(build_parser().parse_args(["fit", "--output", "model", *flags]))


class TestFitFlagSpec:
    """``fit`` without ``--spec`` builds the spec its flags describe."""

    @pytest.mark.parametrize("kind", registered_classifiers())
    def test_epochs_reach_only_the_classifiers_trained_by_epochs(self, kind):
        spec = _flag_spec("--classifier", kind, "--epochs", "7")
        assert spec.classifier.kind == kind
        expected = {"epochs": 7} if kind in ("mlp", "logistic") else {}
        assert spec.classifier.params == expected

    def test_default_flags_train_the_library_default_mlp(self):
        flags, library = (
            component_spec_for_classifier(
                create_classifier(spec.classifier.kind, spec.classifier.params, spec.seed)
            )
            for spec in (_flag_spec(), PipelineSpec())
        )
        assert flags.kind == "mlp"
        assert flags == library

    def test_rule_depth_risk_epochs_metric_and_seed_reach_the_spec(self):
        spec = _flag_spec(
            "--rule-depth", "2", "--risk-epochs", "30", "--risk-metric", "cvar", "--seed", "4"
        )
        assert spec.risk_features.kind == "onesided_tree"
        assert spec.risk_features.params == {"tree": {"max_depth": 2}}
        assert spec.training == {"epochs": 30}
        assert spec.risk_metric == "cvar"
        assert spec.seed == 4
        assert spec.training_config().seed == 4


class TestCli:
    @pytest.fixture(scope="class")
    def csv_workload_dir(self, ds_workload, tmp_path_factory):
        directory = tmp_path_factory.mktemp("csv-workload")
        export_workload(ds_workload, directory)
        return directory, ds_workload

    @pytest.fixture(scope="class")
    def schema_file(self, ds_workload, tmp_path_factory):
        path = tmp_path_factory.mktemp("schema") / "schema.json"
        path.write_text(json.dumps(ds_workload.left_table.schema.to_dict()))
        return path

    @pytest.fixture(scope="class")
    def fitted_model_dir(self, csv_workload_dir, schema_file, tmp_path_factory):
        directory, workload = csv_workload_dir
        model_dir = tmp_path_factory.mktemp("models") / "ds"
        exit_code = main([
            "fit",
            "--data-dir", str(directory),
            "--name", workload.name,
            "--schema", str(schema_file),
            "--classifier", "logistic",
            "--epochs", "60",
            "--risk-epochs", "30",
            "--rule-depth", "2",
            "--output", str(model_dir),
        ])
        assert exit_code == 0
        return model_dir

    def test_fit_writes_model_files(self, fitted_model_dir):
        assert {p.name for p in fitted_model_dir.iterdir()} == {
            "manifest.json", "state.json", "arrays.npz", "spec.json"
        }

    @staticmethod
    def _fit_from_spec(csv_workload_dir, schema_file, spec_path, output):
        directory, workload = csv_workload_dir
        assert main([
            "fit", "--data-dir", str(directory), "--name", workload.name,
            "--schema", str(schema_file), "--spec", str(spec_path), "--output", str(output),
        ]) == 0
        return output

    @staticmethod
    def _assert_same_files(first, second):
        names = sorted(path.name for path in first.iterdir())
        assert names == sorted(path.name for path in second.iterdir())
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name

    def test_flags_and_the_spec_they_describe_save_the_same_model(
        self, fitted_model_dir, csv_workload_dir, schema_file, tmp_path
    ):
        # The spec a user would write for the fixture's flags: both paths run
        # build_pipeline on it, so every saved byte agrees.
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps({
            "classifier": {"kind": "logistic", "params": {"epochs": 60}},
            "risk_features": {"kind": "onesided_tree", "params": {"tree": {"max_depth": 2}}},
            "training": {"epochs": 30},
        }))
        from_spec = self._fit_from_spec(
            csv_workload_dir, schema_file, spec_path, tmp_path / "from-spec"
        )
        self._assert_same_files(fitted_model_dir, from_spec)

    def test_flag_spec_sidecar_refits_the_same_bytes(
        self, fitted_model_dir, csv_workload_dir, schema_file, tmp_path
    ):
        sidecar = PipelineSpec.from_json((fitted_model_dir / "spec.json").read_text())
        assert sidecar.classifier.kind == "logistic"
        assert sidecar.classifier.params == {"epochs": 60}
        assert sidecar.risk_features.params == {"tree": {"max_depth": 2}}
        refit = self._fit_from_spec(
            csv_workload_dir, schema_file, fitted_model_dir / "spec.json", tmp_path / "refit"
        )
        self._assert_same_files(fitted_model_dir, refit)

    def test_score_csv_workload(self, fitted_model_dir, csv_workload_dir, tmp_path, capsys):
        directory, workload = csv_workload_dir
        output = tmp_path / "scores.csv"
        exit_code = main([
            "score",
            "--model", str(fitted_model_dir),
            "--data-dir", str(directory),
            "--name", workload.name,
            "--output", str(output),
        ])
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "pairs/s" in printed and "hit rate" in printed
        assert "risk ranking AUROC" in printed

        with output.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == len(workload)
        assert set(rows[0]) == {
            "left_id", "right_id", "probability", "machine_label", "risk_score"
        }
        assert all(0.0 <= float(row["probability"]) <= 1.0 for row in rows)

    def test_score_output_is_independent_of_chunk_size(
        self, fitted_model_dir, csv_workload_dir, tmp_path, capsys
    ):
        directory, workload = csv_workload_dir
        default_output = tmp_path / "default.csv"
        chunked_output = tmp_path / "chunked.csv"
        base = [
            "score",
            "--model", str(fitted_model_dir),
            "--data-dir", str(directory),
            "--name", workload.name,
        ]
        assert main(base + ["--output", str(default_output)]) == 0
        assert "streamed, chunk size 256" in capsys.readouterr().out  # --batch-size
        assert main(base + ["--output", str(chunked_output), "--chunk-size", "64"]) == 0
        assert "streamed, chunk size 64" in capsys.readouterr().out
        # Same rows, same float reprs, in the same order at any chunk size.
        assert chunked_output.read_text() == default_output.read_text()

    def test_score_streaming_explicit_input_file(
        self, fitted_model_dir, csv_workload_dir, tmp_path, capsys
    ):
        directory, workload = csv_workload_dir
        output = tmp_path / "matches-only.csv"
        exit_code = main([
            "score",
            "--model", str(fitted_model_dir),
            "--data-dir", str(directory),
            "--name", workload.name,
            "--input", str(directory / f"{workload.name}_matches.csv"),
            "--chunk-size", "32",
            "--output", str(output),
        ])
        assert exit_code == 0
        with output.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == workload.num_matches

    def test_score_input_without_chunk_size(
        self, fitted_model_dir, csv_workload_dir, tmp_path, capsys
    ):
        directory, workload = csv_workload_dir
        output = tmp_path / "matches-default-chunk.csv"
        exit_code = main([
            "score", "--model", str(fitted_model_dir),
            "--data-dir", str(directory), "--name", workload.name,
            "--input", str(directory / f"{workload.name}_matches.csv"),
            "--output", str(output),
        ])
        assert exit_code == 0
        assert "streamed, chunk size 256" in capsys.readouterr().out
        with output.open() as handle:
            rows = list(csv.DictReader(handle))
        assert len(rows) == workload.num_matches

    def test_input_requires_data_dir(self, fitted_model_dir, csv_workload_dir):
        directory, workload = csv_workload_dir
        with pytest.raises(SystemExit, match="--input requires --data-dir"):
            main([
                "score", "--model", str(fitted_model_dir),
                "--dataset", "DS", "--scale", "0.1",
                "--input", str(directory / f"{workload.name}_pairs.csv"),
            ])

    def test_score_streaming_dataset_backend(self, fitted_model_dir, capsys):
        exit_code = main([
            "score", "--model", str(fitted_model_dir),
            "--dataset", "DS", "--scale", "0.1", "--chunk-size", "100",
        ])
        assert exit_code == 0
        assert "streamed, chunk size 100" in capsys.readouterr().out

    def test_dataset_wins_over_data_dir(
        self, fitted_model_dir, csv_workload_dir, capsys
    ):
        # With both --dataset and --data-dir, score reads the built-in
        # dataset (the order fit and explain use too), at any chunk size.
        directory, workload = csv_workload_dir
        exit_code = main([
            "score", "--model", str(fitted_model_dir),
            "--dataset", "DS", "--scale", "0.1",
            "--data-dir", str(directory), "--name", workload.name,
            "--chunk-size", "100",
        ])
        assert exit_code == 0
        printed = capsys.readouterr().out
        # The generated DS workload at scale 0.1 is far smaller than the
        # exported CSV corpus; count proves the dataset backend won.
        import re

        scored = int(re.search(r"scored (\d+) pairs", printed).group(1))
        assert scored < len(workload)

    def test_score_blocked_source(
        self, fitted_model_dir, csv_workload_dir, schema_file, tmp_path, capsys
    ):
        # --source with a "blocked" backend: raw tables are blocked on the
        # fly and the candidates streamed straight into scoring — no
        # pre-blocked pair CSV is ever read.
        directory, workload = csv_workload_dir
        source_file = tmp_path / "source.json"
        source_file.write_text(json.dumps({
            "kind": "blocked",
            "params": {
                "corpus": {
                    "kind": "csv",
                    "directory": str(directory),
                    "name": workload.name,
                    "schema": str(schema_file),
                },
                "blockers": [{
                    "kind": "inverted",
                    "params": {"attributes": ["title"], "max_token_frequency": 0.3},
                }],
            },
        }))
        output = tmp_path / "blocked-scored.csv"
        exit_code = main([
            "score", "--model", str(fitted_model_dir),
            "--source", str(source_file),
            "--chunk-size", "64",
            "--output", str(output),
        ])
        assert exit_code == 0
        assert "streamed, chunk size 64" in capsys.readouterr().out
        with output.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        assert set(rows[0]) == {
            "left_id", "right_id", "probability", "machine_label", "risk_score"
        }
        # The streamed CSV carries exactly the scores of the same blocked
        # source materialised and scored in one eager call.
        source = create_source("blocked", json.loads(source_file.read_text())["params"], 0)
        eager = RiskService(load_pipeline(fitted_model_dir)).score_pairs(
            source.materialize().pairs
        )
        assert [float(row["risk_score"]) for row in rows] == [one.risk_score for one in eager]

    def test_score_source_without_chunk_size(self, fitted_model_dir, tmp_path, capsys):
        source_file = tmp_path / "source.json"
        source_file.write_text(json.dumps(
            {"kind": "dataset", "params": {"name": "DS", "scale": 0.1}}
        ))
        output = tmp_path / "source-scored.csv"
        exit_code = main([
            "score", "--model", str(fitted_model_dir),
            "--source", str(source_file),
            "--output", str(output),
        ])
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "streamed, chunk size 256" in printed
        with output.open() as handle:
            rows = list(csv.DictReader(handle))
        assert rows
        assert f"scored {len(rows)} pairs" in printed

    def test_inspect(self, fitted_model_dir, capsys):
        exit_code = main(["inspect", "--model", str(fitted_model_dir), "--rules", "2"])
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "learn_risk_pipeline" in printed
        assert "LogisticRegressionClassifier" in printed

    def test_inspect_reads_the_saved_spec(self, fitted_model_dir, capsys):
        assert main(["inspect", "--model", str(fitted_model_dir)]) == 0
        printed = capsys.readouterr().out
        assert "risk metric: var" in printed
        assert "decision threshold: 0.5" in printed
        assert "spec: classifier='logistic'" in printed

    def test_missing_model_fails_cleanly(self, tmp_path, capsys):
        exit_code = main(["score", "--model", str(tmp_path / "absent"), "--dataset", "DS"])
        assert exit_code == 1
        assert "error:" in capsys.readouterr().err


class TestBlockCli:
    """The ``block`` subcommand: raw tables in, streamed candidate CSV out."""

    def _read_pairs(self, path):
        with path.open() as handle:
            rows = list(csv.reader(handle))
        assert rows[0] == ["left_id", "right_id"]
        return [tuple(row) for row in rows[1:]]

    def test_block_generated_corpus(self, tmp_path, capsys):
        output = tmp_path / "candidates.csv"
        metrics = tmp_path / "metrics.json"
        exit_code = main([
            "block", "--domain", "bibliographic", "--entities", "60", "--waves", "2",
            "--blocker", "inverted", "--attributes", "title,authors",
            "--output", str(output), "--seed", "3", "--metrics-out", str(metrics),
        ])
        assert exit_code == 0
        printed = capsys.readouterr().out
        assert "recall" in printed

        from repro.blocking import GeneratedCorpus, InvertedIndexBlocker
        from repro.data.generators import GenerationConfig

        corpus = GeneratedCorpus(
            "bibliographic", GenerationConfig(n_base_entities=60), n_waves=2, seed=3
        )
        blocker = InvertedIndexBlocker(["title", "authors"])
        expected = [
            pair for wave in corpus.waves() for pair in blocker.iter_wave_candidates(wave)
        ]
        assert self._read_pairs(output) == expected

        snapshot = json.loads(metrics.read_text())
        counters = snapshot["counters"]
        assert counters["blocking.waves"] == 2
        assert counters["blocking.candidates_emitted"] == len(expected)
        assert "blocking_index_build" in snapshot["spans"]

    def test_block_csv_corpus_sorted_window(self, ds_workload, tmp_path):
        directory = tmp_path / "corpus"
        export_workload(ds_workload, directory)
        schema_file = tmp_path / "schema.json"
        schema_file.write_text(json.dumps(ds_workload.left_table.schema.to_dict()))
        output = tmp_path / "candidates.csv"
        exit_code = main([
            "block", "--data-dir", str(directory), "--name", ds_workload.name,
            "--schema", str(schema_file),
            "--blocker", "sorted_window", "--key-attribute", "title", "--window", "3",
            "--output", str(output),
        ])
        assert exit_code == 0

        from repro.blocking import SortedWindowBlocker

        expected = SortedWindowBlocker("title", window=3).block(
            ds_workload.left_table, ds_workload.right_table
        )
        assert sorted(self._read_pairs(output)) == expected

    def test_block_inverted_requires_attributes(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "block", "--domain", "product", "--blocker", "inverted",
                "--output", str(tmp_path / "out.csv"),
            ])

    def test_block_sorted_window_requires_key(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "block", "--domain", "product", "--blocker", "sorted_window",
                "--output", str(tmp_path / "out.csv"),
            ])

    def test_fit_from_spec_blocked_source(self, tmp_path):
        # A spec whose source is a "blocked" backend trains end-to-end with no
        # pre-blocked pair list anywhere on disk.
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps({
            "classifier": {"kind": "logistic", "params": {"epochs": 40}},
            "training": {"epochs": 20},
            "source": {
                "kind": "blocked",
                "params": {
                    "corpus": {
                        "kind": "generator",
                        "domain": "bibliographic",
                        "config": {"n_base_entities": 80},
                        "n_waves": 1,
                        "name": "blocked-fit",
                    },
                    "blockers": [{
                        "kind": "inverted",
                        "params": {"attributes": ["title", "authors"], "min_shared": 2},
                    }],
                },
            },
            "seed": 1,
        }))
        model_dir = tmp_path / "model"
        exit_code = main([
            "fit", "--spec", str(spec_file), "--output", str(model_dir),
        ])
        assert exit_code == 0
        assert (model_dir / "manifest.json").exists()
