"""Integration tests for the experiment harness (Figures 9–13 protocols)."""

from __future__ import annotations

from dataclasses import asdict

import numpy as np
import pytest

from repro.baselines import AmbiguityBaseline, LearnRiskScorer
from repro.classifiers import ColumnSubsetClassifier, LogisticRegressionClassifier
from repro.compose import PipelineSpec, build_pipeline
from repro.data import load_dataset, split_workload
from repro.data.workload import Workload
from repro.evaluation.experiment import (
    evaluate_scorers,
    harmonise_for_ood,
    prepare_experiment,
    run_holoclean_comparison,
    run_ood_experiment,
    run_scalability_experiment,
    run_sensitivity_experiment,
)
from repro.evaluation.reporting import format_auroc_map, format_series, format_table
from repro.exceptions import DataError
from repro.risk.onesided_tree import OneSidedTreeConfig
from repro.risk.training import TrainingConfig

FAST_TREE = OneSidedTreeConfig(max_depth=2, min_support=4, max_thresholds=24)
FAST_SCORERS = [AmbiguityBaseline(), LearnRiskScorer(training_config=TrainingConfig(epochs=40))]


class TestPreparedExperiment:
    def test_splits_are_labeled(self, prepared_ds):
        for part in (prepared_ds.train, prepared_ds.validation, prepared_ds.test):
            assert part.probabilities is not None
            assert part.machine_labels is not None
            assert len(part.probabilities) == len(part.workload)

    def test_classifier_quality_reported(self, prepared_ds):
        assert 0.0 <= prepared_ds.classifier_f1 <= 1.0

    def test_context_carries_risk_features(self, prepared_ds):
        context = prepared_ds.context()
        assert context.risk_features is prepared_ds.risk_features
        assert context.validation_features.shape[0] == len(prepared_ds.validation.workload)

    def test_machine_labels_apply_the_decision_threshold(self, prepared_ds):
        for part in (prepared_ds.train, prepared_ds.validation, prepared_ds.test):
            np.testing.assert_array_equal(
                part.machine_labels, (part.probabilities >= 0.5).astype(int)
            )

    @pytest.mark.parametrize("classifier", [
        {"kind": "logistic", "params": {"epochs": 40}},
        None,
    ], ids=["full-view", "default-similarity-view"])
    def test_harness_fits_what_build_pipeline_fits(self, ds_workload, classifier):
        # The harness adds nothing of its own: its classifier outputs and
        # rules are a served pipeline's first three stages, bit for bit, and
        # its default classifier is the spec's "similarity_view".
        if classifier is None:
            prepared = prepare_experiment(ds_workload, tree_config=FAST_TREE, seed=1)
            classifier = {"kind": "similarity_view"}
        else:
            prepared = prepare_experiment(
                ds_workload, classifier=classifier, tree_config=FAST_TREE, seed=1
            )
        pipeline = build_pipeline(PipelineSpec(
            classifier=classifier,
            risk_features={"kind": "onesided_tree", "params": {"tree": asdict(FAST_TREE)}},
            seed=1,
        ))
        train = split_workload(ds_workload, ratio=(3, 2, 5), seed=1).train
        pipeline.fit_vectorizer(train).fit_classifier(train).generate_risk_features(train)
        for part in (prepared.train, prepared.validation, prepared.test):
            probabilities, labels = pipeline.classify_matrix(
                pipeline.vectorizer.transform(part.workload.pairs)
            )
            np.testing.assert_array_equal(part.probabilities, probabilities)
            np.testing.assert_array_equal(part.machine_labels, labels)
        assert [rule.to_dict() for rule in prepared.risk_features.rules] == [
            rule.to_dict() for rule in pipeline.risk_features.rules
        ]

    def test_a_plain_classifier_spec_sees_every_metric(self, ds_workload):
        full, view = (
            prepare_experiment(
                ds_workload, classifier=classifier, tree_config=FAST_TREE, seed=2
            )
            for classifier in (
                "logistic", {"kind": "similarity_view", "params": {"base": "logistic"}}
            )
        )
        assert type(full.classifier) is LogisticRegressionClassifier
        assert type(view.classifier) is ColumnSubsetClassifier
        assert type(view.classifier.base) is LogisticRegressionClassifier
        assert 0 < len(view.classifier.column_indices) < full.vectorizer.n_features
        assert not np.array_equal(full.test.probabilities, view.test.probabilities)

    def test_a_training_workload_without_tables_is_rejected(self, ds_workload):
        bare = Workload("bare", ds_workload.pairs)
        with pytest.raises(DataError, match="source tables"):
            prepare_experiment(bare, tree_config=FAST_TREE)


class TestEvaluateScorers:
    def test_comparative_result_structure(self, prepared_ds):
        result = evaluate_scorers(prepared_ds, scorers=FAST_SCORERS, compute_curves=True)
        assert set(result.methods) == {"Baseline", "LearnRisk"}
        for method in result.methods.values():
            assert 0.0 <= method.auroc <= 1.0
            assert method.curve is not None
            assert len(method.scores) == len(prepared_ds.test.workload)
        assert result.best_method() in result.methods
        table = result.auroc_table()
        assert set(table) == set(result.methods)

    def test_learnrisk_beats_or_matches_ambiguity(self, prepared_ds):
        result = evaluate_scorers(prepared_ds, scorers=FAST_SCORERS, compute_curves=False)
        assert result.methods["LearnRisk"].auroc >= result.methods["Baseline"].auroc - 0.05


class TestOodHarness:
    def test_harmonise_same_schema(self):
        ds = load_dataset("DS", scale=0.1)
        da = load_dataset("DA", scale=0.1)
        source, target, schema = harmonise_for_ood(da, ds)
        assert set(schema.names) == {"title", "authors", "venue", "year"}
        assert len(source) == len(da) and len(target) == len(ds)

    def test_harmonise_with_rename(self):
        ab = load_dataset("AB", scale=0.1)
        ag = load_dataset("AG", scale=0.1)
        source, target, schema = harmonise_for_ood(ab, ag, rename_source={"name": "title"})
        assert "title" in schema.names
        assert "description" in schema.names
        # The projected source (AB) must expose the renamed attribute.
        assert source.pairs[0].left["title"] is not None or source.pairs[0].left.is_missing("title")

    def test_ood_experiment_runs(self):
        result = run_ood_experiment(
            "DA", "DS", scale=0.15, scorers=FAST_SCORERS, tree_config=FAST_TREE,
            classifier={"kind": "similarity_view", "params": {
                "base": {"kind": "mlp", "params": {"hidden_sizes": [16], "epochs": 15}},
            }},
            seed=3,
        )
        assert result.dataset == "DA2DS"
        assert set(result.methods) == {"Baseline", "LearnRisk"}


class TestStudyHarnesses:
    def test_holoclean_comparison(self, ds_workload, fast_tree_config):
        aurocs = run_holoclean_comparison(
            ds_workload, subset_size=200, n_subsets=2, seed=1, tree_config=fast_tree_config,
        )
        assert set(aurocs) == {"LearnRisk", "HoloClean"}
        for value in aurocs.values():
            assert np.isnan(value) or 0.0 <= value <= 1.0

    def test_sensitivity_experiment(self, ds_workload, fast_tree_config):
        results = run_sensitivity_experiment(
            ds_workload, risk_training_sizes=[50, 100], selection="active",
            seed=1, tree_config=fast_tree_config,
            training_config=TrainingConfig(epochs=30),
        )
        assert set(results) == {50, 100}
        assert all(0.0 <= value <= 1.0 for value in results.values())

    def test_sensitivity_invalid_selection(self, ds_workload):
        with pytest.raises(Exception):
            run_sensitivity_experiment(ds_workload, [10], selection="bogus")

    def test_scalability_experiment(self, ds_workload, fast_tree_config):
        results = run_scalability_experiment(
            ds_workload, training_sizes=[80, 160], risk_training_sizes=[60],
            seed=1, tree_config=fast_tree_config, training_config=TrainingConfig(epochs=20),
        )
        assert set(results) == {"rule_generation", "risk_training"}
        assert all(value > 0 for value in results["rule_generation"].values())
        assert all(value > 0 for value in results["risk_training"].values())


class TestReporting:
    def test_format_table(self):
        text = format_table(["a", "b"], [["x", 1.23456], ["y", 2.0]])
        assert "a" in text and "1.235" in text

    def test_format_auroc_map_and_series(self):
        assert "0.900" in format_auroc_map("title", {"LearnRisk": 0.9})
        assert "parameter" in format_series("sweep", {1: 0.5, 2: 0.6})
