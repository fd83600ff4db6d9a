"""Tests for the staged pipeline core: stage protocol, incremental refit and
streaming batch analysis."""

from __future__ import annotations

import numpy as np
import pytest

from repro.compose import PipelineSpec, build_pipeline
from repro.data import split_workload
from repro.exceptions import ConfigurationError, NotFittedError

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
def staged_fitted(ds_split):
    pipeline = build_pipeline(PipelineSpec.from_dict(SPEC_VALUES))
    pipeline.fit_vectorizer(ds_split.train)
    pipeline.fit_classifier(ds_split.train)
    pipeline.generate_risk_features(ds_split.train)
    pipeline.fit_risk_model(ds_split.validation)
    return pipeline


class TestStagedProtocol:
    def test_stage_order_enforced(self, ds_split):
        pipeline = build_pipeline(PipelineSpec.from_dict(SPEC_VALUES))
        with pytest.raises(NotFittedError, match="fit_vectorizer"):
            pipeline.fit_classifier(ds_split.train)
        with pytest.raises(NotFittedError, match="fit_vectorizer"):
            pipeline.generate_risk_features(ds_split.train)
        pipeline.fit_vectorizer(ds_split.train)
        with pytest.raises(NotFittedError, match="generate_risk_features"):
            pipeline.fit_risk_model(ds_split.validation)
        with pytest.raises(NotFittedError):
            pipeline.analyse(ds_split.test)

    def test_risk_model_needs_the_classifier(self, ds_split):
        pipeline = build_pipeline(PipelineSpec.from_dict(SPEC_VALUES))
        pipeline.fit_vectorizer(ds_split.train).generate_risk_features(ds_split.train)
        with pytest.raises(NotFittedError, match="fit_classifier"):
            pipeline.fit_risk_model(ds_split.validation)

    def test_a_misspelt_classifier_param_fails_at_fit_classifier(self, ds_split):
        spec = {**SPEC_VALUES, "classifier": {"kind": "logistic", "params": {"epoch": 5}}}
        pipeline = build_pipeline(PipelineSpec.from_dict(spec)).fit_vectorizer(ds_split.train)
        with pytest.raises(ConfigurationError, match="classifier 'logistic'"):
            pipeline.fit_classifier(ds_split.train)
        assert pipeline.classifier is None

    def test_a_bad_tree_param_fails_at_construction(self):
        spec = {**SPEC_VALUES, "risk_features": {
            "kind": "onesided_tree", "params": {"tree": {"depth": 2}},
        }}
        with pytest.raises(ConfigurationError, match="unknown one-sided tree parameters"):
            build_pipeline(PipelineSpec.from_dict(spec))

    def test_monolithic_fit_equals_staged_fit(self, ds_split, staged_fitted):
        pipeline = build_pipeline(PipelineSpec.from_dict(SPEC_VALUES))
        pipeline.fit(ds_split.train, ds_split.validation)
        np.testing.assert_array_equal(
            pipeline.analyse(ds_split.test).risk_scores,
            staged_fitted.analyse(ds_split.test).risk_scores,
        )

class TestIncrementalRefit:
    def test_refit_keeps_classifier_and_features(self, ds_split, staged_fitted):
        pipeline = build_pipeline(PipelineSpec.from_dict(SPEC_VALUES))
        pipeline.fit(ds_split.train, ds_split.validation)
        classifier = pipeline.classifier
        vectorizer = pipeline.vectorizer
        features = pipeline.risk_features
        old_model = pipeline.risk_model

        pipeline.refit_risk_model(ds_split.test)

        assert pipeline.classifier is classifier
        assert pipeline.vectorizer is vectorizer
        assert pipeline.risk_features is features
        assert pipeline.risk_model is not old_model
        # The new risk model really trained on the new validation data.
        assert pipeline.risk_model.training_result is not None
        assert (
            pipeline.risk_model.training_result.n_rank_pairs
            != old_model.training_result.n_rank_pairs
        )
        assert pipeline.is_fitted

    def test_refit_requires_prior_stages(self, ds_split):
        pipeline = build_pipeline(PipelineSpec.from_dict(SPEC_VALUES))
        with pytest.raises(NotFittedError, match="refit_risk_model requires"):
            pipeline.refit_risk_model(ds_split.validation)


class TestAnalyseBatches:
    def test_batches_cover_the_workload(self, ds_split, staged_fitted):
        full = staged_fitted.analyse(ds_split.test)
        reports = list(staged_fitted.analyse_batches(ds_split.test, batch_size=64))
        sizes = [len(report.pairs) for report in reports]
        assert sum(sizes) == len(ds_split.test)
        assert all(size <= 64 for size in sizes)
        assert sizes[:-1] == [64] * (len(sizes) - 1)
        streamed = np.concatenate([report.risk_scores for report in reports])
        # Batched classifier forward passes may differ by float rounding
        # (BLAS blocking depends on the batch shape), never more.
        np.testing.assert_allclose(streamed, full.risk_scores, rtol=0, atol=1e-12)

    def test_batches_are_streamed(self, ds_split, staged_fitted):
        iterator = staged_fitted.analyse_batches(ds_split.test, batch_size=10)
        first = next(iterator)
        assert len(first.pairs) == 10
        assert first.ranking.tolist() == sorted(
            range(10), key=lambda i: (-first.risk_scores[i], i)
        )

    def test_batch_size_validated(self, ds_split, staged_fitted):
        with pytest.raises(ConfigurationError):
            list(staged_fitted.analyse_batches(ds_split.test, batch_size=0))

    def test_batch_reports_carry_auroc_when_possible(self, ds_split, staged_fitted):
        reports = list(staged_fitted.analyse_batches(ds_split.test, batch_size=10_000))
        assert len(reports) == 1
        full = staged_fitted.analyse(ds_split.test)
        assert reports[0].auroc == full.auroc


class TestDecisionThreshold:
    def test_threshold_is_a_spec_field(self, ds_split):
        spec = dict(SPEC_VALUES)
        spec["decision_threshold"] = 0.9
        strict = build_pipeline(PipelineSpec.from_dict(spec))
        strict.fit(ds_split.train, ds_split.validation)
        assert strict.decision_threshold == 0.9
        probabilities, labels = strict.label(ds_split.test)
        np.testing.assert_array_equal(labels, (probabilities >= 0.9).astype(int))

    def test_label_and_analyse_agree_on_labels(self, ds_split, staged_fitted):
        _, labels = staged_fitted.label(ds_split.test)
        report = staged_fitted.analyse(ds_split.test)
        np.testing.assert_array_equal(labels, report.machine_labels)
