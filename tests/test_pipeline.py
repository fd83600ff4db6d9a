"""End-to-end tests of a spec-built pipeline on workloads, and of the public API."""

from __future__ import annotations

import numpy as np
import pytest

import repro
from repro.compose import build_pipeline
from repro.data import split_workload
from repro.exceptions import NotFittedError
from repro.risk import RuleContribution


@pytest.fixture(scope="module")
def fitted_pipeline(ds_workload):
    split = split_workload(ds_workload, ratio=(3, 2, 5), seed=0)
    pipeline = build_pipeline({
        "classifier": {"kind": "mlp", "params": {"hidden_sizes": [16], "epochs": 20}},
        "risk_features": {
            "kind": "onesided_tree",
            "params": {"tree": {"max_depth": 2, "min_support": 4, "max_thresholds": 24}},
        },
        "training": {"epochs": 50},
    })
    pipeline.fit(split.train, split.validation)
    return pipeline, split


class TestFittedPipeline:
    def test_unfitted_usage_raises(self, ds_workload):
        pipeline = build_pipeline()
        with pytest.raises(NotFittedError):
            pipeline.analyse(ds_workload)
        with pytest.raises(NotFittedError):
            pipeline.label(ds_workload)

    def test_label_returns_probabilities_and_labels(self, fitted_pipeline):
        pipeline, split = fitted_pipeline
        probabilities, labels = pipeline.label(split.test)
        assert probabilities.shape == labels.shape == (len(split.test),)
        assert set(np.unique(labels)) <= {0, 1}
        assert np.all((probabilities >= 0.0) & (probabilities <= 1.0))

    def test_analyse_report(self, fitted_pipeline):
        pipeline, split = fitted_pipeline
        report = pipeline.analyse(split.test, explain_top=3)
        assert len(report.risk_scores) == len(split.test)
        assert sorted(report.ranking.tolist()) == list(range(len(split.test)))
        assert len(report.explanations) <= 3
        top = report.top_risky(5)
        assert len(top) == 5
        scores = [score for _, score in top]
        assert scores == sorted(scores, reverse=True)

    def test_report_auroc_when_ground_truth_available(self, fitted_pipeline):
        pipeline, split = fitted_pipeline
        report = pipeline.analyse(split.test)
        if report.auroc is not None:
            assert 0.5 <= report.auroc <= 1.0

    def test_risk_ranking_finds_mislabeled_pairs_early(self, fitted_pipeline):
        """Inspecting the top-ranked pairs should recover a disproportionate share
        of the classifier's mistakes — the operational point of risk analysis."""
        pipeline, split = fitted_pipeline
        report = pipeline.analyse(split.test)
        ground_truth = split.test.labels()
        mislabeled = (report.machine_labels != ground_truth).astype(int)
        if mislabeled.sum() == 0:
            pytest.skip("classifier made no mistakes on this split")
        budget = max(10, int(0.2 * len(split.test)))
        top = report.ranking[:budget]
        recall = mislabeled[top].sum() / mislabeled.sum()
        assert recall >= 0.5

    def test_explain_pair(self, fitted_pipeline):
        pipeline, split = fitted_pipeline
        explanations = pipeline.explain_pair(split.test.pairs[0], top_k=4)
        assert 1 <= len(explanations) <= 4
        assert all(hasattr(e, "description") for e in explanations)

    def test_report_explanations_come_from_explain_pairs(self, fitted_pipeline):
        # Reports, explain_pair and explain_pairs share one explanation type
        # and one code path, so the same pair explains identically in each.
        pipeline, split = fitted_pipeline
        report = pipeline.analyse(split.test, explain_top=3)
        assert sorted(report.explanations) == sorted(report.ranking[:3].tolist())
        for index, fired in report.explanations.items():
            pair = split.test.pairs[index]
            assert fired
            assert all(isinstance(rule, RuleContribution) for rule in fired)
            assert fired == pipeline.explain_pairs([pair])[0].fired_rules
            assert pipeline.explain_pair(pair, top_k=2) == fired[:2]


class TestPublicApi:
    def test_version_and_exports(self):
        assert repro.__version__
        for name in ("StagedPipeline", "build_pipeline", "LearnRiskModel",
                     "RiskFeatureGenerator", "load_dataset", "split_workload", "auroc_score"):
            assert hasattr(repro, name)

    def test_quickstart_flow(self, ds_workload):
        """The README quick-start must work as written (with a smaller workload)."""
        split = repro.split_workload(ds_workload, ratio=(3, 2, 5), seed=0)
        pipeline = repro.build_pipeline({
            "classifier": {"kind": "mlp", "params": {"hidden_sizes": [8], "epochs": 10}},
            "risk_features": {
                "kind": "onesided_tree",
                "params": {"tree": {"max_depth": 2, "min_support": 4, "max_thresholds": 16}},
            },
            "training": {"epochs": 20},
        })
        pipeline.fit(split.train, split.validation)
        report = pipeline.analyse(split.test, explain_top=2)
        assert report.top_risky(1)
