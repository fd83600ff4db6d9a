"""Instrumentation is read-only: obs on/off parity, spans, explain payloads."""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.workload import Workload
from repro.obs import MetricsRegistry, use_recorder
from repro.parallel import ExecutionConfig
from repro.serve import RiskService

#: Every stage span the scoring path must separate (the ROADMAP cost split).
SCORING_STAGES = ("vectorize", "classify", "rule_kernel", "aggregate", "risk_score")


class TestScoringParity:
    def test_scores_are_bit_identical_with_observability_on(
        self, obs_pipeline, scoring_pairs
    ):
        baseline = obs_pipeline.score_chunk(scoring_pairs)  # null recorder
        registry = MetricsRegistry()
        with use_recorder(registry):
            observed = obs_pipeline.score_chunk(scoring_pairs)
        assert observed == baseline  # bitwise, via ChunkScores.__eq__
        assert np.array_equal(observed.risk_scores, baseline.risk_scores)

    def test_scoring_records_every_stage_span(self, obs_pipeline, scoring_pairs):
        registry = MetricsRegistry()
        with use_recorder(registry):
            obs_pipeline.score_chunk(scoring_pairs)
        totals = registry.span_totals()
        for stage in SCORING_STAGES:
            assert stage in totals, f"missing span {stage!r}"
            assert totals[stage] >= 0.0
        assert "score_chunk" in totals
        # The nested paths carry the structure: vectorize ran *inside* the chunk.
        assert registry.span_seconds("score_chunk.vectorize") > 0.0
        assert registry.counter_value("pipeline.chunks_scored") == 1
        assert registry.counter_value("pipeline.pairs_scored") == len(scoring_pairs)

    def test_fit_records_stage_spans(self, obs_split, obs_spec_values):
        from repro.compose import PipelineSpec, build_pipeline

        registry = MetricsRegistry()
        with use_recorder(registry):
            pipeline = build_pipeline(PipelineSpec.from_dict(obs_spec_values))
            pipeline.fit(obs_split.train, obs_split.validation)
        totals = registry.span_totals()
        for stage in (
            "fit_vectorizer", "fit_classifier",
            "generate_risk_features", "fit_risk_model",
        ):
            assert stage in totals, f"missing fit span {stage!r}"

    def test_parallel_scoring_parity_and_merge_telemetry(
        self, obs_pipeline, obs_split
    ):
        pairs = obs_split.test.pairs[:60]
        workload = Workload(
            "obs-parallel", pairs, obs_split.test.left_table, obs_split.test.right_table
        )
        serial = np.concatenate([
            report.risk_scores
            for report in obs_pipeline.analyse_batches(workload, batch_size=16)
        ])
        registry = MetricsRegistry()
        with use_recorder(registry):
            parallel = np.concatenate([
                report.risk_scores
                for report in obs_pipeline.analyse_batches(
                    workload, batch_size=16,
                    execution=ExecutionConfig(workers=2, backend="thread"),
                )
            ])
        assert np.array_equal(parallel, serial)
        assert registry.counter_value("parallel.chunks") == 4
        assert registry.counter_value("parallel.pairs") == len(pairs)
        assert registry.histogram("parallel.worker_chunk_seconds").count == 4
        assert registry.histogram("parallel.queue_depth").count == 4
        # The thread backend stamps thread names; at least one per-worker
        # histogram must exist and their chunk counts must sum to the total.
        per_worker = [
            stats for name, stats in registry.snapshot()["histograms"].items()
            if name.startswith("parallel.worker.") and name.endswith(".chunk_seconds")
        ]
        assert per_worker
        assert sum(stats["count"] for stats in per_worker) == 4


class TestExplainPayloads:
    def test_fired_rules_match_kernel_membership(self, obs_pipeline, scoring_pairs):
        matrix = obs_pipeline.vectorizer.transform(scoring_pairs)
        probabilities, _ = obs_pipeline.classify_matrix(matrix)
        membership = obs_pipeline.risk_model.features.rule_matrix(matrix)
        explanations = obs_pipeline.explain_pairs(scoring_pairs)
        assert len(explanations) == len(scoring_pairs)
        for row, explanation in enumerate(explanations):
            fired_indices = sorted(
                rule.rule_index for rule in explanation.fired_rules
                if not rule.is_classifier_output
            )
            assert fired_indices == sorted(np.flatnonzero(membership[row]).tolist())
            # Exactly one classifier-output feature, carrying the probability.
            classifier_rules = [
                rule for rule in explanation.fired_rules if rule.is_classifier_output
            ]
            assert len(classifier_rules) == 1
            assert classifier_rules[0].expectation == pytest.approx(
                float(probabilities[row])
            )

    def test_weight_shares_sum_to_one_and_rank_descending(
        self, obs_pipeline, scoring_pairs
    ):
        for explanation in obs_pipeline.explain_pairs(scoring_pairs):
            shares = [rule.weight_share for rule in explanation.fired_rules]
            assert sum(shares) == pytest.approx(1.0)
            assert shares == sorted(shares, reverse=True)

    def test_scores_match_the_scoring_path(self, obs_pipeline, scoring_pairs):
        scores = obs_pipeline.score_chunk(scoring_pairs)
        explanations = obs_pipeline.explain_pairs(scoring_pairs)
        for row, explanation in enumerate(explanations):
            assert explanation.risk_score == float(scores.risk_scores[row])
            assert explanation.machine_probability == float(scores.probabilities[row])
            assert explanation.machine_label == int(scores.machine_labels[row])
            assert (
                explanation.interval_low
                <= explanation.equivalence_mean
                <= explanation.interval_high
            )

    def test_top_rules_truncates_per_pair(self, obs_pipeline, scoring_pairs):
        full = obs_pipeline.explain_pairs(scoring_pairs)
        truncated = obs_pipeline.explain_pairs(scoring_pairs, top_rules=2)
        for full_explanation, cut_explanation in zip(full, truncated):
            assert len(cut_explanation.fired_rules) <= 2
            assert (
                cut_explanation.fired_rules
                == full_explanation.fired_rules[: len(cut_explanation.fired_rules)]
            )

    def test_only_kept_rules_are_described(self, obs_pipeline, scoring_pairs, monkeypatch):
        from repro.risk import RiskRule

        described = []
        describe = RiskRule.describe

        def counting_describe(rule):
            described.append(rule)
            return describe(rule)

        monkeypatch.setattr(RiskRule, "describe", counting_describe)
        explanations = obs_pipeline.explain_pairs(scoring_pairs, top_rules=2)
        kept = [
            rule for explanation in explanations for rule in explanation.fired_rules
            if not rule.is_classifier_output
        ]
        assert kept
        assert len(described) == len(kept) <= 2 * len(scoring_pairs)

    def test_to_dict_round_trips_through_json(self, obs_pipeline, scoring_pairs):
        import json

        payload = [e.to_dict() for e in obs_pipeline.explain_pairs(scoring_pairs[:3])]
        decoded = json.loads(json.dumps(payload))
        assert decoded == payload
        assert {"machine_probability", "risk_score", "fired_rules"} <= set(decoded[0])


class TestServiceAccounting:
    def test_parallel_pass_does_not_dilute_cache_hit_rate(
        self, obs_pipeline, obs_split
    ):
        from repro.data.sources import InMemorySource

        pairs = obs_split.test.pairs[:30]
        workload = Workload(
            "obs-service", pairs, obs_split.test.left_table, obs_split.test.right_table
        )
        service = RiskService(obs_pipeline, max_batch_size=10, cache_size=64)
        # Two serial passes: the second is all cache hits.
        service.score_workload(workload)
        service.score_workload(workload)
        rate_before = service.stats.cache_hit_rate
        assert rate_before == pytest.approx(0.5)
        # A parallel pass never consults the cache — it must land in
        # cache_bypassed, leaving the hit rate over real lookups untouched.
        list(service.score_source(
            InMemorySource(workload, name="obs-service"), chunk_size=10,
            execution=ExecutionConfig(workers=2, backend="thread"),
        ))
        assert service.stats.cache_bypassed == len(pairs)
        assert service.stats.cache_hit_rate == pytest.approx(rate_before)

    def test_service_metrics_registry_carries_counters_and_latency(
        self, obs_pipeline, obs_split
    ):
        pairs = obs_split.test.pairs[:20]
        workload = Workload(
            "obs-service2", pairs, obs_split.test.left_table, obs_split.test.right_table
        )
        registry = MetricsRegistry()
        service = RiskService(obs_pipeline, max_batch_size=8, metrics=registry)
        service.score_workload(workload)
        assert registry.counter_value("service.pairs_scored") == len(pairs)
        assert registry.counter_value("service.batches") == 3
        assert registry.histogram("service.batch_seconds").count == 3
        assert registry.gauge_value("service.largest_batch") == 8
        # The legacy surface reads through to the same registry.
        assert service.stats.pairs_scored == len(pairs)
        assert service.stats.snapshot()["batches"] == 3
