"""Unit tests for PipelineSpec and its JSON serialisation."""

from __future__ import annotations

import json

import pytest

from repro.compose import ComponentSpec, PipelineSpec, StagedPipeline, build_pipeline
from repro.exceptions import ConfigurationError
from repro.risk.training import TrainingConfig


class TestComponentSpec:
    def test_coerce_from_string(self):
        spec = ComponentSpec.coerce("logistic", "classifier")
        assert spec.kind == "logistic" and spec.params == {}

    def test_coerce_from_mapping(self):
        spec = ComponentSpec.coerce({"kind": "mlp", "params": {"epochs": 5}}, "classifier")
        assert spec.kind == "mlp" and spec.params == {"epochs": 5}

    def test_coerce_rejects_unknown_keys(self):
        with pytest.raises(ConfigurationError, match="unknown keys"):
            ComponentSpec.coerce({"kind": "mlp", "epochs": 5}, "classifier")

    def test_coerce_requires_kind(self):
        with pytest.raises(ConfigurationError, match="missing 'kind'"):
            ComponentSpec.coerce({"params": {}}, "classifier")

    def test_params_are_stored_with_sorted_keys_at_every_depth(self):
        spec = ComponentSpec("onesided_tree", {
            "tree": {"max_depth": 2, "min_support": 4, "max_thresholds": 24},
            "balance": True,
        })
        assert list(spec.params) == ["balance", "tree"]
        assert list(spec.params["tree"]) == ["max_depth", "max_thresholds", "min_support"]

    def test_list_params_keep_their_order(self):
        spec = ComponentSpec("mlp", {"hidden_sizes": [32, 16], "layers": ({"b": 1, "a": 2},)})
        assert spec.params["hidden_sizes"] == [32, 16]
        assert spec.params["layers"] == ({"a": 2, "b": 1},)
        assert list(spec.params["layers"][0]) == ["a", "b"]


class TestPipelineSpec:
    def test_json_roundtrip(self):
        spec = PipelineSpec(
            classifier=ComponentSpec("logistic", {"epochs": 50}),
            risk_features=ComponentSpec("onesided_tree", {"tree": {"max_depth": 2}}),
            risk_metric="cvar",
            training={"epochs": 25, "theta": 0.85},
            decision_threshold=0.6,
            seed=3,
        )
        restored = PipelineSpec.from_json(spec.to_json())
        assert restored == spec
        assert restored.to_dict() == spec.to_dict()

    def test_training_is_stored_with_sorted_keys(self):
        spec = PipelineSpec(training={"theta": 0.85, "epochs": 25, "learning_rate": 0.01})
        assert list(spec.training) == ["epochs", "learning_rate", "theta"]

    def test_source_key_order_does_not_reach_the_serialised_spec(self):
        # state.json embeds to_dict() as it is; spec.json sorts its keys.  A
        # refit from spec.json saves the same bytes only if a spec's key
        # order does not depend on the order its source wrote.
        tree = {"max_depth": 2, "min_support": 4, "max_thresholds": 24}
        reordered = {key: tree[key] for key in reversed(list(tree))}
        first, second = (
            PipelineSpec.from_dict({
                "risk_features": {"kind": "onesided_tree", "params": {"tree": params}},
                "training": training,
            })
            for params, training in (
                (tree, {"epochs": 40, "theta": 0.9}),
                (reordered, {"theta": 0.9, "epochs": 40}),
            )
        )
        assert json.dumps(first.to_dict()) == json.dumps(second.to_dict())
        for section in ("risk_features", "training"):
            value = first.to_dict()[section]
            assert json.dumps(value) == json.dumps(value, sort_keys=True), section

    def test_defaults_validate(self):
        assert PipelineSpec().validate() is not None

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown pipeline spec keys"):
            PipelineSpec.from_dict({"classifer": {"kind": "mlp"}})

    def test_unknown_training_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown training parameters"):
            PipelineSpec(training={"epoch": 10})

    def test_invalid_json_rejected(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            PipelineSpec.from_json("{not json")

    def test_threshold_bounds(self):
        with pytest.raises(ConfigurationError):
            PipelineSpec(decision_threshold=1.5)

    def test_training_config_uses_spec_seed(self):
        spec = PipelineSpec(training={"epochs": 10}, seed=9)
        config = spec.training_config()
        assert config == TrainingConfig(epochs=10, seed=9)
        # An explicit training seed wins over the spec seed.
        pinned = PipelineSpec(training={"seed": 2}, seed=9).training_config()
        assert pinned.seed == 2

    def test_validate_unknown_component(self):
        spec = PipelineSpec(classifier=ComponentSpec("no-such-classifier"))
        with pytest.raises(ConfigurationError, match="no-such-classifier"):
            spec.validate()

    def test_build_pipeline_rejects_unknown_risk_metric(self):
        with pytest.raises(ConfigurationError, match="registered risk metrics"):
            build_pipeline(PipelineSpec(risk_metric="vra"))


class TestEagerRiskMetricValidation:
    def test_pipeline_init_rejects_unknown_metric_as_value_error(self):
        """The satellite requirement: a typo like "vra" fails in __init__ with a
        ValueError naming the allowed values, not deep inside risk training."""
        with pytest.raises(ValueError, match="var"):
            StagedPipeline({"risk_metric": "vra"})

    def test_pipeline_init_accepts_registered_metrics(self):
        for metric in ("var", "cvar", "expectation"):
            assert StagedPipeline({"risk_metric": metric}).spec.risk_metric == metric
