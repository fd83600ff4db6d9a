"""Unit tests for the component registries of repro.compose."""

from __future__ import annotations

import numpy as np
import pytest

from repro.classifiers import ColumnSubsetClassifier, LogisticRegressionClassifier
from repro.compose import (
    CLASSIFIERS,
    ComponentRegistry,
    create_classifier,
    create_vectorizer,
    register_classifier,
    register_risk_metric,
    registered_classifiers,
    registered_risk_metrics,
    resolve_risk_metric,
)
from repro.compose.registries import RISK_FEATURE_GENERATORS
from repro.exceptions import ConfigurationError
from repro.risk.metrics import RISK_METRICS


class TestComponentRegistry:
    def test_register_and_create(self):
        registry = ComponentRegistry("widget")
        registry.register("square", lambda value: value * value)
        assert registry.create("square", 3) == 9
        assert "square" in registry
        assert registry.keys() == ["square"]

    def test_register_as_decorator(self):
        registry = ComponentRegistry("widget")

        @registry.register("double")
        def build_double(value):
            return value * 2

        assert registry.create("double", 4) == 8
        assert build_double(4) == 8  # the decorator returns the factory unchanged

    def test_unknown_key_error_names_alternatives(self):
        registry = ComponentRegistry("widget")
        registry.register("only", lambda: None)
        with pytest.raises(ConfigurationError, match="only"):
            registry.get("missing")

    def test_duplicate_registration_rejected(self):
        registry = ComponentRegistry("widget")
        registry.register("key", lambda: 1)
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("key", lambda: 2)
        # ... unless explicitly overwritten.
        registry.register("key", lambda: 2, overwrite=True)
        assert registry.create("key") == 2

    def test_empty_key_rejected(self):
        registry = ComponentRegistry("widget")
        with pytest.raises(ConfigurationError):
            registry.register("", lambda: 1)

    def test_bad_factory_parameters_are_configuration_errors(self):
        with pytest.raises(ConfigurationError, match="classifier 'logistic'"):
            CLASSIFIERS.create("logistic", nonexistent_parameter=1)


class TestClassifierRegistry:
    def test_builtins_registered(self):
        assert {"mlp", "logistic", "tree", "forest", "ensemble"} <= set(registered_classifiers())

    def test_create_injects_seed(self):
        classifier = create_classifier("logistic", {}, seed=7)
        assert isinstance(classifier, LogisticRegressionClassifier)
        assert classifier.seed == 7

    def test_params_pin_seed_over_spec_seed(self):
        classifier = create_classifier("logistic", {"seed": 3}, seed=7)
        assert classifier.seed == 3

    def test_custom_registration_roundtrip(self):
        @register_classifier("test-logistic-alias")
        def build_alias(epochs: int = 10, seed: int = 0):
            return LogisticRegressionClassifier(epochs=epochs, seed=seed)

        try:
            classifier = create_classifier("test-logistic-alias", {"epochs": 5}, seed=1)
            assert classifier.epochs == 5 and classifier.seed == 1
        finally:
            CLASSIFIERS.unregister("test-logistic-alias")

    def test_a_kwargs_factory_builds_without_the_vectorizer(self, paper_schema):
        @register_classifier("test-kwargs")
        def build_kwargs(seed: int = 0, **params):
            return LogisticRegressionClassifier(seed=seed, **params)

        try:
            vectorizer = create_vectorizer("basic", paper_schema, {})
            classifier = create_classifier("test-kwargs", {"epochs": 5}, 1, vectorizer)
            assert classifier.epochs == 5 and classifier.seed == 1
        finally:
            CLASSIFIERS.unregister("test-kwargs")

    def test_factory_must_return_classifier(self):
        register_classifier("test-broken", lambda seed=0: object())
        try:
            with pytest.raises(ConfigurationError, match="BaseClassifier"):
                create_classifier("test-broken", {})
        finally:
            CLASSIFIERS.unregister("test-broken")


class TestSimilarityView:
    def test_wraps_the_base_over_the_similarity_columns(self, paper_schema):
        vectorizer = create_vectorizer("basic", paper_schema, {})
        view = create_classifier(
            "similarity_view", {"base": {"kind": "logistic", "params": {"epochs": 5}}},
            seed=4, vectorizer=vectorizer,
        )
        assert isinstance(view, ColumnSubsetClassifier)
        assert isinstance(view.base, LogisticRegressionClassifier)
        assert (view.base.epochs, view.base.seed) == (5, 4)
        kinds = [spec.kind for spec in vectorizer.metrics]
        assert "difference" in kinds
        assert view.column_indices.tolist() == [
            index for index, kind in enumerate(kinds) if kind == "similarity"
        ]

    def test_an_all_similarity_vectorizer_gets_the_bare_base(self, paper_schema):
        vectorizer = create_vectorizer("basic", paper_schema, {"kinds": ["similarity"]})
        base = create_classifier(
            "similarity_view", {"base": "logistic"}, seed=4, vectorizer=vectorizer
        )
        assert type(base) is LogisticRegressionClassifier

    def test_needs_the_fitted_vectorizer(self):
        with pytest.raises(ConfigurationError, match="'similarity_view'.*'vectorizer'"):
            create_classifier("similarity_view", {})


class TestVectorizerRegistry:
    def test_basic_vectorizer_kind_filter(self, paper_schema):
        full = create_vectorizer("basic", paper_schema, {})
        similarity_only = create_vectorizer("basic", paper_schema, {"kinds": ["similarity"]})
        assert 0 < similarity_only.n_features < full.n_features
        assert all(spec.kind == "similarity" for spec in similarity_only.metrics)

    def test_basic_vectorizer_unknown_kind(self, paper_schema):
        with pytest.raises(ConfigurationError, match="metric kinds"):
            create_vectorizer("basic", paper_schema, {"kinds": ["nope"]})


class TestRiskFeatureGeneratorRegistry:
    def test_onesided_tree_params(self):
        generator = RISK_FEATURE_GENERATORS.create(
            "onesided_tree", tree={"max_depth": 2}, min_rule_coverage=3
        )
        assert generator.tree_config.max_depth == 2
        assert generator.min_rule_coverage == 3

    def test_onesided_tree_unknown_tree_param(self):
        with pytest.raises(ConfigurationError, match="unknown one-sided tree parameters"):
            RISK_FEATURE_GENERATORS.create("onesided_tree", tree={"depth": 2})


class TestRiskMetricRegistry:
    def test_builtins_registered(self):
        assert {"var", "cvar", "expectation"} <= set(registered_risk_metrics())

    def test_resolve_unknown_names_alternatives(self):
        with pytest.raises(ConfigurationError, match="var"):
            resolve_risk_metric("vra")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ConfigurationError, match="already registered"):
            register_risk_metric("var", lambda d, m, *, theta=0.9: np.zeros(len(d)))

    def test_custom_metric_registration(self):
        def zero_metric(distribution, machine_labels, *, theta=0.9):
            return np.zeros(len(distribution))

        register_risk_metric("test-zero", zero_metric)
        try:
            assert resolve_risk_metric("test-zero") is zero_metric
        finally:
            RISK_METRICS.unregister("test-zero")
