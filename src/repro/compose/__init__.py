"""Composable, config-driven pipeline API.

This package turns the LearnRisk workflow into configuration plus pluggable
components:

* :mod:`repro.compose.spec` — :class:`PipelineSpec`, a declarative,
  JSON-serialisable description of a full pipeline (classifier, vectoriser,
  risk features, risk metric, training, decision threshold);
* :mod:`repro.compose.registries` — string-keyed component registries
  (:func:`register_classifier`, :func:`register_vectorizer`,
  :func:`register_risk_feature_generator`, :func:`register_risk_metric`,
  :func:`register_source` for streaming pair-source backends) so new
  components plug in without touching core code;
* :mod:`repro.compose.staged` — :class:`StagedPipeline`, the staged fitting
  core (``fit_vectorizer`` → ``fit_classifier`` → ``generate_risk_features``
  → ``fit_risk_model``) with incremental ``refit_risk_model`` and streaming
  ``analyse_batches``, assembled from a spec by :func:`build_pipeline`.

Quick start::

    from repro.compose import PipelineSpec, build_pipeline

    spec = PipelineSpec.from_json(Path("spec.json").read_text())
    pipeline = build_pipeline(spec).fit(split.train, split.validation)
    report = pipeline.analyse(split.test)

``repro.serve.load_pipeline`` loads a saved model back as a fitted
:class:`StagedPipeline`, the one pipeline class.
"""

from .registries import (
    CLASSIFIERS,
    PAIR_SOURCES,
    RISK_FEATURE_GENERATORS,
    VECTORIZERS,
    ComponentRegistry,
    create_classifier,
    create_risk_feature_generator,
    create_source,
    create_vectorizer,
    register_classifier,
    register_risk_feature_generator,
    register_risk_metric,
    register_source,
    register_vectorizer,
    registered_classifiers,
    registered_risk_feature_generators,
    registered_risk_metrics,
    registered_sources,
    registered_vectorizers,
    resolve_risk_metric,
)
from .spec import ComponentSpec, PipelineSpec
from .staged import RiskReport, StagedPipeline, build_pipeline

__all__ = [
    "CLASSIFIERS",
    "ComponentRegistry",
    "ComponentSpec",
    "PAIR_SOURCES",
    "PipelineSpec",
    "RISK_FEATURE_GENERATORS",
    "RiskReport",
    "StagedPipeline",
    "VECTORIZERS",
    "build_pipeline",
    "create_classifier",
    "create_risk_feature_generator",
    "create_source",
    "create_vectorizer",
    "register_classifier",
    "register_risk_feature_generator",
    "register_risk_metric",
    "register_source",
    "register_vectorizer",
    "registered_classifiers",
    "registered_risk_feature_generators",
    "registered_risk_metrics",
    "registered_sources",
    "registered_vectorizers",
    "resolve_risk_metric",
]
