"""Declarative pipeline configuration: :class:`PipelineSpec`.

A spec is a plain, JSON-serialisable description of a full LearnRisk pipeline:
which classifier, vectoriser and risk-feature generator to build (by registry
key plus parameters), which risk metric to score with, the risk-model training
hyper-parameters and the decision threshold.  Opening a new workload then means
writing a config file, not editing code::

    {
      "classifier": {"kind": "logistic", "params": {"epochs": 200}},
      "risk_features": {"kind": "onesided_tree", "params": {"tree": {"max_depth": 2}}},
      "risk_metric": "var",
      "training": {"epochs": 100},
      "decision_threshold": 0.5,
      "seed": 0
    }

``build_pipeline(PipelineSpec.from_json(text))`` assembles the staged pipeline
(see :mod:`repro.compose.staged`); the spec rides along in the pipeline state,
so a saved model remembers the configuration that produced it.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from dataclasses import dataclass, field
from typing import Any, Mapping

from ..classifiers.base import BaseClassifier
from ..exceptions import ConfigurationError
from ..parallel.config import ExecutionConfig
from ..risk.training import TrainingConfig
from ..serialization import dataclass_from_dict
from .registries import (
    CLASSIFIERS,
    PAIR_SOURCES,
    RISK_FEATURE_GENERATORS,
    VECTORIZERS,
    resolve_risk_metric,
)

def _sorted_keys(value: Any) -> Any:
    """``value`` with the keys of every nested mapping sorted; lists keep their order.

    Specs store their params this way, so the spec a model embeds in
    ``state.json`` has the key order of its sorted ``spec.json`` sidecar
    whatever order its source used, and a refit from that sidecar saves the
    same bytes.
    """
    if isinstance(value, Mapping):
        return {key: _sorted_keys(value[key]) for key in sorted(value)}
    if isinstance(value, (list, tuple)):
        return type(value)(_sorted_keys(item) for item in value)
    return value


@dataclass(frozen=True)
class ComponentSpec:
    """One pluggable component: a registry key plus factory parameters."""

    kind: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.kind or not isinstance(self.kind, str):
            raise ConfigurationError("component kind must be a non-empty string")
        if not isinstance(self.params, Mapping):
            raise ConfigurationError(
                f"component {self.kind!r} params must be a mapping, "
                f"got {type(self.params).__name__}"
            )
        object.__setattr__(self, "params", _sorted_keys(self.params))

    def to_dict(self) -> dict[str, Any]:
        return {"kind": self.kind, "params": dict(self.params)}

    @classmethod
    def coerce(cls, value: Any, component: str) -> "ComponentSpec":
        """Build from a :class:`ComponentSpec`, a bare kind string or a dict."""
        if isinstance(value, ComponentSpec):
            return value
        if isinstance(value, str):
            return cls(kind=value)
        if isinstance(value, Mapping):
            unknown = set(value) - {"kind", "params"}
            if unknown:
                raise ConfigurationError(
                    f"unknown keys {sorted(unknown)} in {component} spec; "
                    f"expected 'kind' and optional 'params'"
                )
            if "kind" not in value:
                raise ConfigurationError(f"{component} spec is missing 'kind'")
            return cls(kind=value["kind"], params=value.get("params") or {})
        raise ConfigurationError(
            f"{component} spec must be a string, mapping or ComponentSpec, "
            f"got {type(value).__name__}"
        )


def _json_safe(value: Any) -> tuple[bool, Any]:
    """Whether ``value`` survives a JSON round trip, and its JSON form."""
    if value is None or isinstance(value, (str, int, float, bool)):
        return True, value
    if isinstance(value, (list, tuple)):
        items = [_json_safe(item) for item in value]
        return all(ok for ok, _ in items), [item for _, item in items]
    if isinstance(value, Mapping):
        items = {str(k): _json_safe(v) for k, v in value.items()}
        return all(ok for ok, _ in items.values()), {k: v for k, (_, v) in items.items()}
    return False, None


def component_spec_for_classifier(classifier: BaseClassifier) -> ComponentSpec:
    """A registry-valid :class:`ComponentSpec` describing a classifier instance.

    When the classifier's class is a registered factory, the spec records that
    registry key plus every JSON-serialisable constructor argument read back
    from the instance (the built-ins store them as same-named attributes), so
    ``build_pipeline`` on the resulting spec re-creates an equivalent
    classifier.  Unregistered classes are recorded as ``"custom"`` —
    informational only, not re-creatable from configuration.
    """
    kind = next(
        (key for key, factory in CLASSIFIERS._factories.items()
         if factory is type(classifier)),
        None,
    )
    if kind is None:
        return ComponentSpec("custom")
    params: dict[str, Any] = {}
    for name, parameter in inspect.signature(type(classifier)).parameters.items():
        if parameter.kind not in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY
        ):
            continue
        if not hasattr(classifier, name):
            continue
        serialisable, value = _json_safe(getattr(classifier, name))
        if serialisable:
            params[name] = value
    return ComponentSpec(kind, params)


_TRAINING_FIELDS = {config_field.name for config_field in dataclasses.fields(TrainingConfig)}
_SPEC_FIELDS = (
    "classifier", "vectorizer", "risk_features", "source", "execution",
    "online", "risk_metric", "training", "decision_threshold", "seed",
)


@dataclass
class PipelineSpec:
    """Declarative, JSON-serialisable configuration of a full pipeline.

    Attributes
    ----------
    classifier, vectorizer, risk_features:
        Component specs resolved through the registries of
        :mod:`repro.compose.registries`.
    source:
        Optional data-backend spec resolved through the pair-source registry
        (``"csv"``, ``"dataset"``, ``"generator"``, ``"sharded"``, ``"blocked"``,
        or anything added via ``register_source``).  When set, the pipeline
        knows where its pairs stream from and ``StagedPipeline.build_source()``
        (or :func:`build_source`) materialises the backend.  The ``"blocked"``
        backend generates candidates on the fly from a raw record corpus
        through :mod:`repro.blocking`, so a spec can fit and score without any
        pre-blocked pair list existing anywhere.
    execution:
        Optional :class:`~repro.parallel.config.ExecutionConfig` (or its
        ``to_dict`` mapping) with the default multi-worker scoring setup —
        worker count, pool backend, chunk size.  Purely a throughput knob:
        scores are bit-identical at any worker count, so the field never
        changes *what* a pipeline computes, only how fast.
    online:
        Optional online-resolution policy spec resolved through
        :data:`repro.online.POLICIES` (``"threshold"`` by default; see
        :class:`~repro.online.ResolutionPolicy` for the parameters).  When
        set, ``spec.online_policy()`` builds the policy that drives an
        :class:`~repro.online.OnlineResolver` (the serve CLI's ``resolve``
        command and the HTTP tier's ``POST /resolve`` path).
    risk_metric:
        Name of a registered risk metric (``"var"``, ``"cvar"``,
        ``"expectation"``, or anything added via ``register_risk_metric``).
    training:
        :class:`~repro.risk.training.TrainingConfig` field overrides; omitted
        fields keep the paper defaults.
    decision_threshold:
        Classifier probability above which a pair is machine-labeled matching.
    seed:
        Spec-level seed injected into seeded component factories (and the
        training config) unless they pin their own.
    """

    classifier: ComponentSpec = field(default_factory=lambda: ComponentSpec("mlp"))
    vectorizer: ComponentSpec = field(default_factory=lambda: ComponentSpec("basic"))
    risk_features: ComponentSpec = field(default_factory=lambda: ComponentSpec("onesided_tree"))
    source: ComponentSpec | None = None
    execution: ExecutionConfig | None = None
    online: ComponentSpec | None = None
    risk_metric: str = "var"
    training: dict[str, Any] = field(default_factory=dict)
    decision_threshold: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        self.classifier = ComponentSpec.coerce(self.classifier, "classifier")
        self.vectorizer = ComponentSpec.coerce(self.vectorizer, "vectorizer")
        self.risk_features = ComponentSpec.coerce(self.risk_features, "risk_features")
        if self.source is not None:
            self.source = ComponentSpec.coerce(self.source, "source")
        if self.online is not None:
            self.online = ComponentSpec.coerce(self.online, "online")
        self.execution = ExecutionConfig.coerce(self.execution)
        if not isinstance(self.training, Mapping):
            raise ConfigurationError(
                f"training must be a mapping of TrainingConfig fields, "
                f"got {type(self.training).__name__}"
            )
        self.training = _sorted_keys(self.training)
        unknown = set(self.training) - _TRAINING_FIELDS
        if unknown:
            raise ConfigurationError(
                f"unknown training parameters {sorted(unknown)}; "
                f"known parameters: {sorted(_TRAINING_FIELDS)}"
            )
        if not 0.0 <= float(self.decision_threshold) <= 1.0:
            raise ConfigurationError(
                f"decision_threshold must be in [0, 1], got {self.decision_threshold}"
            )
        self.decision_threshold = float(self.decision_threshold)
        self.seed = int(self.seed)

    # ------------------------------------------------------------- validation
    def validate(self) -> "PipelineSpec":
        """Check the spec against the registries; returns ``self``."""
        resolve_risk_metric(self.risk_metric)
        CLASSIFIERS.get(self.classifier.kind)
        VECTORIZERS.get(self.vectorizer.kind)
        RISK_FEATURE_GENERATORS.get(self.risk_features.kind)
        if self.source is not None:
            PAIR_SOURCES.get(self.source.kind)
        if self.online is not None:
            self.online_policy()
        return self

    def online_policy(self):
        """Materialise the ``online`` component as a resolution policy.

        Resolved lazily through :data:`repro.online.POLICIES` so specs that
        never go online pay no import cost.  Raises
        :class:`~repro.exceptions.ConfigurationError` when no ``online``
        component is configured.
        """
        if self.online is None:
            raise ConfigurationError("pipeline spec has no 'online' component")
        from ..online import create_policy

        return create_policy(self.online.kind, self.online.params)

    def training_config(self) -> TrainingConfig:
        """Materialise the training configuration (spec seed as the default seed)."""
        values = dict(self.training)
        values.setdefault("seed", self.seed)
        return dataclass_from_dict(TrainingConfig, values)

    # ----------------------------------------------------------- serialisation
    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON representation (inverse of :meth:`from_dict`).

        The ``source`` key is only emitted when a data backend is configured,
        so specs written by older library versions round-trip unchanged.
        """
        values = {
            "classifier": self.classifier.to_dict(),
            "vectorizer": self.vectorizer.to_dict(),
            "risk_features": self.risk_features.to_dict(),
            "risk_metric": self.risk_metric,
            "training": dict(self.training),
            "decision_threshold": self.decision_threshold,
            "seed": self.seed,
        }
        if self.source is not None:
            values["source"] = self.source.to_dict()
        if self.execution is not None:
            values["execution"] = self.execution.to_dict()
        if self.online is not None:
            values["online"] = self.online.to_dict()
        return values

    @classmethod
    def from_dict(cls, values: Mapping[str, Any]) -> "PipelineSpec":
        """Build a spec from a mapping, rejecting unknown keys loudly."""
        if not isinstance(values, Mapping):
            raise ConfigurationError(
                f"pipeline spec must be a mapping, got {type(values).__name__}"
            )
        unknown = set(values) - set(_SPEC_FIELDS)
        if unknown:
            raise ConfigurationError(
                f"unknown pipeline spec keys {sorted(unknown)}; "
                f"known keys: {sorted(_SPEC_FIELDS)}"
            )
        kwargs = {key: values[key] for key in _SPEC_FIELDS if key in values}
        return cls(**kwargs)

    def to_json(self, indent: int | None = 2) -> str:
        """The spec as a JSON document."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "PipelineSpec":
        """Parse a spec from a JSON document (inverse of :meth:`to_json`)."""
        try:
            values = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"pipeline spec is not valid JSON: {exc}") from exc
        return cls.from_dict(values)
