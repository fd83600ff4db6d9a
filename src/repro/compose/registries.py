"""String-keyed component registries of the composable pipeline API.

A :class:`PipelineSpec` names its components by string keys (``"mlp"``,
``"onesided_tree"``, ``"basic"``, ``"var"``); the registries in this module map
those keys to factories so that new classifiers, vectorisers, risk-feature
generators and risk metrics plug in through registration instead of edits to
core code::

    from repro.compose import register_classifier

    @register_classifier("always-half")
    def build_always_half(seed: int = 0):
        return AlwaysHalfClassifier()

Factory protocols
-----------------
classifier
    ``factory(**params) -> BaseClassifier``; called at ``fit_classifier``
    time, after the vectoriser is fitted.  When the factory accepts a
    ``seed`` parameter and the spec params do not set one, the spec's seed is
    injected, so one spec-level seed drives every seeded component.  A
    factory that names a ``vectorizer`` parameter also gets the fitted
    vectoriser (``"similarity_view"`` picks its columns from it); a
    ``**params`` factory never does.
vectorizer
    ``factory(schema, **params) -> PairVectorizer``; called lazily at
    ``fit_vectorizer`` time because the schema comes from the training data.
risk_features
    ``factory(**params) -> RiskFeatureGenerator`` (or any object with the same
    ``generate(workload, vectorizer=...)`` protocol).
risk metric
    ``function(distribution, machine_labels, *, theta) -> np.ndarray``; risk
    metrics live in the core registry of :mod:`repro.risk.metrics`, re-exported
    here so ``repro.compose`` is the one-stop registration surface.
pair source
    ``factory(**params) -> PairSource`` (see :mod:`repro.data.sources`), so a
    :class:`PipelineSpec` can name its data backend (``"csv"``, ``"dataset"``,
    ``"generator"``, ``"sharded"``, ``"blocked"``) and the whole stack can
    stream pairs out-of-core from configuration alone.  The ``"blocked"``
    backend (see :mod:`repro.blocking`) generates its candidates on the fly
    from a raw record corpus instead of reading a pre-blocked pair list.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Mapping

from ..classifiers import (
    BootstrapEnsemble,
    ColumnSubsetClassifier,
    DecisionTreeClassifier,
    LogisticRegressionClassifier,
    MLPClassifier,
    RandomForestClassifier,
)
from ..classifiers.base import BaseClassifier
from ..data.schema import Schema
from ..data.sources import (
    CsvPairSource,
    GeneratorSource,
    InMemorySource,
    PairSource,
    ShardedSource,
)
from ..exceptions import ConfigurationError
from ..features.metric_registry import SIMILARITY
from ..features.vectorizer import PairVectorizer
from ..registry import ComponentRegistry
from ..risk.feature_generation import RiskFeatureGenerator
from ..risk.metrics import (  # noqa: F401 — re-exported registration surface
    register_risk_metric,
    registered_risk_metrics,
    resolve_risk_metric,
)
from ..risk.onesided_tree import OneSidedTreeConfig
from ..serialization import dataclass_from_dict


#: Registry of machine-classifier factories (``factory(**params)``).
CLASSIFIERS = ComponentRegistry("classifier")
#: Registry of vectoriser factories (``factory(schema, **params)``).
VECTORIZERS = ComponentRegistry("vectorizer")
#: Registry of risk-feature-generator factories (``factory(**params)``).
RISK_FEATURE_GENERATORS = ComponentRegistry("risk feature generator")
#: Registry of pair-source factories (``factory(**params) -> PairSource``).
PAIR_SOURCES = ComponentRegistry("pair source")


def register_classifier(
    key: str, factory: Callable[..., BaseClassifier] | None = None, *, overwrite: bool = False
) -> Callable[..., Any]:
    """Register a classifier factory under ``key`` (usable as a decorator)."""
    return CLASSIFIERS.register(key, factory, overwrite=overwrite)


def register_vectorizer(
    key: str, factory: Callable[..., PairVectorizer] | None = None, *, overwrite: bool = False
) -> Callable[..., Any]:
    """Register a vectoriser factory under ``key`` (usable as a decorator)."""
    return VECTORIZERS.register(key, factory, overwrite=overwrite)


def register_risk_feature_generator(
    key: str, factory: Callable[..., Any] | None = None, *, overwrite: bool = False
) -> Callable[..., Any]:
    """Register a risk-feature-generator factory under ``key`` (usable as a decorator)."""
    return RISK_FEATURE_GENERATORS.register(key, factory, overwrite=overwrite)


def registered_classifiers() -> list[str]:
    """Registered classifier keys, sorted."""
    return CLASSIFIERS.keys()


def registered_vectorizers() -> list[str]:
    """Registered vectoriser keys, sorted."""
    return VECTORIZERS.keys()


def register_source(
    key: str, factory: Callable[..., PairSource] | None = None, *, overwrite: bool = False
) -> Callable[..., Any]:
    """Register a pair-source factory under ``key`` (usable as a decorator)."""
    return PAIR_SOURCES.register(key, factory, overwrite=overwrite)


def registered_risk_feature_generators() -> list[str]:
    """Registered risk-feature-generator keys, sorted."""
    return RISK_FEATURE_GENERATORS.keys()


def registered_sources() -> list[str]:
    """Registered pair-source keys, sorted."""
    return PAIR_SOURCES.keys()


def _accepts_parameter(
    factory: Callable[..., Any], name: str, *, via_kwargs: bool = True
) -> bool:
    """Whether ``factory`` accepts a keyword parameter called ``name``.

    A ``**kwargs`` factory accepts any name unless ``via_kwargs`` is false.
    """
    try:
        signature = inspect.signature(factory)
    except (TypeError, ValueError):  # builtins without introspectable signatures
        return False
    for parameter in signature.parameters.values():
        if via_kwargs and parameter.kind is inspect.Parameter.VAR_KEYWORD:
            return True
        if parameter.name == name and parameter.kind in (
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.KEYWORD_ONLY,
        ):
            return True
    return False


def create_classifier(
    kind: str,
    params: Mapping[str, Any],
    seed: int = 0,
    vectorizer: PairVectorizer | None = None,
) -> BaseClassifier:
    """Build a classifier from its registry key, injecting the spec seed.

    ``seed`` is only injected when the factory accepts one and ``params`` does
    not already pin it, so unseeded custom factories keep working.  The fitted
    ``vectorizer`` reaches only a factory that names a ``vectorizer``
    parameter.
    """
    factory = CLASSIFIERS.get(kind)
    params = dict(params)
    if "seed" not in params and _accepts_parameter(factory, "seed"):
        params["seed"] = seed
    if vectorizer is not None and _accepts_parameter(factory, "vectorizer", via_kwargs=False):
        params["vectorizer"] = vectorizer
    classifier = CLASSIFIERS.create(kind, **params)
    if not isinstance(classifier, BaseClassifier):
        raise ConfigurationError(
            f"classifier factory {kind!r} returned {type(classifier).__name__}, "
            f"expected a BaseClassifier"
        )
    return classifier


def create_vectorizer(kind: str, schema: Schema, params: Mapping[str, Any]) -> PairVectorizer:
    """Build a vectoriser for ``schema`` from its registry key."""
    return VECTORIZERS.create(kind, schema, **dict(params))


def create_risk_feature_generator(kind: str, params: Mapping[str, Any], seed: int = 0) -> Any:
    """Build a risk-feature generator from its registry key (seed-injected like classifiers)."""
    params = dict(params)
    if "seed" not in params and _accepts_parameter(RISK_FEATURE_GENERATORS.get(kind), "seed"):
        params["seed"] = seed
    return RISK_FEATURE_GENERATORS.create(kind, **params)


def create_source(kind: str, params: Mapping[str, Any], seed: int = 0) -> PairSource:
    """Build a pair source from its registry key (seed-injected like classifiers)."""
    params = dict(params)
    if "seed" not in params and _accepts_parameter(PAIR_SOURCES.get(kind), "seed"):
        params["seed"] = seed
    source = PAIR_SOURCES.create(kind, **params)
    if not isinstance(source, PairSource):
        raise ConfigurationError(
            f"pair-source factory {kind!r} returned {type(source).__name__}, "
            f"expected a PairSource"
        )
    return source


# ------------------------------------------------------------------ built-ins
register_classifier("mlp", MLPClassifier)
register_classifier("logistic", LogisticRegressionClassifier)
register_classifier("tree", DecisionTreeClassifier)
register_classifier("forest", RandomForestClassifier)
register_classifier("ensemble", BootstrapEnsemble)


@register_classifier("similarity_view")
def build_similarity_view(
    vectorizer: PairVectorizer, base: Mapping[str, Any] | str = "mlp", seed: int = 0
) -> BaseClassifier:
    """The paper's matcher: the ``base`` classifier spec on the similarity metrics only.

    DeepMatcher, the classifier of the paper's protocol, never sees the
    difference metrics that LearnRisk's rules use.  The base is wrapped in a
    :class:`~repro.classifiers.ColumnSubsetClassifier` over the fitted
    vectoriser's similarity columns; when those are all of the columns or
    none of them, the bare base is returned.
    """
    from .spec import ComponentSpec

    base_spec = ComponentSpec.coerce(base, "similarity_view base")
    classifier = create_classifier(base_spec.kind, base_spec.params, seed, vectorizer)
    indices = [
        index for index, spec in enumerate(vectorizer.metrics) if spec.kind == SIMILARITY
    ]
    if not indices or len(indices) == len(vectorizer.metrics):
        return classifier
    return ColumnSubsetClassifier(classifier, indices)


@register_vectorizer("basic")
def build_basic_vectorizer(schema: Schema, kinds: list[str] | None = None) -> PairVectorizer:
    """All basic metrics applicable to the schema; ``kinds`` optionally filters
    to ``"similarity"`` and/or ``"difference"`` metrics."""
    vectorizer = PairVectorizer(schema)
    if kinds is not None:
        wanted = set(kinds)
        known = {spec.kind for spec in vectorizer.metrics}
        unknown = wanted - known
        if unknown:
            raise ConfigurationError(
                f"unknown metric kinds {sorted(unknown)}; available: {sorted(known)}"
            )
        vectorizer = PairVectorizer(
            schema, metrics=[spec for spec in vectorizer.metrics if spec.kind in wanted]
        )
    return vectorizer


@register_source("csv")
def build_csv_source(
    directory: str,
    name: str = "workload",
    schema: Mapping[str, Any] | str | None = None,
    pairs_path: str | None = None,
) -> CsvPairSource:
    """Chunked reader over an exported CSV workload (:mod:`repro.data.io` layout).

    ``schema`` is the :meth:`Schema.to_dict` mapping or a path to a JSON file
    in that format; ``pairs_path`` optionally overrides ``<name>_pairs.csv``.
    """
    if schema is None:
        raise ConfigurationError("csv source requires a 'schema' (mapping or JSON file path)")
    return CsvPairSource(directory, name, schema, pairs_path=pairs_path)


@register_source("dataset")
def build_dataset_source(
    name: str = "DS", scale: float = 1.0, seed: int | None = None
) -> InMemorySource:
    """A built-in benchmark-analogue workload served through the source protocol."""
    from ..data.datasets import load_dataset

    return InMemorySource(load_dataset(name, scale=scale, seed=seed))


@register_source("generator")
def build_generator_source(
    domain: str = "bibliographic",
    config: Mapping[str, Any] | None = None,
    name: str = "synthetic",
    max_pairs: int | None = None,
    seed: int = 0,
) -> GeneratorSource:
    """An (optionally unbounded) synthetic pair stream.

    ``config`` holds :class:`~repro.data.generators.GenerationConfig` field
    overrides; omitted fields keep the generator defaults.
    """
    from ..data.generators import GenerationConfig

    generation_config = None
    if config is not None:
        generation_config = dataclass_from_dict(GenerationConfig, config)
    return GeneratorSource(
        domain, config=generation_config, name=name, max_pairs=max_pairs, seed=seed
    )


@register_source("sharded")
def build_sharded_source(
    sources: list[Mapping[str, Any]] | None = None,
    interleave: bool = False,
    name: str | None = None,
    seed: int = 0,
) -> ShardedSource:
    """Concatenate/interleave child sources, each named by its own spec.

    ``sources`` is a list of ``{"kind": ..., "params": {...}}`` component
    specs resolved recursively through this registry.
    """
    from .spec import ComponentSpec

    if not sources:
        raise ConfigurationError("sharded source requires a non-empty 'sources' list")
    children = []
    for entry in sources:
        child_spec = ComponentSpec.coerce(entry, "pair source")
        children.append(create_source(child_spec.kind, child_spec.params, seed))
    return ShardedSource(children, interleave=interleave, name=name)


@register_source("blocked")
def build_blocked_source(
    corpus: Mapping[str, Any] | None = None,
    blockers: list[Mapping[str, Any]] | None = None,
    ensure_matches: bool = True,
    name: str | None = None,
    seed: int = 0,
) -> PairSource:
    """Candidate pairs blocked on the fly from a raw record corpus.

    ``corpus`` is a ``{"kind": ..., **params}`` spec resolved through
    :data:`repro.blocking.CORPORA` (``"csv"``, ``"generator"``, ``"dataset"``)
    and ``blockers`` a non-empty list of ``{"kind": ..., "params": {...}}``
    specs resolved through :data:`repro.blocking.BLOCKERS` (``"inverted"``,
    ``"minhash"``, ``"sorted_window"``).  The result streams in bounded
    memory: no candidate-pair list is ever materialised.
    """
    from ..blocking import BlockingPairSource, create_blocker, create_corpus

    if not corpus:
        raise ConfigurationError("blocked source requires a 'corpus' spec")
    if not blockers:
        raise ConfigurationError("blocked source requires a non-empty 'blockers' list")
    return BlockingPairSource(
        create_corpus(corpus, seed=seed),
        [create_blocker(entry, seed=seed) for entry in blockers],
        ensure_matches=ensure_matches,
        name=name,
    )


@register_risk_feature_generator("onesided_tree")
def build_onesided_tree_generator(
    tree: Mapping[str, Any] | None = None,
    min_rule_coverage: int = 5,
    expectation_smoothing: float = 1.0,
) -> RiskFeatureGenerator:
    """The paper's one-sided decision-tree rule generator.

    ``tree`` holds :class:`OneSidedTreeConfig` fields (``max_depth``,
    ``min_support``, ``lam``, ...); unknown field names are rejected.
    """
    tree_config = None
    if tree is not None:
        import dataclasses

        known = {field.name for field in dataclasses.fields(OneSidedTreeConfig)}
        unknown = set(tree) - known
        if unknown:
            raise ConfigurationError(
                f"unknown one-sided tree parameters {sorted(unknown)}; "
                f"known parameters: {sorted(known)}"
            )
        tree_config = dataclass_from_dict(OneSidedTreeConfig, tree)
    return RiskFeatureGenerator(
        tree_config=tree_config,
        min_rule_coverage=min_rule_coverage,
        expectation_smoothing=expectation_smoothing,
    )
