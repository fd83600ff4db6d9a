"""The staged pipeline core: independently runnable LearnRisk stages.

:class:`StagedPipeline` decomposes the monolithic ``fit(train, validation)``
workflow into four explicit stages, each runnable (and re-runnable) on its own::

    pipeline = build_pipeline(spec)
    pipeline.fit_vectorizer(split.train)        # corpus statistics
    pipeline.fit_classifier(split.train)        # the machine classifier
    pipeline.generate_risk_features(split.train)  # one-sided rules
    pipeline.fit_risk_model(split.validation)   # the learnable risk layer

``fit(train, validation)`` runs all four in order.  The staging is what makes
incremental operation possible:

* :meth:`refit_risk_model` re-trains only the (cheap) risk layer on fresh
  validation data while keeping the expensive classifier and rule set;
* :meth:`analyse_batches` streams :class:`RiskReport` chunks over a large
  workload instead of materialising one giant report.

A pipeline is its spec: every component is resolved through the registries,
the vectoriser at ``fit_vectorizer`` (its schema comes from the data) and the
classifier at ``fit_classifier`` (a factory may read the fitted vectoriser, as
the paper's ``"similarity_view"`` does), so a saved ``spec.json`` always
refits the model it came from.  :meth:`StagedPipeline.from_state` restores a
saved model's fitted parts instead.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Any, Iterator, Mapping

import numpy as np

from ..classifiers.base import BaseClassifier, classifier_from_state
from ..data.records import RecordPair
from ..data.sources import PairSource, as_workload
from ..data.workload import Workload
from ..evaluation.roc import auroc_score, mislabel_indicator
from ..exceptions import ConfigurationError, DataError, NotFittedError
from ..features.vectorizer import PairVectorizer
from ..obs import get_recorder
from ..parallel.chunks import ChunkScores
from ..parallel.config import ExecutionConfig
from ..risk.feature_generation import GeneratedRiskFeatures, RiskFeatureGenerator
from ..risk.model import LearnRiskModel, PairRiskExplanation, RuleContribution
from ..risk.onesided_tree import OneSidedTreeConfig
from ..risk.training import TrainingConfig
from ..serialization import (
    component_state,
    dataclass_from_dict,
    require_state,
    state_field,
)
from .registries import (
    create_classifier,
    create_risk_feature_generator,
    create_source,
    create_vectorizer,
)
from .spec import ComponentSpec, PipelineSpec, component_spec_for_classifier


@dataclass
class RiskReport:
    """The outcome of analysing a workload with a fitted pipeline."""

    pairs: list[RecordPair]
    machine_probabilities: np.ndarray
    machine_labels: np.ndarray
    risk_scores: np.ndarray
    ranking: np.ndarray
    auroc: float | None = None
    explanations: dict[int, list[RuleContribution]] = field(default_factory=dict)

    def top_risky(self, k: int = 10) -> list[tuple[RecordPair, float]]:
        """The ``k`` riskiest pairs with their scores, most risky first."""
        top = self.ranking[:k]
        return [(self.pairs[int(index)], float(self.risk_scores[int(index)])) for index in top]


class StagedPipeline:
    """Spec-driven LearnRisk pipeline with an explicit staged protocol.

    Parameters
    ----------
    spec:
        The declarative configuration (a :class:`PipelineSpec`, a mapping in
        its ``to_dict`` layout, or ``None`` for the defaults), the pipeline's
        one description.
    """

    def __init__(self, spec: PipelineSpec | Mapping[str, Any] | None = None) -> None:
        if spec is None:
            spec = PipelineSpec()
        elif not isinstance(spec, PipelineSpec):
            spec = PipelineSpec.from_dict(spec)
        # Validate eagerly: an unknown component key, risk metric or tree
        # param must fail here, at construction, not hundreds of seconds into
        # training.
        spec.validate()
        self._assemble(
            spec,
            create_risk_feature_generator(
                spec.risk_features.kind, spec.risk_features.params, spec.seed
            ),
            spec.training_config(),
        )

    def _assemble(
        self,
        spec: PipelineSpec,
        feature_generator: Any,
        training_config: TrainingConfig,
        vectorizer: PairVectorizer | None = None,
        classifier: BaseClassifier | None = None,
        risk_model: LearnRiskModel | None = None,
    ) -> None:
        """Set every part: a new pipeline's, or the fitted ones of a saved model."""
        self.spec = spec
        self.feature_generator = feature_generator
        self.training_config = training_config
        #: Default execution configuration for chunked scoring (spec-driven;
        #: per-call ``workers=`` / ``execution=`` arguments override it).
        self.execution: ExecutionConfig | None = spec.execution
        self.vectorizer: PairVectorizer | None = vectorizer
        self.classifier: BaseClassifier | None = classifier
        self.risk_model: LearnRiskModel | None = risk_model
        self.risk_features: GeneratedRiskFeatures | None = (
            None if risk_model is None else risk_model.features
        )
        self._fitted = risk_model is not None

    # -------------------------------------------------------------- liveness
    @property
    def is_fitted(self) -> bool:
        """``True`` once every stage has completed (or a fitted state was loaded)."""
        return self._fitted

    @property
    def decision_threshold(self) -> float:
        """Probability threshold above which a pair is machine-labeled matching."""
        return self.spec.decision_threshold

    def _check_fitted(self) -> None:
        if not self.is_fitted:
            raise NotFittedError(f"{type(self).__name__} is not fitted yet")

    def _require_vectorizer(self) -> PairVectorizer:
        if self.vectorizer is None:
            raise NotFittedError("run fit_vectorizer before this stage")
        return self.vectorizer

    def _require_classifier(self) -> BaseClassifier:
        if self.classifier is None:
            raise NotFittedError("run fit_classifier before this stage")
        return self.classifier

    # ---------------------------------------------------------------- stages
    def fit_vectorizer(self, workload: Workload) -> "StagedPipeline":
        """Stage 1 — build the vectoriser and fit its corpus statistics."""
        if workload.left_table is None:
            raise DataError(
                "fit_vectorizer requires a workload with source tables "
                "(the schema and corpus statistics come from them)"
            )
        vectorizer = create_vectorizer(
            self.spec.vectorizer.kind, workload.left_table.schema, self.spec.vectorizer.params
        )
        with get_recorder().span("fit_vectorizer"):
            vectorizer.fit(workload.left_table, workload.right_table)
        self.vectorizer = vectorizer
        return self

    def fit_classifier(self, train: Workload) -> "StagedPipeline":
        """Stage 2 — build the machine classifier and train it on the training pairs."""
        vectorizer = self._require_vectorizer()
        classifier = create_classifier(
            self.spec.classifier.kind, self.spec.classifier.params, self.spec.seed, vectorizer
        )
        with get_recorder().span("fit_classifier"):
            features = vectorizer.transform(train.pairs)
            classifier.fit(features, train.labels())
        self.classifier = classifier
        return self

    def generate_risk_features(self, train: Workload) -> "StagedPipeline":
        """Stage 3 — generate the interpretable risk features (one-sided rules)."""
        vectorizer = self._require_vectorizer()
        with get_recorder().span("generate_risk_features"):
            self.risk_features = self.feature_generator.generate(train, vectorizer=vectorizer)
        return self

    def fit_risk_model(self, validation: Workload) -> "StagedPipeline":
        """Stage 4 — train the learnable risk model on validation data.

        Builds a fresh :class:`LearnRiskModel` from the generated risk features
        and the spec's risk metric / training config, then fits it on the
        classifier's outputs over ``validation``.
        """
        vectorizer = self._require_vectorizer()
        if self.risk_features is None:
            raise NotFittedError("run generate_risk_features before fit_risk_model")
        classifier = self._require_classifier()
        self.risk_model = LearnRiskModel(
            self.risk_features,
            config=self.training_config,
            risk_metric=self.spec.risk_metric,
        )
        with get_recorder().span("fit_risk_model"):
            features = vectorizer.transform(validation.pairs)
            probabilities = classifier.predict_proba(features)
            machine_labels = self._threshold(probabilities)
            self.risk_model.fit(features, probabilities, machine_labels, validation.labels())
        self._fitted = True
        return self

    def fit(self, train: Workload, validation: Workload) -> "StagedPipeline":
        """Run all four stages: train the classifier on ``train`` and the risk
        model on ``validation``."""
        return (
            self.fit_vectorizer(train)
            .fit_classifier(train)
            .generate_risk_features(train)
            .fit_risk_model(validation)
        )

    # ----------------------------------------------------------- incremental
    def refit_risk_model(self, validation: Workload) -> "StagedPipeline":
        """Re-train only the risk layer on new validation data.

        The (expensive) classifier, the fitted vectoriser and the generated
        rule set are kept as they are; only the learnable risk parameters are
        re-initialised and re-fitted.  This is the cheap way to adapt a served
        model to freshly labeled validation pairs.
        """
        self._check_incremental_ready()
        return self.fit_risk_model(validation)

    # -------------------------------------------------------------- data source
    def build_source(self) -> PairSource:
        """Materialise the spec-named data backend (``spec.source``).

        Raises
        ------
        ConfigurationError
            When the spec names no source, or names an unregistered one.
        """
        if self.spec.source is None:
            raise ConfigurationError(
                "the pipeline spec names no data source; set the spec's 'source' "
                "field (e.g. {\"kind\": \"csv\", \"params\": {...}})"
            )
        return create_source(self.spec.source.kind, self.spec.source.params, self.spec.seed)

    def _check_incremental_ready(self) -> None:
        if self.vectorizer is None or self.classifier is None or self.risk_features is None:
            raise NotFittedError(
                "refit_risk_model requires a pipeline whose vectoriser, classifier "
                "and risk features are already fitted (run fit once, or load a "
                "saved pipeline)"
            )

    # ----------------------------------------------------------------- scoring
    def _threshold(self, probabilities: np.ndarray) -> np.ndarray:
        """Hard labels from probabilities; the one place the threshold lives."""
        return (probabilities >= self.spec.decision_threshold).astype(int)

    def classify_matrix(self, matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Classifier probabilities and thresholded hard labels for a metric matrix."""
        with get_recorder().span("classify"):
            probabilities = self._require_classifier().predict_proba(matrix)
            return probabilities, self._threshold(probabilities)

    def _classify_pairs(self, pairs: list[RecordPair]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The shared vectorize → predict → threshold path: (matrix, probabilities, labels)."""
        matrix = self._require_vectorizer().transform(pairs)
        probabilities, machine_labels = self.classify_matrix(matrix)
        return matrix, probabilities, machine_labels

    def label(
        self, workload: Workload | PairSource, batch_size: int = 1024
    ) -> tuple[np.ndarray, np.ndarray]:
        """Label a workload with the classifier: ``(probabilities, hard labels)``.

        A :class:`~repro.data.sources.PairSource` is labeled chunk by chunk
        (``batch_size`` pairs at a time) so memory stays bounded by the chunk;
        an eager workload keeps the legacy one-shot path bit for bit.
        """
        self._check_fitted()
        if isinstance(workload, PairSource):
            probability_chunks: list[np.ndarray] = []
            label_chunks: list[np.ndarray] = []
            for chunk in workload.iter_chunks(batch_size):
                _, probabilities, machine_labels = self._classify_pairs(chunk)
                probability_chunks.append(probabilities)
                label_chunks.append(machine_labels)
            if not probability_chunks:
                return np.zeros(0, dtype=float), np.zeros(0, dtype=int)
            return np.concatenate(probability_chunks), np.concatenate(label_chunks)
        _, probabilities, machine_labels = self._classify_pairs(workload.pairs)
        return probabilities, machine_labels

    def score_chunk(self, pairs: list[RecordPair], explain_top: int = 0) -> ChunkScores:
        """Score one chunk of pairs: the shared unit of serial *and* parallel work.

        This is the exact computation a pool worker runs on its shard — the
        serial streaming loop and the process backend both call this one
        method (on the parent pipeline or on a state-identical clone), which
        is what makes multi-worker output structurally bit-identical to the
        serial path.
        """
        self._check_fitted()
        recorder = get_recorder()
        with recorder.span("score_chunk"):
            matrix, probabilities, machine_labels = self._classify_pairs(pairs)
            risk_scores = self.risk_model.score(matrix, probabilities, machine_labels)
            ranking = np.argsort(-risk_scores, kind="stable")
            explanations: dict[int, list[RuleContribution]] = {}
            if explain_top:
                riskiest = ranking[:explain_top]
                explained = self.risk_model.explain_pairs(
                    matrix[riskiest], probabilities[riskiest], machine_labels[riskiest]
                )
                for index, explanation in zip(riskiest, explained):
                    explanations[int(index)] = explanation.fired_rules
        recorder.count("pipeline.chunks_scored")
        recorder.count("pipeline.pairs_scored", len(pairs))
        return ChunkScores(
            probabilities=probabilities,
            machine_labels=machine_labels,
            risk_scores=risk_scores,
            ranking=ranking,
            explanations=explanations,
        )

    def _report_from_scores(self, pairs: list[RecordPair], scores: ChunkScores) -> RiskReport:
        """Assemble a :class:`RiskReport` from a chunk's scoring outputs.

        The AUROC is computed here, on the dispatching side, from the returned
        arrays plus the pairs' ground truth — identical code for chunks scored
        serially and chunks scored by a pool worker.
        """
        # AUROC is only defined for labeled workloads on which the classifier
        # made some (but not only) mistakes; check explicitly instead of
        # swallowing exceptions, so genuine scoring bugs surface.
        auroc = None
        if pairs and all(pair.ground_truth is not None for pair in pairs):
            ground_truth = np.array([pair.ground_truth for pair in pairs], dtype=int)
            risk_labels = mislabel_indicator(scores.machine_labels, ground_truth)
            if 0 < risk_labels.sum() < len(risk_labels):
                auroc = auroc_score(risk_labels, scores.risk_scores)
        return RiskReport(
            pairs=list(pairs),
            machine_probabilities=scores.probabilities,
            machine_labels=scores.machine_labels,
            risk_scores=scores.risk_scores,
            ranking=scores.ranking,
            auroc=auroc,
            explanations=dict(scores.explanations),
        )

    def _report(
        self, pairs: list[RecordPair], explain_top: int = 0
    ) -> RiskReport:
        """Score ``pairs`` and assemble a :class:`RiskReport`."""
        return self._report_from_scores(pairs, self.score_chunk(pairs, explain_top=explain_top))

    def analyse(self, workload: Workload | PairSource, explain_top: int = 0) -> RiskReport:
        """Label ``workload`` and rank its pairs by mislabeling risk.

        When the workload carries ground truth the report includes the AUROC
        of the risk ranking; ``explain_top`` attaches rule-level explanations
        for the given number of riskiest pairs.  A bounded
        :class:`~repro.data.sources.PairSource` is materialised first (a
        single report needs every pair); use :meth:`analyse_batches` to stay
        out-of-core.
        """
        self._check_fitted()
        return self._report(list(as_workload(workload).pairs), explain_top=explain_top)

    def warm_kernel(self) -> None:
        """Compile the rule-coverage kernel now (explicit warm-up).

        Called before streaming so every chunk reuses one compiled kernel
        instead of the first chunk paying the build cost; pool workers call it
        once right after rebuilding their pipeline (the kernel is lazy state
        that is deliberately not pickled).
        """
        self._check_fitted()
        self.risk_model.features.warm_kernel()

    def _resolve_execution(
        self,
        workers: int | None = None,
        execution: ExecutionConfig | Mapping[str, Any] | None = None,
    ) -> ExecutionConfig:
        """Merge the per-call execution overrides with the spec-level default."""
        config = ExecutionConfig.coerce(execution)
        if config is None:
            config = self.execution or ExecutionConfig()
        return config.with_workers(workers)

    @staticmethod
    def _length_hint(workload: Workload | PairSource) -> int | None:
        """Total pairs when cheaply known (steers auto backend choice only).

        Never materialises anything: sources and lazy source-backed workload
        views answer from their length *metadata* (``None`` when unknown or
        unbounded) — ``len()`` on a lazy view would fall back to loading
        every pair, which is exactly what the streaming stack must not do.
        """
        if isinstance(workload, PairSource):
            return workload.length
        if isinstance(workload, Workload) and not workload.is_materialized:
            return workload.source.length if workload.source is not None else None
        try:
            return len(workload)
        except TypeError:
            return None

    def analyse_batches(
        self,
        workload: Workload | PairSource,
        batch_size: int | None = None,
        explain_top: int = 0,
        workers: int | None = None,
        execution: ExecutionConfig | Mapping[str, Any] | None = None,
    ) -> Iterator[RiskReport]:
        """Stream :class:`RiskReport` chunks of at most ``batch_size`` pairs.

        Memory stays bounded by the batch size instead of the workload size,
        which is how large workloads should be analysed.  Accepts an eager
        :class:`Workload`, a lazy source-backed workload view, or a
        :class:`~repro.data.sources.PairSource` directly — streamed sources
        are never fully materialised.  Rankings, AUROC and explanations are
        per-chunk.

        ``workers`` / ``execution`` fan the chunks out to a worker pool
        through :class:`~repro.parallel.engine.ParallelScoringEngine`; the
        spec's ``execution`` field supplies the default configuration.
        Reports come back **in source order** and bit-identical to the serial
        path at any worker count and chunk size.  ``batch_size=None`` takes
        the execution config's ``chunk_size`` (1024 when unset).
        """
        self._check_fitted()
        config = self._resolve_execution(workers, execution)
        if batch_size is None:
            batch_size = config.resolve_chunk_size(1024)
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        # Only worth looking up when a pool is actually possible; with one
        # worker the backend is serial whatever the length says.
        length_hint = None if config.workers <= 1 else self._length_hint(workload)
        if config.resolve_backend(length_hint) == "serial":
            self.warm_kernel()
            for chunk in workload.iter_chunks(batch_size):
                if not chunk:  # defensive: custom sources may emit empty chunks
                    continue
                yield self._report(chunk, explain_top=explain_top)
            return
        # Imported lazily: repro.parallel.engine rebuilds pipelines through
        # this module, so the import must not be circular at module level.
        from ..parallel.engine import ParallelScoringEngine

        with ParallelScoringEngine(self, config) as engine:
            for chunk, scores in engine.map_chunks(
                workload.iter_chunks(batch_size),
                explain_top=explain_top,
                length_hint=length_hint,
            ):
                yield self._report_from_scores(chunk, scores)

    def explain_pair(self, pair: RecordPair, top_k: int | None = None) -> list[RuleContribution]:
        """Explain a single pair's risk in terms of the rules covering it."""
        return self.explain_pairs([pair], top_rules=top_k)[0].fired_rules

    def explain_pairs(
        self, pairs: list[RecordPair], top_rules: int | None = None
    ) -> list[PairRiskExplanation]:
        """Decision-level explanations for a batch of pairs.

        One :class:`~repro.risk.model.PairRiskExplanation` per pair, aligned
        with the input order: fired rules with weight shares, the aggregated
        equivalence distribution, its θ-confidence probability interval and
        the risk score (bit-identical to what :meth:`score_chunk` computes
        for the same pairs).
        """
        self._check_fitted()
        matrix, probabilities, machine_labels = self._classify_pairs(pairs)
        return self.risk_model.explain_pairs(
            matrix, probabilities, machine_labels, top_rules=top_rules
        )

    # ------------------------------------------------------------ persistence
    STATE_KIND = "learn_risk_pipeline"
    STATE_VERSION = 1

    def to_state(self) -> dict:
        """Export the full pipeline (spec, classifier, vectoriser, risk model).

        The layout extends the legacy pipeline state with the ``spec`` field,
        so states written by older library versions keep loading and states
        written here load in older versions (which ignore the spec).
        """
        self._check_fitted()
        tree_config = getattr(self.feature_generator, "tree_config", None)
        return component_state(self.STATE_KIND, self.STATE_VERSION, {
            "spec": self.spec.to_dict(),
            "classifier": self.classifier.to_state(),
            "tree_config": None if tree_config is None else asdict(tree_config),
            "training_config": asdict(self.training_config),
            "risk_metric": self.spec.risk_metric,
            "seed": self.spec.seed,
            "vectorizer": self.vectorizer.to_state(),
            # The vectoriser is shared with the risk features; store it once
            # at the pipeline level and re-wire the sharing on load.
            "risk_model": self.risk_model.to_state(include_vectorizer=False),
        })

    @classmethod
    def from_state(cls, state: dict) -> "StagedPipeline":
        """Rebuild a fitted pipeline written by :meth:`to_state`."""
        state = require_state(state, cls.STATE_KIND, cls.STATE_VERSION)
        classifier = classifier_from_state(state_field(state, "classifier", cls.STATE_KIND))
        training_config = dataclass_from_dict(
            TrainingConfig, state_field(state, "training_config", cls.STATE_KIND)
        )
        tree_config_values = state.get("tree_config")
        tree_config = (
            None if tree_config_values is None
            else dataclass_from_dict(OneSidedTreeConfig, tree_config_values)
        )
        spec_values = state.get("spec")
        if spec_values is not None:
            spec = PipelineSpec.from_dict(spec_values)
        else:
            # Legacy state (pre-spec): reconstruct a faithful spec from the
            # stored components, not the library defaults — the spec ends up
            # in spec.json sidecars and `inspect` output and must describe
            # what was actually saved.
            spec = PipelineSpec(
                classifier=component_spec_for_classifier(classifier),
                risk_features=ComponentSpec(
                    "onesided_tree",
                    {} if tree_config is None else {"tree": asdict(tree_config)},
                ),
                risk_metric=str(state.get("risk_metric", "var")),
                training=asdict(training_config),
                seed=int(state.get("seed", 0)),
            )
        vectorizer = PairVectorizer.from_state(state_field(state, "vectorizer", cls.STATE_KIND))
        # Share the single loaded vectoriser with the risk features, mirroring
        # the object graph fit() builds.
        risk_model = LearnRiskModel.from_state(
            state_field(state, "risk_model", cls.STATE_KIND), vectorizer=vectorizer
        )
        try:
            generator = create_risk_feature_generator(
                spec.risk_features.kind, spec.risk_features.params, spec.seed
            )
        except ConfigurationError:
            # The spec names a generator that is not registered in this
            # process (a custom component, or a legacy state); fall back to
            # the stored tree config so loaded pipelines stay usable.
            generator = RiskFeatureGenerator(tree_config=tree_config)
        if risk_model.config == training_config:
            # fit() shares one TrainingConfig between pipeline and risk model;
            # restore that sharing instead of keeping two equal copies.
            risk_model.config = training_config
        # Not through __init__: the fitted parts are restored from state, so a
        # model saved with a custom component loads without its factory being
        # registered in this process.
        pipeline = cls.__new__(cls)
        pipeline._assemble(spec, generator, training_config, vectorizer, classifier, risk_model)
        return pipeline


def build_pipeline(spec: PipelineSpec | Mapping[str, Any] | str | None = None) -> StagedPipeline:
    """Assemble a :class:`StagedPipeline` from a declarative spec.

    Accepts a :class:`PipelineSpec`, a mapping in its ``to_dict`` layout, a
    JSON document, or ``None`` for the default configuration.  Every component
    is resolved through the registries, so the spec fails fast on unknown keys.
    """
    if isinstance(spec, str):
        spec = PipelineSpec.from_json(spec)
    return StagedPipeline(spec)
