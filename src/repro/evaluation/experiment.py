"""The experiment harness reproducing the paper's evaluation (Section 7).

The harness mirrors the paper's experimental protocol:

1. split a workload into (classifier training : validation : test) by a ratio
   such as 3:2:5;
2. train the machine classifier (the DeepMatcher substitute) on the training
   part and label the validation and test parts;
3. generate one-sided risk features from the training part;
4. fit every risk-analysis approach (the validation part is the risk-training
   data for learnable approaches);
5. score the test part and compute ROC/AUROC against the true mislabeled
   indicator.

Steps 2 and 3 run the first three stages of ``build_pipeline(spec)``, the
code that fits a served model, with the spec's decision threshold.  The
harness's default classifier is the paper's ``{"kind": "similarity_view"}``:
the MLP that stands in for DeepMatcher, restricted to the similarity metrics
because DeepMatcher never sees the difference metrics LearnRisk's rules use.
Any other classifier spec, such as ``"mlp"``, sees the full metric space.

On top of the core comparative run it provides the out-of-distribution
protocol (Figure 10), the HoloClean comparison on sampled sub-workloads
(Figure 11), the risk-training-size sensitivity study (Figure 12) and the
scalability measurements (Figure 13).
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Sequence

import numpy as np

from ..baselines import (
    BaseRiskScorer,
    HoloCleanBaseline,
    LearnRiskScorer,
    RiskContext,
    default_scorers,
)
from ..classifiers.base import BaseClassifier
from ..data.datasets import load_dataset
from ..data.records import Record, RecordPair, Table
from ..data.schema import Schema
from ..data.sources import PairSource, as_workload
from ..data.workload import Workload, split_workload
from ..exceptions import ConfigurationError, DataError
from ..features.vectorizer import PairVectorizer
from ..risk.feature_generation import GeneratedRiskFeatures, RiskFeatureGenerator
from ..risk.onesided_tree import OneSidedTreeConfig
from ..risk.training import TrainingConfig
from .metrics import f1_score
from .roc import RocCurve, auroc_score, mislabel_indicator, roc_curve

if TYPE_CHECKING:
    from ..compose.staged import StagedPipeline


@dataclass
class LabeledSplit:
    """A workload part with its metric matrix, classifier outputs and ground truth."""

    workload: Workload
    features: np.ndarray
    ground_truth: np.ndarray
    probabilities: np.ndarray | None = None
    machine_labels: np.ndarray | None = None

    @property
    def risk_labels(self) -> np.ndarray:
        """1 where the machine label disagrees with the ground truth."""
        if self.machine_labels is None:
            raise DataError("split has no machine labels yet")
        return mislabel_indicator(self.machine_labels, self.ground_truth)


@dataclass
class PreparedExperiment:
    """Everything shared by the risk approaches for one experimental setting."""

    dataset: str
    ratio: tuple[float, float, float]
    vectorizer: PairVectorizer
    classifier: BaseClassifier
    train: LabeledSplit
    validation: LabeledSplit
    test: LabeledSplit
    risk_features: GeneratedRiskFeatures
    classifier_f1: float
    seed: int = 0

    def context(self) -> RiskContext:
        """The fit-time context handed to every risk scorer."""
        return RiskContext(
            train_features=self.train.features,
            train_labels=self.train.ground_truth,
            validation_features=self.validation.features,
            validation_probabilities=self.validation.probabilities,
            validation_machine_labels=self.validation.machine_labels,
            validation_ground_truth=self.validation.ground_truth,
            classifier=self.classifier,
            risk_features=self.risk_features,
            seed=self.seed,
        )


@dataclass
class MethodResult:
    """One approach's risk-ranking quality on the test part."""

    name: str
    auroc: float
    scores: np.ndarray
    curve: RocCurve | None = None
    fit_seconds: float = 0.0
    score_seconds: float = 0.0


@dataclass
class ExperimentResult:
    """The outcome of one comparative experiment (one panel of Figure 9/10)."""

    dataset: str
    ratio: tuple[float, float, float]
    classifier_f1: float
    test_mislabel_rate: float
    n_rules: int
    methods: dict[str, MethodResult] = field(default_factory=dict)
    #: The mislabel indicator of the test pairs every method's scores rank.
    risk_labels: np.ndarray | None = None

    def auroc_table(self) -> dict[str, float]:
        """Mapping of approach name to AUROC, in insertion order."""
        return {name: result.auroc for name, result in self.methods.items()}

    def best_method(self) -> str:
        """Name of the approach with the highest AUROC."""
        return max(self.methods.values(), key=lambda result: result.auroc).name


def _resolve_workload(dataset: "str | Workload | PairSource", scale: float = 1.0) -> Workload:
    """Accept a dataset name, a workload, or a (bounded) pair source.

    Sources are materialised here: the experiment protocol needs random access
    for splitting, so this is the boundary where a streamed corpus becomes an
    in-memory workload.
    """
    if isinstance(dataset, str):
        return load_dataset(dataset, scale=scale)
    return as_workload(dataset)


def _fit_training_stages(
    train: Workload,
    classifier: str | Mapping[str, Any],
    tree_config: OneSidedTreeConfig | None,
    seed: int,
) -> "StagedPipeline":
    """Fit the vectoriser, the classifier and the rules on a training workload.

    These are the first three stages of ``build_pipeline(spec)`` for the spec
    the arguments describe; the risk approaches take the place of the fourth.
    """
    # Imported lazily: repro.compose imports this package for ROC helpers.
    from ..compose.staged import build_pipeline

    pipeline = build_pipeline({
        "classifier": classifier,
        "risk_features": {
            "kind": "onesided_tree",
            "params": {} if tree_config is None else {"tree": asdict(tree_config)},
        },
        "seed": seed,
    })
    return pipeline.fit_vectorizer(train).fit_classifier(train).generate_risk_features(train)


def _prepared_experiment(
    dataset: str,
    ratio: tuple[float, float, float],
    pipeline: "StagedPipeline",
    parts: tuple[Workload, Workload, Workload],
    seed: int,
) -> PreparedExperiment:
    """Vectorize and label the (train, validation, test) parts with ``pipeline``."""

    def labeled(part: Workload) -> LabeledSplit:
        features = pipeline.vectorizer.transform(part.pairs)
        probabilities, machine_labels = pipeline.classify_matrix(features)
        return LabeledSplit(
            workload=part,
            features=features,
            ground_truth=part.labels(),
            probabilities=probabilities,
            machine_labels=machine_labels,
        )

    train, validation, test = (labeled(part) for part in parts)
    return PreparedExperiment(
        dataset=dataset,
        ratio=ratio,
        vectorizer=pipeline.vectorizer,
        classifier=pipeline.classifier,
        train=train,
        validation=validation,
        test=test,
        risk_features=pipeline.risk_features,
        classifier_f1=f1_score(test.ground_truth, test.machine_labels),
        seed=seed,
    )


def prepare_experiment(
    workload: Workload | PairSource,
    ratio: tuple[float, float, float] = (3, 2, 5),
    classifier: str | Mapping[str, Any] = "similarity_view",
    tree_config: OneSidedTreeConfig | None = None,
    seed: int = 0,
) -> PreparedExperiment:
    """Split a workload, train the classifier and generate shared risk features.

    ``classifier`` is a classifier spec (a registry key or a
    ``{"kind": ..., "params": ...}`` mapping).  ``workload`` may also be a
    bounded :class:`~repro.data.sources.PairSource` (e.g. a
    :class:`~repro.data.sources.CsvPairSource` over an exported corpus),
    which is materialised for splitting.
    """
    workload = as_workload(workload)
    split = split_workload(workload, ratio=ratio, seed=seed)
    pipeline = _fit_training_stages(split.train, classifier, tree_config, seed)
    return _prepared_experiment(
        workload.name, ratio, pipeline, (split.train, split.validation, split.test), seed
    )


def evaluate_scorers(
    prepared: PreparedExperiment,
    scorers: Sequence[BaseRiskScorer] | None = None,
    compute_curves: bool = True,
) -> ExperimentResult:
    """Fit and score every approach on a prepared experiment."""
    scorers = list(scorers) if scorers is not None else default_scorers()
    context = prepared.context()
    test = prepared.test
    risk_labels = test.risk_labels

    result = ExperimentResult(
        dataset=prepared.dataset,
        ratio=prepared.ratio,
        classifier_f1=prepared.classifier_f1,
        test_mislabel_rate=float(np.mean(risk_labels)),
        n_rules=len(prepared.risk_features.rules),
        risk_labels=risk_labels,
    )
    for scorer in scorers:
        fit_start = time.perf_counter()
        scorer.fit(context)
        fit_seconds = time.perf_counter() - fit_start
        score_start = time.perf_counter()
        scores = scorer.score(test.features, test.probabilities, test.machine_labels)
        score_seconds = time.perf_counter() - score_start
        auroc = auroc_score(risk_labels, scores)
        curve = roc_curve(risk_labels, scores) if compute_curves else None
        result.methods[scorer.name] = MethodResult(
            name=scorer.name,
            auroc=auroc,
            scores=scores,
            curve=curve,
            fit_seconds=fit_seconds,
            score_seconds=score_seconds,
        )
    return result


# --------------------------------------------------------------------------- OOD
def _project_workload(
    workload: Workload, schema: Schema, rename: dict[str, str] | None = None
) -> Workload:
    """Restrict a workload to ``schema`` after renaming attributes.

    ``rename`` maps the workload's attribute names to the target names.  Pairs
    keep their ground truth; attributes absent from the source become missing.
    """
    rename = rename or {}

    def convert_record(record: Record, table_name: str) -> Record:
        values = {}
        for attribute in schema:
            source_names = [name for name, target in rename.items() if target == attribute.name]
            source_name = source_names[0] if source_names else attribute.name
            values[attribute.name] = record[source_name]
        return Record(record_id=record.record_id, values=values, source=table_name)

    left_table = Table(f"{workload.name}-left", schema)
    right_table = Table(f"{workload.name}-right", schema)
    for record in workload.left_table:
        left_table.add(convert_record(record, left_table.name))
    for record in workload.right_table:
        right_table.add(convert_record(record, right_table.name))
    pairs = [
        RecordPair(
            left=left_table[pair.left.record_id],
            right=right_table[pair.right.record_id],
            ground_truth=pair.ground_truth,
        )
        for pair in workload.pairs
    ]
    return Workload(workload.name, pairs, left_table, right_table)


def harmonise_for_ood(
    source: Workload, target: Workload, rename_source: dict[str, str] | None = None
) -> tuple[Workload, Workload, Schema]:
    """Project two workloads onto their shared attribute schema.

    ``rename_source`` maps source attribute names onto target names (e.g.
    Amazon-Google's ``title`` onto Abt-Buy's ``name``) before intersecting.
    The shared schema uses the *target* workload's attribute types.
    """
    rename_source = rename_source or {}
    source_names = {rename_source.get(name, name) for name in source.left_table.schema.names}
    shared = [
        attribute for attribute in target.left_table.schema
        if attribute.name in source_names
    ]
    if not shared:
        raise ConfigurationError(
            f"workloads {source.name!r} and {target.name!r} share no attributes"
        )
    schema = Schema(tuple(shared))
    inverse_rename = {name: rename_source.get(name, name) for name in source.left_table.schema.names}
    projected_source = _project_workload(source, schema, rename=inverse_rename)
    projected_target = _project_workload(target, schema)
    return projected_source, projected_target, schema


def run_ood_experiment(
    source_dataset: str | Workload | PairSource,
    target_dataset: str | Workload | PairSource,
    scale: float = 1.0,
    target_ratio: tuple[float, float, float] = (0, 3, 7),
    rename_source: dict[str, str] | None = None,
    scorers: Sequence[BaseRiskScorer] | None = None,
    classifier: str | Mapping[str, Any] = "similarity_view",
    tree_config: OneSidedTreeConfig | None = None,
    seed: int = 0,
) -> ExperimentResult:
    """Out-of-distribution evaluation (Figure 10): train on one dataset, analyse another.

    The classifier (a spec, as in :func:`prepare_experiment`) and the risk
    features are built from the *source* workload's training part; the
    risk-training (validation) and test data come from the *target*
    workload, mirroring the paper's DA2DS and AB2AG settings.
    """
    source = _resolve_workload(source_dataset, scale)
    target = _resolve_workload(target_dataset, scale)
    source, target, _ = harmonise_for_ood(source, target, rename_source)
    source_split = split_workload(source, ratio=(3, 2, 5), seed=seed)
    pipeline = _fit_training_stages(source_split.train, classifier, tree_config, seed)
    target_split = split_workload(target, ratio=target_ratio, seed=seed + 1)
    prepared = _prepared_experiment(
        f"{source.name}2{target.name}",
        target_ratio,
        pipeline,
        (source_split.train, target_split.validation, target_split.test),
        seed,
    )
    return evaluate_scorers(prepared, scorers=scorers)


# ---------------------------------------------------------------- HoloClean study
def run_holoclean_comparison(
    dataset: str | Workload | PairSource,
    scale: float = 1.0,
    ratio: tuple[float, float, float] = (3, 2, 5),
    subset_size: int = 1000,
    n_subsets: int = 5,
    seed: int = 0,
    tree_config: OneSidedTreeConfig | None = None,
) -> dict[str, float]:
    """LearnRisk vs the HoloClean-style rule model on sampled test workloads (Figure 11).

    Returns the mean AUROC of each approach over ``n_subsets`` random subsets
    of the test part (each of ``subset_size`` pairs, capped at the test size).
    """
    workload = _resolve_workload(dataset, scale)
    prepared = prepare_experiment(workload, ratio=ratio, tree_config=tree_config, seed=seed)
    context = prepared.context()

    learn_risk = LearnRiskScorer()
    learn_risk.fit(context)
    holoclean = HoloCleanBaseline(max_rules=max(10, len(prepared.risk_features.rules)))
    holoclean.fit(context)

    rng = np.random.default_rng(seed)
    test = prepared.test
    subset_size = min(subset_size, len(test.workload))
    aurocs: dict[str, list[float]] = {"LearnRisk": [], "HoloClean": []}
    for _ in range(n_subsets):
        indices = rng.choice(len(test.workload), size=subset_size, replace=False)
        risk_labels = test.risk_labels[indices]
        if risk_labels.sum() == 0 or risk_labels.sum() == len(risk_labels):
            continue
        features = test.features[indices]
        probabilities = test.probabilities[indices]
        machine_labels = test.machine_labels[indices]
        for name, scorer in (("LearnRisk", learn_risk), ("HoloClean", holoclean)):
            scores = scorer.score(features, probabilities, machine_labels)
            aurocs[name].append(auroc_score(risk_labels, scores))
    return {
        name: float(np.mean(values)) if values else float("nan")
        for name, values in aurocs.items()
    }


# -------------------------------------------------------------------- sensitivity
def run_sensitivity_experiment(
    dataset: str | Workload | PairSource,
    risk_training_sizes: Sequence[float | int],
    selection: str = "random",
    scale: float = 1.0,
    seed: int = 0,
    tree_config: OneSidedTreeConfig | None = None,
    training_config: TrainingConfig | None = None,
) -> dict[str | int | float, float]:
    """AUROC of LearnRisk versus the amount of risk-training data (Figure 12).

    ``risk_training_sizes`` entries are either fractions of the workload (the
    random-sampling panels, 1 %–20 %) or absolute pair counts (the
    active-selection panels, 100–400).  ``selection`` is ``"random"`` or
    ``"active"``; active selection repeatedly picks the pairs with the most
    ambiguous classifier output from the validation pool.
    """
    if selection not in {"random", "active"}:
        raise ConfigurationError("selection must be 'random' or 'active'")
    workload = _resolve_workload(dataset, scale)
    prepared = prepare_experiment(workload, ratio=(3, 2, 5), tree_config=tree_config, seed=seed)
    validation = prepared.validation
    test = prepared.test
    risk_labels_test = test.risk_labels
    pool_size = len(validation.workload)
    ambiguity = 1.0 - np.abs(2.0 * validation.probabilities - 1.0)
    rng = np.random.default_rng(seed)

    results: dict[str | int | float, float] = {}
    for size in risk_training_sizes:
        if isinstance(size, float) and size <= 1.0:
            count = max(10, int(round(size * len(workload))))
        else:
            count = int(size)
        count = min(count, pool_size)
        if selection == "random":
            chosen = rng.choice(pool_size, size=count, replace=False)
        else:
            chosen = np.argsort(-ambiguity, kind="stable")[:count]

        scorer = LearnRiskScorer(training_config=training_config)
        context = RiskContext(
            train_features=prepared.train.features,
            train_labels=prepared.train.ground_truth,
            validation_features=validation.features[chosen],
            validation_probabilities=validation.probabilities[chosen],
            validation_machine_labels=validation.machine_labels[chosen],
            validation_ground_truth=validation.ground_truth[chosen],
            classifier=prepared.classifier,
            risk_features=prepared.risk_features,
            seed=seed,
        )
        scorer.fit(context)
        scores = scorer.score(test.features, test.probabilities, test.machine_labels)
        results[size] = auroc_score(risk_labels_test, scores)
    return results


# -------------------------------------------------------------------- scalability
def run_scalability_experiment(
    dataset: str | Workload | PairSource,
    training_sizes: Sequence[int],
    risk_training_sizes: Sequence[int],
    scale: float = 1.0,
    seed: int = 0,
    tree_config: OneSidedTreeConfig | None = None,
    training_config: TrainingConfig | None = None,
) -> dict[str, dict[int, float]]:
    """Runtime of rule generation and of risk-model training vs data size (Figure 13).

    Returns ``{"rule_generation": {size: seconds}, "risk_training": {size: seconds}}``.
    Sizes larger than the available data are clipped to what is available.
    """
    workload = _resolve_workload(dataset, scale)
    prepared = prepare_experiment(workload, ratio=(3, 2, 5), tree_config=tree_config, seed=seed)
    generator = RiskFeatureGenerator(tree_config=tree_config)

    rule_times: dict[int, float] = {}
    for size in training_sizes:
        count = min(int(size), len(prepared.train.workload))
        subset = prepared.train.workload.sample(count, seed=seed)
        start = time.perf_counter()
        generator.generate(subset, vectorizer=prepared.vectorizer)
        rule_times[int(size)] = time.perf_counter() - start

    training_times: dict[int, float] = {}
    validation = prepared.validation
    rng = np.random.default_rng(seed)
    for size in risk_training_sizes:
        count = min(int(size), len(validation.workload))
        chosen = rng.choice(len(validation.workload), size=count, replace=False)
        scorer = LearnRiskScorer(training_config=training_config)
        context = RiskContext(
            train_features=prepared.train.features,
            train_labels=prepared.train.ground_truth,
            validation_features=validation.features[chosen],
            validation_probabilities=validation.probabilities[chosen],
            validation_machine_labels=validation.machine_labels[chosen],
            validation_ground_truth=validation.ground_truth[chosen],
            classifier=prepared.classifier,
            risk_features=prepared.risk_features,
            seed=seed,
        )
        start = time.perf_counter()
        scorer.fit(context)
        training_times[int(size)] = time.perf_counter() - start

    return {"rule_generation": rule_times, "risk_training": training_times}
