"""repro: a reproduction of LearnRisk — interpretable and learnable risk analysis for ER.

The package implements the full system of Chen et al., "Towards Interpretable
and Learnable Risk Analysis for Entity Resolution" (SIGMOD 2020), plus every
substrate it relies on: synthetic benchmark workloads, similarity/difference
metrics, ER classifiers, a small autodiff engine, the baselines it is compared
against and the evaluation harness that regenerates the paper's tables and
figures.

Quick start::

    from repro import build_pipeline, load_dataset, split_workload

    workload = load_dataset("DS", scale=0.3)
    split = split_workload(workload, ratio=(3, 2, 5), seed=0)
    pipeline = build_pipeline().fit(split.train, split.validation)
    report = pipeline.analyse(split.test, explain_top=5)
    print(report.auroc, report.top_risky(3))
"""

from .compose import (
    ComponentSpec,
    PipelineSpec,
    RiskReport,
    StagedPipeline,
    build_pipeline,
    register_classifier,
    register_risk_feature_generator,
    register_risk_metric,
    register_vectorizer,
    register_source,
    registered_classifiers,
    registered_risk_metrics,
    registered_sources,
)
from .data import (
    MATCH,
    UNMATCH,
    CsvPairSource,
    GeneratorSource,
    InMemorySource,
    PairSource,
    Record,
    RecordPair,
    Schema,
    ShardedSource,
    Table,
    Workload,
    load_dataset,
    split_workload,
)
from .evaluation import (
    auroc_score,
    run_holoclean_comparison,
    run_ood_experiment,
    run_scalability_experiment,
    run_sensitivity_experiment,
)
from .parallel import ChunkScores, ExecutionConfig, ParallelScoringEngine
from .risk import (
    GeneratedRiskFeatures,
    LearnRiskModel,
    OneSidedTreeConfig,
    RiskFeatureGenerator,
    TrainingConfig,
)
from .serve import (
    ModelRegistry,
    RiskService,
    load_pipeline,
    save_pipeline,
)

__version__ = "1.2.0"

__all__ = [
    "ComponentSpec",
    "ChunkScores",
    "CsvPairSource",
    "ExecutionConfig",
    "GeneratedRiskFeatures",
    "GeneratorSource",
    "InMemorySource",
    "LearnRiskModel",
    "MATCH",
    "ModelRegistry",
    "OneSidedTreeConfig",
    "PairSource",
    "ParallelScoringEngine",
    "PipelineSpec",
    "Record",
    "RecordPair",
    "RiskFeatureGenerator",
    "RiskReport",
    "RiskService",
    "Schema",
    "ShardedSource",
    "StagedPipeline",
    "Table",
    "TrainingConfig",
    "UNMATCH",
    "Workload",
    "auroc_score",
    "build_pipeline",
    "load_dataset",
    "load_pipeline",
    "register_classifier",
    "register_risk_feature_generator",
    "register_risk_metric",
    "register_source",
    "register_vectorizer",
    "registered_classifiers",
    "registered_risk_metrics",
    "registered_sources",
    "run_holoclean_comparison",
    "run_ood_experiment",
    "run_scalability_experiment",
    "run_sensitivity_experiment",
    "save_pipeline",
    "split_workload",
    "__version__",
]
