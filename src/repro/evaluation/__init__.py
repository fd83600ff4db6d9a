"""Evaluation: ROC/AUROC, classifier metrics, the experiment harness and reporting."""

from .experiment import (
    ExperimentResult,
    LabeledSplit,
    MethodResult,
    PreparedExperiment,
    evaluate_scorers,
    harmonise_for_ood,
    prepare_experiment,
    run_holoclean_comparison,
    run_ood_experiment,
    run_scalability_experiment,
    run_sensitivity_experiment,
)
from .metrics import (
    ConfusionMatrix,
    confusion_matrix,
    f1_score,
    precision_score,
    recall_at_budget,
    recall_score,
)
from .reporting import format_table
from .roc import RocCurve, auroc_score, mislabel_indicator, roc_curve

__all__ = [
    "ConfusionMatrix",
    "ExperimentResult",
    "LabeledSplit",
    "MethodResult",
    "PreparedExperiment",
    "RocCurve",
    "auroc_score",
    "confusion_matrix",
    "evaluate_scorers",
    "f1_score",
    "format_table",
    "harmonise_for_ood",
    "mislabel_indicator",
    "precision_score",
    "prepare_experiment",
    "recall_at_budget",
    "recall_score",
    "roc_curve",
    "run_holoclean_comparison",
    "run_ood_experiment",
    "run_scalability_experiment",
    "run_sensitivity_experiment",
]
