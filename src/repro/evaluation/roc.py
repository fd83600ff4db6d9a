"""ROC curves and AUROC (Section 3).

In risk analysis a *positive* is a mislabeled pair and a *negative* is a
correctly labeled pair; a risk model scores every pair and the ROC curve plots
the true-positive rate against the false-positive rate as the score threshold
sweeps.  AUROC is the probability that a randomly chosen mislabeled pair is
scored higher than a randomly chosen correctly labeled pair — the paper's
headline metric.  Implemented from scratch (no scikit-learn available).
:func:`auroc_score`, the rank form, lives in :mod:`repro.numerics` and is
re-exported here; :attr:`RocCurve.auroc` integrates the curve instead and can
differ from it in the last bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import DataError
from ..numerics import auroc_score  # noqa: F401 — the one rank AUROC, re-exported


@dataclass(frozen=True)
class RocCurve:
    """An ROC curve: matched arrays of false- and true-positive rates."""

    false_positive_rate: np.ndarray
    true_positive_rate: np.ndarray
    thresholds: np.ndarray

    @property
    def auroc(self) -> float:
        """Area under the curve by the trapezoidal rule."""
        trapezoid = getattr(np, "trapezoid", None) or np.trapz
        return float(trapezoid(self.true_positive_rate, self.false_positive_rate))


def roc_curve(labels: np.ndarray, scores: np.ndarray) -> RocCurve:
    """Compute the ROC curve of ``scores`` against binary ``labels``.

    Parameters
    ----------
    labels:
        1 for positives (mislabeled pairs), 0 for negatives.
    scores:
        Higher scores should indicate positives.
    """
    labels = np.asarray(labels, dtype=int)
    scores = np.asarray(scores, dtype=float)
    if labels.shape != scores.shape:
        raise DataError("labels and scores must have the same shape")
    if len(labels) == 0:
        raise DataError("cannot compute an ROC curve on empty input")

    order = np.argsort(-scores, kind="mergesort")
    sorted_scores = scores[order]
    sorted_labels = labels[order]

    # Cumulative counts at each distinct threshold (last index of each score run).
    distinct = np.nonzero(np.diff(sorted_scores))[0]
    threshold_indices = np.concatenate([distinct, [len(sorted_scores) - 1]])

    cumulative_positives = np.cumsum(sorted_labels)[threshold_indices]
    cumulative_negatives = (threshold_indices + 1) - cumulative_positives

    total_positives = int(labels.sum())
    total_negatives = len(labels) - total_positives
    if total_positives == 0 or total_negatives == 0:
        raise DataError("ROC requires at least one positive and one negative example")

    true_positive_rate = np.concatenate([[0.0], cumulative_positives / total_positives])
    false_positive_rate = np.concatenate([[0.0], cumulative_negatives / total_negatives])
    thresholds = np.concatenate([[np.inf], sorted_scores[threshold_indices]])
    return RocCurve(false_positive_rate, true_positive_rate, thresholds)


def mislabel_indicator(machine_labels: np.ndarray, ground_truth: np.ndarray) -> np.ndarray:
    """The risk-analysis label vector: 1 when the machine label is wrong."""
    machine_labels = np.asarray(machine_labels, dtype=int)
    ground_truth = np.asarray(ground_truth, dtype=int)
    if machine_labels.shape != ground_truth.shape:
        raise DataError("machine labels and ground truth must have the same shape")
    return (machine_labels != ground_truth).astype(int)
