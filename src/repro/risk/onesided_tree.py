"""One-sided decision trees (Section 5.2, Algorithm 1).

A two-sided CART partition tries to make *both* children pure.  Rule generation
for risk analysis only needs *one* pure child per split: the pure child becomes
a rule (risk feature) and the impure child is split again.  The split quality
is the paper's one-sided Gini index (Eq. 7)

    Ĝ(D, o) = min( λ / |D_L| + (1 − λ)·G(D_L),   λ / |D_R| + (1 − λ)·G(D_R) )

with a small λ so purity dominates size, and a class-weighting knob that lets
the generator up-weight the rare matching class when it hunts for matching
rules (the generated matching rules are then re-validated *without* weighting).

The exact Algorithm 1 enumerates every (attribute, class-weight) choice at
every level, which is exponential in the depth; this implementation branches
exhaustively for the first ``branch_depth`` levels (default 1, i.e. every
(metric, class-weight) combination gets its own tree) and proceeds greedily
below that, which preserves the paper's behaviour — a forest of shallow trees
whose pure leaves become hundreds of diverse one-sided rules — at a cost linear
in the number of metrics per level.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ..data.records import MATCH, UNMATCH
from ..exceptions import ConfigurationError
from .rules import Condition, RiskRule


@dataclass(frozen=True)
class OneSidedSplit:
    """The outcome of one one-sided partition operation."""

    metric_index: int
    threshold: float
    score: float
    pure_is_left: bool


def gini_value(labels: np.ndarray, weights: np.ndarray | None = None) -> float:
    """(Weighted) Gini impurity of a label subset (Eq. 6)."""
    if len(labels) == 0:
        return 0.0
    if weights is None:
        positive = float(np.mean(labels))
    else:
        total = float(weights.sum())
        if total <= 0.0:
            return 0.0
        positive = float(weights[labels == 1].sum() / total)
    return _gini_of_share(positive)


def _gini_of_share(positive: float) -> float:
    """Eq. 6 from the positive class's (weight) share, in Python floats.

    ``positive`` must be a Python ``float``: numpy's ``** 2`` multiplies where
    Python's calls ``pow``, and the two round apart on some shares.
    """
    return 1.0 - positive ** 2 - (1.0 - positive) ** 2


def best_one_sided_split(
    metric_matrix: np.ndarray,
    labels: np.ndarray,
    metric_index: int,
    lam: float,
    min_support: int,
    weights: np.ndarray | None = None,
    max_thresholds: int = 64,
) -> OneSidedSplit | None:
    """Find the threshold on one metric minimising the one-sided Gini index.

    One stable sort of the column serves every candidate: a binary search
    gives its left count and prefix sums give both sides' class totals, so a
    node costs O(n log n) per metric, not a pass over the column per
    threshold.  Both sides' Eq. 7 terms are then evaluated in Python floats
    in the order of :func:`gini_value`, and the first minimum wins.
    """
    column = metric_matrix[:, metric_index]
    unique_values = np.unique(column)
    if len(unique_values) < 2:
        return None
    # Candidate thresholds: midpoints between consecutive distinct values,
    # subsampled when the metric is continuous with many distinct values.
    midpoints = (unique_values[:-1] + unique_values[1:]) / 2.0
    if len(midpoints) > max_thresholds:
        positions = np.linspace(0, len(midpoints) - 1, max_thresholds).astype(int)
        midpoints = midpoints[positions]

    # ``column <= threshold`` counted on the sorted column: a midpoint that
    # rounds onto the upper value counts it, and a NaN midpoint counts nothing.
    order = np.argsort(column, kind="stable")
    left_counts = np.searchsorted(column[order], midpoints, side="right")
    left_counts[np.isnan(midpoints)] = 0
    n_total = len(column)
    valid = (left_counts >= min_support) & (n_total - left_counts >= min_support)
    if not valid.any():
        return None
    counts = left_counts[valid]

    # Each class's mass left of each candidate, as prefix sums over the
    # sorted column.  With integer weights every prefix sum is an exact
    # integer, so it equals the masked sum it replaces whatever the summation
    # order; and a side with no mass of one class sums exactly to the other.
    sorted_labels = labels[order]
    if weights is None:
        positive_mass = sorted_labels
        negative_mass = 1 - sorted_labels
    else:
        sorted_weights = weights[order]
        positive_mass = np.where(sorted_labels == 1, sorted_weights, 0.0)
        negative_mass = np.where(sorted_labels == 1, 0.0, sorted_weights)
    positives = np.concatenate(([0], np.cumsum(positive_mass)))
    negatives = np.concatenate(([0], np.cumsum(negative_mass)))
    left_positive, left_negative = positives[counts], negatives[counts]
    right_positive = positives[-1] - left_positive
    right_negative = negatives[-1] - left_negative
    left_terms = _side_terms(lam, counts, left_positive, left_positive + left_negative)
    right_terms = _side_terms(
        lam, n_total - counts, right_positive, right_positive + right_negative
    )
    # Eq. 7: the purer side's term scores the partition; the first minimum wins.
    scores = [left if left <= right else right for left, right in zip(left_terms, right_terms)]
    best = min(range(len(scores)), key=scores.__getitem__)
    return OneSidedSplit(
        metric_index, float(midpoints[valid][best]), scores[best],
        left_terms[best] <= right_terms[best],
    )


def _side_terms(
    lam: float, sizes: np.ndarray, positive: np.ndarray, mass: np.ndarray
) -> list[float]:
    """Each subset's Eq. 7 term ``λ/|D| + (1 − λ)·G(D)``, in Python floats.

    ``positive`` and ``mass`` are the subsets' positive-class and total
    (weight) masses; an empty or massless subset has Gini 0, as in
    :func:`gini_value`.
    """
    return [
        lam / size + (1.0 - lam) * (_gini_of_share(p / m) if m > 0 else 0.0)
        for size, p, m in zip(np.maximum(sizes, 1).tolist(), positive.tolist(), mass.tolist())
    ]


@dataclass
class OneSidedTreeConfig:
    """Hyper-parameters of the one-sided tree construction (paper defaults).

    Parameters
    ----------
    max_depth:
        Maximum number of conditions per rule (``h`` in Algorithm 1, <= 4).
    impurity_threshold:
        Maximum Gini impurity (``τ``) for a leaf to become a rule.
    min_support:
        Minimum number of pairs in an extracted subset (5 in the paper).
    lam:
        Size/purity balance ``λ`` of the one-sided Gini index (0.2 in the paper).
    match_class_weight:
        Weight applied to matching pairs when searching for matching rules
        (1000 in the paper); generated matching rules are re-validated without
        this weight.
    branch_depth:
        Number of levels enumerated exhaustively over all metrics before the
        construction proceeds greedily.
    max_thresholds:
        Cap on candidate thresholds per metric per node.
    """

    max_depth: int = 3
    impurity_threshold: float = 0.1
    min_support: int = 5
    lam: float = 0.2
    match_class_weight: float = 1000.0
    branch_depth: int = 1
    max_thresholds: int = 64

    def __post_init__(self) -> None:
        if self.max_depth < 1:
            raise ConfigurationError("max_depth must be >= 1")
        if not 0.0 <= self.lam <= 1.0:
            raise ConfigurationError("lam must be in [0, 1]")
        if not 0.0 < self.impurity_threshold < 0.5:
            raise ConfigurationError("impurity_threshold must be in (0, 0.5)")
        if self.min_support < 1:
            raise ConfigurationError("min_support must be >= 1")
        if not (math.isfinite(self.match_class_weight) and self.match_class_weight > 0.0):
            raise ConfigurationError("match_class_weight must be finite and > 0")
        if self.branch_depth < 0:
            raise ConfigurationError("branch_depth must be >= 0")
        if not (isinstance(self.max_thresholds, numbers.Integral) and self.max_thresholds >= 1):
            raise ConfigurationError("max_thresholds must be an integer >= 1")


class OneSidedTreeBuilder:
    """Builds a forest of one-sided trees and extracts their rules.

    Parameters
    ----------
    config:
        Construction hyper-parameters.
    metric_names:
        Qualified metric names (column names of the metric matrix), used to
        produce interpretable rule descriptions.
    """

    def __init__(self, config: OneSidedTreeConfig, metric_names: list[str]) -> None:
        self.config = config
        self.metric_names = list(metric_names)

    # ---------------------------------------------------------------- helpers
    def _leaf_rule(
        self,
        conditions: tuple[Condition, ...],
        labels: np.ndarray,
    ) -> RiskRule | None:
        """Validate a candidate leaf (unweighted purity and support) into a rule."""
        support = len(labels)
        if support < self.config.min_support or not conditions:
            return None
        impurity = gini_value(labels)
        if impurity > self.config.impurity_threshold:
            return None
        positive_fraction = float(np.mean(labels))
        label = MATCH if positive_fraction >= 0.5 else UNMATCH
        purity = positive_fraction if label == MATCH else 1.0 - positive_fraction
        return RiskRule(conditions=conditions, label=label, support=support, purity=purity)

    def _condition_from_split(self, split: OneSidedSplit, pure_side: bool) -> Condition:
        return Condition(
            metric_index=split.metric_index,
            metric_name=self.metric_names[split.metric_index],
            threshold=split.threshold,
            is_leq=pure_side == split.pure_is_left,
        )

    # ----------------------------------------------------------------- build
    def build(self, metric_matrix: np.ndarray, labels: np.ndarray) -> list[RiskRule]:
        """Construct the one-sided forest and return every extracted rule."""
        metric_matrix = np.asarray(metric_matrix, dtype=float)
        labels = np.asarray(labels, dtype=int)
        if len(metric_matrix) != len(labels):
            raise ConfigurationError("metric matrix and labels must have equal length")
        rules: list[RiskRule] = []
        if len(labels) < 2 * self.config.min_support:
            return rules

        for class_weight in (1.0, self.config.match_class_weight):
            weights = np.ones(len(labels), dtype=float)
            weights[labels == 1] = class_weight
            self._construct(
                metric_matrix, labels, weights,
                conditions=(), depth=0, rules=rules, exhaustive=True,
            )
        return rules

    def _construct(
        self,
        metric_matrix: np.ndarray,
        labels: np.ndarray,
        weights: np.ndarray,
        conditions: tuple[Condition, ...],
        depth: int,
        rules: list[RiskRule],
        exhaustive: bool,
    ) -> None:
        if depth >= self.config.max_depth or len(labels) < 2 * self.config.min_support:
            return
        splits = [
            best_one_sided_split(
                metric_matrix, labels, metric_index, self.config.lam,
                self.config.min_support, weights, self.config.max_thresholds,
            )
            for metric_index in range(metric_matrix.shape[1])
        ]
        splits = [split for split in splits if split is not None]
        if splits and not (exhaustive and depth < self.config.branch_depth):
            # Greedy: follow only the best split over all metrics (the first on ties).
            splits = [min(splits, key=lambda split: split.score)]
        for split in splits:
            self._descend(metric_matrix, labels, weights, conditions, depth, rules, split)

    def _descend(
        self,
        metric_matrix: np.ndarray,
        labels: np.ndarray,
        weights: np.ndarray,
        conditions: tuple[Condition, ...],
        depth: int,
        rules: list[RiskRule],
        split: OneSidedSplit,
    ) -> None:
        column = metric_matrix[:, split.metric_index]
        left_mask = column <= split.threshold
        pure_mask = left_mask if split.pure_is_left else ~left_mask
        impure_mask = ~pure_mask

        pure_condition = self._condition_from_split(split, pure_side=True)
        pure_conditions = conditions + (pure_condition,)
        rule = self._leaf_rule(pure_conditions, labels[pure_mask])
        if rule is not None:
            rules.append(rule)

        # The impure side keeps being partitioned (greedily below branch_depth).
        impure_condition = self._condition_from_split(split, pure_side=False)
        impure_conditions = conditions + (impure_condition,)
        remaining_labels = labels[impure_mask]
        if len(remaining_labels) >= 2 * self.config.min_support:
            remaining_impurity = gini_value(remaining_labels)
            if remaining_impurity <= self.config.impurity_threshold:
                rule = self._leaf_rule(impure_conditions, remaining_labels)
                if rule is not None:
                    rules.append(rule)
            else:
                self._construct(
                    metric_matrix[impure_mask], remaining_labels, weights[impure_mask],
                    impure_conditions, depth + 1, rules, exhaustive=False,
                )
