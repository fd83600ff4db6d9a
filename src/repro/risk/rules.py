"""Risk rules: the interpretable risk features of LearnRisk.

A risk rule is *one-sided* (Section 5): a conjunction of threshold conditions
over the basic metrics such that pairs satisfying the conjunction are very
likely equivalent (a *matching* rule) or very likely inequivalent (an
*unmatching* rule).  Nothing is implied about pairs that do not satisfy it.

A rule doubles as a risk feature: its equivalence-probability distribution has
an expectation estimated from the classifier training data (the fraction of
covered training pairs that are true matches) and a learnable variance, and a
learnable weight controls its influence in the portfolio aggregation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ..data.records import MATCH
from ..exceptions import PersistenceError


def as_float_matrix(metric_matrix: np.ndarray) -> np.ndarray:
    """Convert to a float64 array, skipping the no-op path entirely.

    Callers that evaluate many rules over one matrix
    (:func:`estimate_expectations`, :func:`remove_redundant_rules`) convert
    once at their boundary and hand the converted matrix to every rule, so
    no per-rule conversion — or copy, for non-float inputs — ever happens.
    """
    if isinstance(metric_matrix, np.ndarray) and metric_matrix.dtype == np.float64:
        return metric_matrix
    return np.asarray(metric_matrix, dtype=float)


@dataclass(frozen=True)
class Condition:
    """A single threshold condition over one basic metric.

    ``metric_index`` refers to a column of the
    :class:`~repro.features.vectorizer.PairVectorizer` matrix; ``metric_name``
    keeps the qualified name (e.g. ``"year.numeric_inequality"``) for
    interpretability.  ``is_leq`` selects ``value <= threshold`` versus
    ``value > threshold``.
    """

    metric_index: int
    metric_name: str
    threshold: float
    is_leq: bool

    def coverage(self, metric_matrix: np.ndarray) -> np.ndarray:
        """Vectorised membership mask over a metric matrix."""
        column = metric_matrix[:, self.metric_index]
        return column <= self.threshold if self.is_leq else column > self.threshold

    def describe(self) -> str:
        """Human-readable text, e.g. ``"year.numeric_inequality > 0.500"``."""
        operator = "<=" if self.is_leq else ">"
        return f"{self.metric_name} {operator} {self.threshold:.3f}"

    def to_dict(self) -> dict:
        """JSON-safe representation used by the persistence protocol."""
        return {
            "metric_index": self.metric_index,
            "metric_name": self.metric_name,
            "threshold": self.threshold,
            "is_leq": self.is_leq,
        }

    @classmethod
    def from_dict(cls, values: dict) -> "Condition":
        """Rebuild a condition written by :meth:`to_dict`."""
        try:
            return cls(
                metric_index=int(values["metric_index"]),
                metric_name=str(values["metric_name"]),
                threshold=float(values["threshold"]),
                is_leq=bool(values["is_leq"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(f"corrupted rule condition {values!r}") from exc


@dataclass(frozen=True)
class RiskRule:
    """A one-sided rule used as an interpretable risk feature.

    Parameters
    ----------
    conditions:
        Conjunction of :class:`Condition` objects (the rule's LHS).
    label:
        The implied class of covered pairs: ``MATCH`` or ``UNMATCH``.
    support:
        Number of rule-generation pairs covered by the rule.
    purity:
        Fraction of those pairs whose ground truth equals ``label``.
    expectation:
        Prior equivalence probability of covered pairs, estimated on the
        classifier training data (Section 6.2.1); set by the generator.
    """

    conditions: tuple[Condition, ...]
    label: int
    support: int = 0
    purity: float = 1.0
    expectation: float = 0.5
    name: str = field(default="", compare=False)

    def signature(self) -> tuple:
        """Hashable identity of the rule's logical content (used for dedup)."""
        return (
            tuple(sorted(
                (condition.metric_index, round(condition.threshold, 6), condition.is_leq)
                for condition in self.conditions
            )),
            self.label,
        )

    def coverage(self, metric_matrix: np.ndarray) -> np.ndarray:
        """Boolean mask of the pairs (rows) covered by the rule.

        The conversion below is a no-op for an already-converted float64
        matrix, so batch callers converting once up front (via
        :func:`as_float_matrix`) pay nothing per rule.
        """
        metric_matrix = as_float_matrix(metric_matrix)
        mask = np.ones(len(metric_matrix), dtype=bool)
        for condition in self.conditions:
            mask &= condition.coverage(metric_matrix)
        return mask

    def is_matching_rule(self) -> bool:
        """``True`` for a rule implying equivalence."""
        return self.label == MATCH

    def describe(self) -> str:
        """Paper-style description, e.g. ``"year.numeric_inequality > 0.5 -> inequivalent"``."""
        consequent = "equivalent" if self.label == MATCH else "inequivalent"
        antecedent = " AND ".join(condition.describe() for condition in self.conditions)
        return f"{antecedent} -> {consequent}"

    def with_expectation(self, expectation: float) -> "RiskRule":
        """Return a copy carrying the estimated prior expectation."""
        return RiskRule(
            conditions=self.conditions,
            label=self.label,
            support=self.support,
            purity=self.purity,
            expectation=float(expectation),
            name=self.name,
        )

    def to_dict(self) -> dict:
        """JSON-safe representation used by the persistence protocol."""
        return {
            "conditions": [condition.to_dict() for condition in self.conditions],
            "label": self.label,
            "support": self.support,
            "purity": self.purity,
            "expectation": self.expectation,
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, values: dict) -> "RiskRule":
        """Rebuild a rule written by :meth:`to_dict`."""
        try:
            return cls(
                conditions=tuple(
                    Condition.from_dict(condition) for condition in values["conditions"]
                ),
                label=int(values["label"]),
                support=int(values.get("support", 0)),
                purity=float(values.get("purity", 1.0)),
                expectation=float(values.get("expectation", 0.5)),
                name=str(values.get("name", "")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(f"corrupted risk rule state: {exc}") from exc


def estimate_expectations(
    rules: Sequence[RiskRule],
    metric_matrix: np.ndarray,
    labels: np.ndarray,
    smoothing: float = 1.0,
) -> list[RiskRule]:
    """Estimate each rule's prior expectation on the classifier training data.

    The expectation of a rule is the (Laplace-smoothed) fraction of covered
    training pairs that are true matches; rules covering no training pairs fall
    back to a label-consistent prior (0.95 for matching rules, 0.05 for
    unmatching rules).
    """
    metric_matrix = as_float_matrix(metric_matrix)
    labels = np.asarray(labels, dtype=int)
    estimated = []
    for rule in rules:
        mask = rule.coverage(metric_matrix)
        covered = int(mask.sum())
        if covered == 0:
            expectation = 0.95 if rule.label == MATCH else 0.05
        else:
            matches = int(labels[mask].sum())
            expectation = (matches + smoothing) / (covered + 2.0 * smoothing)
        estimated.append(rule.with_expectation(expectation))
    return estimated


def deduplicate_rules(rules: Sequence[RiskRule]) -> list[RiskRule]:
    """Drop rules with identical logical content, keeping the best-supported copy."""
    by_signature: dict[tuple, RiskRule] = {}
    for rule in rules:
        signature = rule.signature()
        existing = by_signature.get(signature)
        if existing is None or rule.support > existing.support:
            by_signature[signature] = rule
    return sorted(by_signature.values(), key=lambda rule: (-rule.support, rule.describe()))


def remove_redundant_rules(
    rules: Sequence[RiskRule], metric_matrix: np.ndarray, min_coverage: int = 1
) -> list[RiskRule]:
    """Remove rules whose coverage over ``metric_matrix`` duplicates another rule's.

    Two rules with exactly the same covered set (and the same label) carry the
    same information; the one with fewer conditions (more interpretable) wins.
    Rules covering fewer than ``min_coverage`` pairs are dropped outright.
    """
    metric_matrix = as_float_matrix(metric_matrix)
    kept: list[RiskRule] = []
    seen_masks: dict[tuple, RiskRule] = {}
    ordered = sorted(rules, key=lambda rule: (len(rule.conditions), -rule.support))
    for rule in ordered:
        mask = rule.coverage(metric_matrix)
        if int(mask.sum()) < min_coverage:
            continue
        key = (rule.label, mask.tobytes())
        if key in seen_masks:
            continue
        seen_masks[key] = rule
        kept.append(rule)
    return kept
