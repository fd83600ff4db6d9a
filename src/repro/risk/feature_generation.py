"""Automatic risk-feature generation (Section 5).

The :class:`RiskFeatureGenerator` glues the pieces of Section 5 together:

1. vectorise the rule-generation pairs with the basic metrics
   (:class:`~repro.features.vectorizer.PairVectorizer`);
2. grow a forest of one-sided decision trees
   (:class:`~repro.risk.onesided_tree.OneSidedTreeBuilder`), once without class
   weighting (yielding mostly unmatching rules) and once with a large matching
   class weight (yielding matching rules), then validate all rules unweighted;
3. deduplicate and drop redundant/low-coverage rules;
4. estimate each rule's prior equivalence expectation on the classifier
   training data (Section 6.2.1).

The resulting :class:`GeneratedRiskFeatures` carries the rules plus the fitted
vectoriser so that any workload can later be mapped onto the same rule space.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..data.records import MATCH
from ..data.workload import Workload
from ..exceptions import DataError, PersistenceError
from ..features.vectorizer import PairVectorizer
from ..serialization import component_state, require_state, state_field
from .engine import RuleKernel
from .onesided_tree import OneSidedTreeBuilder, OneSidedTreeConfig
from .rules import RiskRule, deduplicate_rules, estimate_expectations, remove_redundant_rules


@dataclass
class GeneratedRiskFeatures:
    """The output of risk-feature generation.

    Attributes
    ----------
    rules:
        The validated, deduplicated one-sided rules with estimated expectations.
    vectorizer:
        The fitted :class:`PairVectorizer`; downstream code uses it to map new
        pairs into the same metric space before computing rule coverage.
    generation_seconds:
        Wall-clock time of rule generation (Figure 13a): vectorising the rule
        workload, growing the forest, deduplication, redundancy removal and
        estimating the expectations; fitting a fresh vectoriser is excluded.
        It describes the fit run, not the model, so :meth:`to_state` does not
        save it: two fits of one spec save byte-identical models.
    """

    rules: list[RiskRule]
    vectorizer: PairVectorizer
    generation_seconds: float = 0.0
    statistics: dict[str, float] = field(default_factory=dict)
    _kernel: RuleKernel | None = field(default=None, init=False, repr=False, compare=False)
    # The exact list object the kernel was compiled from (holding the
    # reference keeps the identity check sound: a freed list's id could be
    # reused by a new list, a plain id() key would then serve a stale kernel).
    _kernel_rules: list | None = field(default=None, init=False, repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.rules)

    @property
    def kernel(self) -> RuleKernel:
        """The compiled rule-coverage kernel, built lazily and reused across calls.

        The kernel is invalidated when ``rules`` is rebound or changes length
        (the two mutations the codebase performs); call
        :meth:`invalidate_kernel` after replacing rule objects in place.
        """
        if (
            self._kernel is None
            or self._kernel_rules is not self.rules
            or self._kernel.n_rules != len(self.rules)
        ):
            self._kernel = RuleKernel(self.rules)
            self._kernel_rules = self.rules
        return self._kernel

    def warm_kernel(self) -> RuleKernel:
        """Compile the rule kernel now (explicit warm-up) and return it.

        Pool workers call this right after unpickling so the first scored
        chunk never pays the kernel build cost; it is also the documented way
        to pre-warm before handing the features to concurrent threads (the
        lazy build is a benign race, but warming makes it a non-event).
        """
        return self.kernel

    def invalidate_kernel(self) -> None:
        """Force the next :attr:`kernel` access to recompile the rule set."""
        self._kernel = None
        self._kernel_rules = None

    # ------------------------------------------------------------- worker safety
    def __getstate__(self) -> dict:
        """Pickle without the lazy kernel cache.

        The compiled :class:`RuleKernel` is derived state: shipping it to pool
        workers would inflate every fork/spawn payload with the flattened
        condition arrays, and its identity-based invalidation check
        (``_kernel_rules is self.rules``) is not meaningful across process
        boundaries.  Workers recompile explicitly via :meth:`warm_kernel`.
        """
        state = self.__dict__.copy()
        state["_kernel"] = None
        state["_kernel_rules"] = None
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._kernel = None
        self._kernel_rules = None

    def membership(self, metric_matrix: np.ndarray) -> np.ndarray:
        """Binary ``(n_pairs, n_rules)`` rule membership over a metric matrix.

        Delegates to the compiled :attr:`kernel`, which is bit-identical to
        the per-rule Python loop kept as the parity oracle in
        ``tests/risk/test_engine.py``.
        """
        return self.kernel.membership(metric_matrix, dtype=float)

    def describe(self, limit: int | None = None) -> list[str]:
        """Human-readable rule descriptions (optionally only the first ``limit``)."""
        rules = self.rules if limit is None else self.rules[:limit]
        return [rule.describe() for rule in rules]

    def coverage_fraction(self, metric_matrix: np.ndarray) -> float:
        """Fraction of pairs covered by at least one rule (the paper's "high coverage")."""
        matrix = self.membership(metric_matrix)
        if matrix.shape[1] == 0:
            return 0.0
        return float(np.mean(matrix.sum(axis=1) > 0))

    # ------------------------------------------------------------ persistence
    STATE_KIND = "risk_features"
    STATE_VERSION = 1

    def to_state(self, include_vectorizer: bool = True) -> dict:
        """Export the rules and the fitted vectoriser as a JSON-safe state dict.

        ``include_vectorizer=False`` omits the embedded vectoriser state (which
        contains the full per-attribute IDF tables); the caller must then
        supply a vectoriser to :meth:`from_state`.  The pipeline uses this to
        avoid storing the shared vectoriser twice.
        """
        return component_state(self.STATE_KIND, self.STATE_VERSION, {
            "rules": [rule.to_dict() for rule in self.rules],
            "vectorizer": self.vectorizer.to_state() if include_vectorizer else None,
            "statistics": {str(key): float(value) for key, value in self.statistics.items()},
        })

    @classmethod
    def from_state(
        cls, state: dict, vectorizer: PairVectorizer | None = None
    ) -> "GeneratedRiskFeatures":
        """Rebuild features written by :meth:`to_state`.

        ``vectorizer`` lets a caller share one already-loaded vectoriser
        instead of inflating the embedded copy (the pipeline does this so its
        vectoriser and its features' vectoriser stay the same object).
        """
        state = require_state(state, cls.STATE_KIND, cls.STATE_VERSION)
        if vectorizer is None:
            vectorizer_state = state_field(state, "vectorizer", cls.STATE_KIND)
            if vectorizer_state is None:
                raise PersistenceError(
                    "risk-features state was saved without an embedded vectoriser; "
                    "pass the shared vectoriser to from_state"
                )
            vectorizer = PairVectorizer.from_state(vectorizer_state)
        rules = [
            RiskRule.from_dict(rule_state)
            for rule_state in state_field(state, "rules", cls.STATE_KIND)
        ]
        return cls(
            rules=rules,
            vectorizer=vectorizer,
            # Only models saved by older versions carry the fit run's timing.
            generation_seconds=float(state.get("generation_seconds", 0.0)),
            statistics={str(k): float(v) for k, v in state.get("statistics", {}).items()},
        )


class RiskFeatureGenerator:
    """End-to-end generator of interpretable risk features.

    Parameters
    ----------
    tree_config:
        One-sided tree hyper-parameters (depth, purity threshold, λ, ...).
    min_rule_coverage:
        Minimum number of rule-generation pairs a rule must cover to be kept.
    expectation_smoothing:
        Laplace smoothing used when estimating rule expectations.
    """

    def __init__(
        self,
        tree_config: OneSidedTreeConfig | None = None,
        min_rule_coverage: int = 5,
        expectation_smoothing: float = 1.0,
    ) -> None:
        self.tree_config = tree_config or OneSidedTreeConfig()
        self.min_rule_coverage = min_rule_coverage
        self.expectation_smoothing = expectation_smoothing

    def generate(
        self,
        rule_workload: Workload,
        expectation_workload: Workload | None = None,
        vectorizer: PairVectorizer | None = None,
    ) -> GeneratedRiskFeatures:
        """Generate risk features from labeled data.

        Parameters
        ----------
        rule_workload:
            The labeled pairs used to grow the one-sided trees (the classifier
            training data in the paper's setup).
        expectation_workload:
            The labeled pairs used to estimate rule expectations; defaults to
            ``rule_workload`` (as in the paper, both are the classifier
            training data).
        vectorizer:
            A pre-fitted vectoriser to reuse; a fresh one is fitted on the rule
            workload's tables when omitted.
        """
        if rule_workload.left_table is None and vectorizer is None:
            raise DataError("rule workload has no source tables and no vectorizer was supplied")
        if vectorizer is None:
            vectorizer = PairVectorizer(rule_workload.left_table.schema)
            vectorizer.fit_workload(rule_workload)

        start = time.perf_counter()
        metric_matrix = vectorizer.transform(rule_workload.pairs)
        labels = rule_workload.labels()

        builder = OneSidedTreeBuilder(self.tree_config, vectorizer.feature_names)
        raw_rules = builder.build(metric_matrix, labels)
        rules = deduplicate_rules(raw_rules)
        rules = remove_redundant_rules(rules, metric_matrix, self.min_rule_coverage)

        expectation_source = expectation_workload or rule_workload
        expectation_matrix = (
            metric_matrix if expectation_source is rule_workload
            else vectorizer.transform(expectation_source.pairs)
        )
        rules = estimate_expectations(
            rules, expectation_matrix, expectation_source.labels(), self.expectation_smoothing
        )
        elapsed = time.perf_counter() - start

        statistics = {
            "n_raw_rules": float(len(raw_rules)),
            "n_rules": float(len(rules)),
            "n_matching_rules": float(sum(1 for rule in rules if rule.label == MATCH)),
            "n_unmatching_rules": float(sum(1 for rule in rules if rule.label != MATCH)),
        }
        features = GeneratedRiskFeatures(
            rules=rules,
            vectorizer=vectorizer,
            generation_seconds=elapsed,
            statistics=statistics,
        )
        return features
