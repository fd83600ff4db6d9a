"""Tests for the vectorised rule-coverage engine (repro.risk.engine).

The central guarantee is parity: the compiled kernel must produce exactly the
membership the legacy per-rule Python loop produced, for every rule shape the
generated forest contains and for every degenerate input the scoring paths
can see (NaN metric values, empty rule sets, empty batches, single rows).
That loop lives on below as :func:`legacy_rule_matrix`, the parity oracle,
and the kernel must also stay faster than it.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np
import pytest

from repro.exceptions import ConfigurationError
from repro.risk.engine import RuleKernel
from repro.risk.rules import Condition, RiskRule


def legacy_rule_matrix(rules: Sequence[RiskRule], metric_matrix: np.ndarray) -> np.ndarray:
    """The pre-kernel per-rule Python loop: one ``coverage`` call per rule."""
    metric_matrix = np.asarray(metric_matrix, dtype=float)
    if not rules:
        return np.zeros((len(metric_matrix), 0), dtype=float)
    return np.column_stack([rule.coverage(metric_matrix).astype(float) for rule in rules])


def make_rule(conds: list[tuple[int, float, bool]], label: int = 1) -> RiskRule:
    return RiskRule(
        conditions=tuple(
            Condition(metric_index=i, metric_name=f"m{i}", threshold=t, is_leq=leq)
            for i, t, leq in conds
        ),
        label=label,
    )


@pytest.fixture
def mixed_rules() -> list[RiskRule]:
    """Single-condition, multi-condition, duplicate-condition and deep rules."""
    return [
        make_rule([(0, 0.5, True)]),
        make_rule([(0, 0.5, False)]),
        make_rule([(1, 0.25, True), (2, 0.75, False)]),
        make_rule([(0, 0.5, True), (1, 0.25, True), (2, 0.9, True), (3, 0.1, False)]),
        # shares its first condition with the rules above (dedup path)
        make_rule([(0, 0.5, True), (3, 0.6, False)]),
    ]


@pytest.fixture
def random_matrix() -> np.ndarray:
    rng = np.random.default_rng(7)
    matrix = rng.random((500, 5))
    matrix[rng.random((500, 5)) < 0.05] = np.nan
    return matrix


class TestKernelParity:
    def test_mixed_rule_shapes(self, mixed_rules, random_matrix):
        kernel = RuleKernel(mixed_rules)
        np.testing.assert_array_equal(
            kernel.membership(random_matrix), legacy_rule_matrix(mixed_rules, random_matrix)
        )

    def test_each_rule_individually(self, mixed_rules, random_matrix):
        # Per-rule parity localises a failure to one rule shape.
        for rule in mixed_rules:
            kernel = RuleKernel([rule])
            np.testing.assert_array_equal(
                kernel.membership(random_matrix),
                legacy_rule_matrix([rule], random_matrix),
                err_msg=rule.describe(),
            )

    def test_nan_satisfies_no_condition(self):
        rules = [make_rule([(0, 0.5, True)]), make_rule([(0, 0.5, False)])]
        matrix = np.array([[np.nan], [0.2], [0.8]])
        membership = RuleKernel(rules).membership(matrix)
        np.testing.assert_array_equal(membership, [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(membership, legacy_rule_matrix(rules, matrix))

    def test_threshold_boundary_is_exact(self):
        # <= must include the threshold, > must exclude it — bit-exact.
        rules = [make_rule([(0, 0.5, True)]), make_rule([(0, 0.5, False)])]
        matrix = np.array([[0.5], [np.nextafter(0.5, 1.0)]])
        np.testing.assert_array_equal(
            RuleKernel(rules).membership(matrix), [[1.0, 0.0], [0.0, 1.0]]
        )

    def test_generated_forest_parity(self, prepared_ds):
        """Every rule shape the real generator produces, on real metric data."""
        features = prepared_ds.risk_features
        assert len(features.rules) > 0
        matrix = prepared_ds.test.features
        np.testing.assert_array_equal(
            features.membership(matrix), legacy_rule_matrix(features.rules, matrix)
        )

    def test_generated_forest_parity_with_nans(self, prepared_ds):
        features = prepared_ds.risk_features
        matrix = np.array(prepared_ds.test.features, dtype=float)
        rng = np.random.default_rng(11)
        matrix[rng.random(matrix.shape) < 0.1] = np.nan
        np.testing.assert_array_equal(
            features.membership(matrix), legacy_rule_matrix(features.rules, matrix)
        )

    def test_chunked_evaluation_matches_unchunked(self, mixed_rules, random_matrix):
        chunked = RuleKernel(mixed_rules, chunk_rows=7)
        whole = RuleKernel(mixed_rules, chunk_rows=10_000)
        np.testing.assert_array_equal(
            chunked.membership(random_matrix), whole.membership(random_matrix)
        )


def forest_rules(n_rules: int, n_metrics: int, rng: np.random.Generator) -> list[RiskRule]:
    """Synthetic rules shaped like a one-sided forest: 8 leaves share each root split."""
    rules: list[RiskRule] = []
    while len(rules) < n_rules:
        root = (int(rng.integers(0, n_metrics)), float(rng.random()), bool(rng.integers(0, 2)))
        for _ in range(8):
            extra = [
                (int(rng.integers(0, n_metrics)), round(float(rng.random()), 2),
                 bool(rng.integers(0, 2)))
                for _ in range(int(rng.integers(0, 3)))
            ]
            rules.append(make_rule([root, *extra]))
    return rules[:n_rules]


def seconds_of(run) -> float:
    started = time.perf_counter()
    run()
    return time.perf_counter() - started


class TestKernelSpeed:
    def test_kernel_beats_the_legacy_loop(self):
        # Best of 5 at 10,000 pairs x 50 rules.  The kernel reads ~5x faster,
        # so the bar only trips on a real regression, not on a noisy worker.
        rng = np.random.default_rng(0)
        rules = forest_rules(50, 20, rng)
        matrix = rng.random((10_000, 20))
        matrix[rng.random(matrix.shape) < 0.01] = np.nan
        kernel = RuleKernel(rules)
        legacy, fused = [], []
        for _ in range(5):
            legacy.append(seconds_of(lambda: legacy_rule_matrix(rules, matrix)))
            fused.append(seconds_of(lambda: kernel.membership(matrix)))
        assert min(legacy) / min(fused) > 1.0


class TestKernelEdgeCases:
    def test_empty_rule_set(self, random_matrix):
        kernel = RuleKernel([])
        membership = kernel.membership(random_matrix)
        assert membership.shape == (len(random_matrix), 0)
        np.testing.assert_array_equal(membership, legacy_rule_matrix([], random_matrix))

    def test_empty_batch(self, mixed_rules):
        membership = RuleKernel(mixed_rules).membership(np.zeros((0, 5)))
        assert membership.shape == (0, len(mixed_rules))

    def test_single_row(self, mixed_rules, random_matrix):
        row = random_matrix[:1]
        np.testing.assert_array_equal(
            RuleKernel(mixed_rules).membership(row), legacy_rule_matrix(mixed_rules, row)
        )

    def test_condition_free_rule_covers_everything(self, random_matrix):
        rules = [RiskRule(conditions=(), label=1), make_rule([(0, 0.5, True)])]
        membership = RuleKernel(rules).membership(random_matrix)
        np.testing.assert_array_equal(membership[:, 0], 1.0)
        np.testing.assert_array_equal(membership, legacy_rule_matrix(rules, random_matrix))

    def test_rejects_non_matrix_input(self, mixed_rules):
        with pytest.raises(ConfigurationError):
            RuleKernel(mixed_rules).membership(np.zeros(5))

    def test_rejects_bad_chunk_rows(self, mixed_rules):
        with pytest.raises(ConfigurationError):
            RuleKernel(mixed_rules, chunk_rows=0)

    def test_bool_dtype(self, mixed_rules, random_matrix):
        kernel = RuleKernel(mixed_rules)
        mask = kernel.membership_bool(random_matrix)
        assert mask.dtype == bool
        np.testing.assert_array_equal(mask.astype(float), kernel.membership(random_matrix))

    def test_condition_dedup(self, mixed_rules):
        kernel = RuleKernel(mixed_rules)
        assert kernel.n_unique_conditions < kernel.n_conditions


class TestFeaturesKernelCache:
    def test_kernel_is_reused_across_calls(self, prepared_ds):
        features = prepared_ds.risk_features
        assert features.kernel is features.kernel

    def test_kernel_invalidated_when_rules_rebound(self, prepared_ds):
        features = prepared_ds.risk_features
        before = features.kernel
        features.rules = list(features.rules)
        after = features.kernel
        assert after is not before
        # restore the fixture's shared state
        features.invalidate_kernel()

    def test_rebound_equal_length_rules_change_membership(self):
        # Regression: keying the cache on id(rules) served a stale kernel when
        # CPython reused the freed list's id for an equal-length replacement.
        from repro.risk.feature_generation import GeneratedRiskFeatures

        features = GeneratedRiskFeatures(rules=[make_rule([(0, 0.5, True)])], vectorizer=None)
        matrix = np.array([[0.9]])
        assert features.membership(matrix)[0, 0] == 0.0
        features.rules = [make_rule([(0, 0.99, True)])]
        assert features.membership(matrix)[0, 0] == 1.0

    def test_explicit_invalidation(self, prepared_ds):
        features = prepared_ds.risk_features
        before = features.kernel
        features.invalidate_kernel()
        assert features.kernel is not before

    def test_state_round_trip_rebuilds_kernel(self, prepared_ds):
        from repro.risk.feature_generation import GeneratedRiskFeatures

        features = prepared_ds.risk_features
        features.kernel  # ensure the original has a live kernel
        restored = GeneratedRiskFeatures.from_state(features.to_state())
        matrix = prepared_ds.test.features
        np.testing.assert_array_equal(
            restored.membership(matrix), features.membership(matrix)
        )
