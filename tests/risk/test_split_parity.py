"""The prefix-count split search against the per-threshold mask loop it replaced.

:func:`repro.risk.onesided_tree.best_one_sided_split` sorts a node's column
once, reads each candidate threshold's left count from a binary search on the
sorted column and both sides' class masses from prefix sums, and evaluates
Eq. 6/7 in Python floats.  The code it replaced lives on below as the parity
oracle: :func:`mask_loop_split` builds two masks and four fancy-index copies
per candidate and scores them with :func:`one_sided_gini`, and
:class:`MaskLoopTreeBuilder` is the builder that called it.  Every float is
compared through :meth:`float.hex`, so a last-digit change fails.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.risk.onesided_tree import (
    OneSidedSplit,
    OneSidedTreeBuilder,
    OneSidedTreeConfig,
    best_one_sided_split,
    gini_value,
)

DEFAULT_CONFIG = OneSidedTreeConfig()
GOLDEN_CONFIG = OneSidedTreeConfig(max_depth=2, min_support=4, max_thresholds=24)


# ------------------------------------------------------------------ oracle
def one_sided_gini(
    left_labels: np.ndarray,
    right_labels: np.ndarray,
    lam: float,
    left_weights: np.ndarray | None = None,
    right_weights: np.ndarray | None = None,
) -> tuple[float, bool]:
    """One-sided Gini index of a partition (Eq. 7).

    Returns the index value and whether the *left* subset is the purer
    (smaller-term) side.
    """
    left_term = lam / max(1, len(left_labels)) + (1.0 - lam) * gini_value(left_labels, left_weights)
    right_term = lam / max(1, len(right_labels)) + (1.0 - lam) * gini_value(right_labels, right_weights)
    if left_term <= right_term:
        return left_term, True
    return right_term, False


def mask_loop_split(
    metric_matrix: np.ndarray,
    labels: np.ndarray,
    metric_index: int,
    lam: float,
    min_support: int,
    weights: np.ndarray | None = None,
    max_thresholds: int = 64,
) -> OneSidedSplit | None:
    """The per-threshold search: two masks and a fresh Eq. 7 per candidate."""
    column = metric_matrix[:, metric_index]
    unique_values = np.unique(column)
    if len(unique_values) < 2:
        return None
    midpoints = (unique_values[:-1] + unique_values[1:]) / 2.0
    if len(midpoints) > max_thresholds:
        positions = np.linspace(0, len(midpoints) - 1, max_thresholds).astype(int)
        midpoints = midpoints[positions]

    best: OneSidedSplit | None = None
    for threshold in midpoints:
        mask = column <= threshold
        left_count = int(mask.sum())
        right_count = len(labels) - left_count
        if left_count < min_support or right_count < min_support:
            continue
        left_weights = weights[mask] if weights is not None else None
        right_weights = weights[~mask] if weights is not None else None
        score, pure_is_left = one_sided_gini(
            labels[mask], labels[~mask], lam, left_weights, right_weights
        )
        if best is None or score < best.score:
            best = OneSidedSplit(metric_index, float(threshold), float(score), pure_is_left)
    return best


class MaskLoopTreeBuilder(OneSidedTreeBuilder):
    """The builder as it was: mask-loop splits, and the greedy winner searched twice."""

    def _construct(self, metric_matrix, labels, weights, conditions, depth, rules, exhaustive):
        if depth >= self.config.max_depth or len(labels) < 2 * self.config.min_support:
            return
        n_metrics = metric_matrix.shape[1]
        if exhaustive and depth < self.config.branch_depth:
            candidate_metrics = range(n_metrics)
        else:
            best_split = None
            for metric_index in range(n_metrics):
                split = self._split(metric_matrix, labels, weights, metric_index)
                if split is not None and (best_split is None or split.score < best_split.score):
                    best_split = split
            if best_split is None:
                return
            candidate_metrics = [best_split.metric_index]
        for metric_index in candidate_metrics:
            split = self._split(metric_matrix, labels, weights, metric_index)
            if split is not None:
                self._descend(metric_matrix, labels, weights, conditions, depth, rules, split)

    def _split(self, metric_matrix, labels, weights, metric_index):
        return mask_loop_split(
            metric_matrix, labels, metric_index, self.config.lam,
            self.config.min_support, weights, self.config.max_thresholds,
        )


# ----------------------------------------------------------------- helpers
def split_bits(split: OneSidedSplit | None):
    if split is None:
        return None
    return (split.metric_index, split.threshold.hex(), split.score.hex(), split.pure_is_left)


def hexed(value):
    """A rule's ``to_dict()`` with every float replaced by its hex form."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(item) for item in value]
    return value


def class_weights(labels: np.ndarray, match_class_weight: float | None) -> np.ndarray | None:
    if match_class_weight is None:
        return None
    weights = np.ones(len(labels), dtype=float)
    weights[labels == 1] = match_class_weight
    return weights


# Values that stress the candidate thresholds: ties, 2-decimal values, NaN and
# ±inf, runs of adjacent doubles (a midpoint rounds onto the lower or the
# upper one) and huge magnitudes (their midpoint overflows to inf).
ONE_PLUS_ULP = float(np.nextafter(1.0, 2.0))
SPECIAL_VALUES = (
    0.0, 0.25, 0.5, float(np.nextafter(0.5, 1.0)),
    1.0, ONE_PLUS_ULP, float(np.nextafter(ONE_PLUS_ULP, 2.0)),
    math.nan, math.inf, -math.inf, 1.7e308, -1.7e308,
)
values = st.one_of(
    st.sampled_from(SPECIAL_VALUES),
    st.integers(0, 100).map(lambda cents: cents / 100.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def split_problems(draw):
    n_rows = draw(st.integers(1, 60))
    if draw(st.booleans()):
        column = draw(st.lists(values, min_size=n_rows, max_size=n_rows))
    else:  # constant, or two values
        column = draw(st.lists(st.sampled_from(draw(st.lists(values, min_size=1, max_size=2))),
                               min_size=n_rows, max_size=n_rows))
    kind = draw(st.sampled_from(("mixed", "all_one", "all_zero")))
    if kind == "mixed":
        labels = draw(st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows))
    else:
        labels = [1 if kind == "all_one" else 0] * n_rows
    labels = np.array(labels, dtype=int)
    column = np.array(column, dtype=float)
    # min_support sits on a left count of some candidate, or one beside it.
    left_counts = [int((column <= value).sum()) for value in column] + [1]
    min_support = max(1, draw(st.sampled_from(left_counts)) + draw(st.integers(-1, 1)))
    return {
        "metric_matrix": column.reshape(-1, 1),
        "labels": labels,
        "metric_index": 0,
        "lam": draw(st.sampled_from((0.2, 0.0, 0.05, 1.0))),
        "min_support": min_support,
        "weights": class_weights(labels, draw(st.sampled_from((None, 1.0, 1000.0)))),
        "max_thresholds": draw(st.sampled_from((1, 8, 24, 64))),
    }


# ------------------------------------------------------------------- tests
# Huge magnitudes make the midpoint sum overflow, as it always has.
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
class TestSplitParity:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(problem=split_problems())
    def test_matches_the_mask_loop_bit_for_bit(self, problem):
        assert split_bits(best_one_sided_split(**problem)) == split_bits(mask_loop_split(**problem))

    def test_midpoint_rounding_onto_the_upper_value(self):
        # 1 + 2**-52 has an odd mantissa, so its midpoint with the next double
        # rounds onto that next double: ``<=`` then counts both on the left,
        # and the split between them cannot be made.
        lower = ONE_PLUS_ULP
        upper = float(np.nextafter(lower, 2.0))
        assert (lower + upper) / 2.0 == upper
        matrix = np.array([[lower], [lower], [upper], [upper], [2.0], [2.0]])
        labels = np.array([0, 0, 1, 1, 1, 1])
        split = best_one_sided_split(matrix, labels, 0, lam=0.2, min_support=1)
        assert split_bits(split) == split_bits(mask_loop_split(matrix, labels, 0, 0.2, 1))
        assert split.threshold == upper

    def test_nan_midpoint_counts_nothing_on_the_left(self):
        # The last midpoint sits between 1.0 and NaN and is itself NaN.  Only
        # min_support 0 (which the config rejects) lets an empty side through.
        matrix = np.array([[0.0], [1.0], [np.nan], [np.nan], [0.0], [1.0]])
        labels = np.array([1, 0, 0, 1, 1, 0])
        for lam in (0.2, 0.9):
            for min_support in (0, 1, 2, 3):
                assert split_bits(best_one_sided_split(matrix, labels, 0, lam, min_support)) == (
                    split_bits(mask_loop_split(matrix, labels, 0, lam, min_support))
                )

    def test_squares_round_as_python_pow(self):
        # At the share 8/41, Eq. 6 through Python's ``** 2`` (libm pow) and
        # through a product (numpy's array ``** 2``) round apart; the purer
        # left side's term is the score, so the search must square as Python.
        share = 8 / 41
        assert 1.0 - share ** 2 - (1.0 - share) ** 2 != 1.0 - share * share - (1.0 - share) * (1.0 - share)
        matrix = np.array([[0.0]] * 41 + [[1.0]] * 41)
        labels = np.array([1] * 8 + [0] * 33 + [1] * 20 + [0] * 21)
        split = best_one_sided_split(matrix, labels, 0, lam=0.2, min_support=5)
        assert split_bits(split) == split_bits(mask_loop_split(matrix, labels, 0, 0.2, 5))
        assert split.pure_is_left
        assert split.score == 0.2 / 41 + 0.8 * (1.0 - share ** 2 - (1.0 - share) ** 2)

    @pytest.mark.parametrize("match_class_weight", (0.1, 2.5, 1.0 / 3.0, 999.9))
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(problem=split_problems())
    def test_non_integer_class_weight_within_tolerance(self, match_class_weight, problem):
        # Prefix sums of non-integer weights may round apart from the masked
        # sums, so the scores are compared at rtol=1e-12, fixed beforehand,
        # and the chosen threshold must score as the oracle's best does.
        problem["weights"] = class_weights(problem["labels"], match_class_weight)
        got = best_one_sided_split(**problem)
        expected = mask_loop_split(**problem)
        assert (got is None) == (expected is None)
        if got is None:
            return
        assert got.score == pytest.approx(expected.score, rel=1e-12, abs=0.0)
        column = problem["metric_matrix"][:, 0]
        mask = column <= got.threshold
        weights = problem["weights"]
        oracle_score, _ = one_sided_gini(
            problem["labels"][mask], problem["labels"][~mask], problem["lam"],
            weights[mask], weights[~mask],
        )
        assert oracle_score == pytest.approx(expected.score, rel=1e-12, abs=0.0)


class TestBuilderParity:
    @pytest.mark.parametrize("config", (DEFAULT_CONFIG, GOLDEN_CONFIG), ids=("default", "golden"))
    def test_real_metric_matrix(self, prepared_ds, config):
        matrix = prepared_ds.train.features
        labels = prepared_ds.train.ground_truth
        names = list(prepared_ds.vectorizer.feature_names)
        rules = OneSidedTreeBuilder(config, names).build(matrix, labels)
        oracle = MaskLoopTreeBuilder(config, names).build(matrix, labels)
        assert len(rules) > 0
        assert [hexed(rule.to_dict()) for rule in rules] == [
            hexed(rule.to_dict()) for rule in oracle
        ]

    @pytest.mark.parametrize("config", (DEFAULT_CONFIG, GOLDEN_CONFIG), ids=("default", "golden"))
    def test_rounded_metrics_with_nans(self, config):
        # Heavy ties and missing metric values, as sparse attributes produce.
        rng = np.random.default_rng(5)
        labels = (rng.random(300) < 0.3).astype(int)
        matrix = np.round(rng.random((300, 6)) * 0.5 + 0.5 * labels[:, None], 2)
        matrix[rng.random(matrix.shape) < 0.1] = np.nan
        names = [f"m{index}" for index in range(matrix.shape[1])]
        rules = OneSidedTreeBuilder(config, names).build(matrix, labels)
        oracle = MaskLoopTreeBuilder(config, names).build(matrix, labels)
        assert len(rules) > 0
        assert [hexed(rule.to_dict()) for rule in rules] == [
            hexed(rule.to_dict()) for rule in oracle
        ]


def seconds_of(run) -> float:
    started = time.perf_counter()
    run()
    return time.perf_counter() - started


class TestSplitSpeed:
    def test_prefix_counts_beat_the_mask_loop(self):
        # Best of 5 over one node of 500 pairs x 27 metrics at the default
        # config, class weight 1000.  The search reads ~10x faster, so the bar
        # only trips on a real regression, not on a noisy worker.
        rng = np.random.default_rng(0)
        labels = (rng.random(500) < 0.2).astype(int)
        matrix = rng.random((500, 27))
        matrix[:, ::3] = np.round(matrix[:, ::3], 1)
        weights = class_weights(labels, DEFAULT_CONFIG.match_class_weight)

        def search(split_function):
            for metric_index in range(matrix.shape[1]):
                split_function(matrix, labels, metric_index, DEFAULT_CONFIG.lam,
                               DEFAULT_CONFIG.min_support, weights, DEFAULT_CONFIG.max_thresholds)

        legacy, prefix = [], []
        for _ in range(5):
            legacy.append(seconds_of(lambda: search(mask_loop_split)))
            prefix.append(seconds_of(lambda: search(best_one_sided_split)))
        assert min(legacy) / min(prefix) > 2.0
