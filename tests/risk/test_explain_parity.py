"""Batched explanations against the per-row loop they replaced.

:meth:`LearnRiskModel.explain_pairs` computes influence weights, row totals,
weight shares and each pair's kept rules for a whole batch at once
(:func:`repro.risk.portfolio.feature_contributions`), and
:func:`truncated_normal_quantile` calls ``scipy.special`` directly.  The code
they replaced lives on below as the parity oracle: :func:`row_contributions`
is one pair's share list, :func:`row_explanations` the per-pair explain loop,
and :func:`stats_truncated_normal_quantile` the ``scipy.stats`` quantile.
Every float is compared through :meth:`float.hex`, so a last-digit change
fails.
"""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from repro.risk.distributions import truncated_normal_quantile
from repro.risk.model import LearnRiskModel, PairRiskExplanation, RuleContribution
from repro.risk.portfolio import feature_contributions
from repro.risk.training import TrainingConfig

MINIMUM_TOTAL_WEIGHT = 1e-12
BATCH_SIZES = (1, 37, 256)
TOP_RULES = (None, 1, 3)


# ------------------------------------------------------------------ oracle
def row_contributions(membership_row, rule_weights, output_weight):
    """One pair's ``(feature_index, share)`` list, heaviest first."""
    membership_row = np.asarray(membership_row, dtype=float)
    weights = membership_row * np.asarray(rule_weights, dtype=float)
    total = float(weights.sum()) + float(output_weight)
    if total <= MINIMUM_TOTAL_WEIGHT:
        return []
    contributions = [
        (int(index), float(weights[index] / total))
        for index in np.nonzero(membership_row > 0)[0]
    ]
    contributions.append((-1, float(output_weight / total)))
    contributions.sort(key=lambda item: -item[1])
    return contributions


def stats_truncated_normal_quantile(means, stds, level, lower=0.0, upper=1.0):
    """The truncated-normal quantile through ``scipy.stats.norm``."""
    means = np.asarray(means, dtype=float)
    stds = np.asarray(stds, dtype=float)
    result = np.clip(means, lower, upper)
    positive = stds > 1e-12
    if np.any(positive):
        mu, sigma = means[positive], stds[positive]
        lower_cdf = stats.norm.cdf((lower - mu) / sigma)
        upper_cdf = stats.norm.cdf((upper - mu) / sigma)
        probabilities = np.clip(lower_cdf + level * (upper_cdf - lower_cdf), 1e-12, 1.0 - 1e-12)
        result[positive] = mu + sigma * stats.norm.ppf(probabilities)
    return np.clip(result, lower, upper)


def row_explanations(model, metric_matrix, probabilities, labels, top_rules):
    """The per-pair explain loop: one influence weight and share list per row."""
    membership = model.features.membership(metric_matrix)
    distribution = model.distribution(metric_matrix, probabilities)
    risk_scores = model.score(metric_matrix, probabilities, labels)
    theta = model.config.theta
    stds = distribution.stds
    lows = stats_truncated_normal_quantile(distribution.means, stds, 1.0 - theta)
    highs = stats_truncated_normal_quantile(distribution.means, stds, theta)
    explanations = []
    for row in range(len(metric_matrix)):
        probability = float(probabilities[row])
        output_weight = float(model.influence_weight(np.array([probability]))[0])
        fired = []
        for index, share in row_contributions(
            membership[row], model.rule_weights, output_weight
        )[:top_rules]:
            if index == -1:
                fired.append(RuleContribution(
                    -1, f"classifier output = {probability:.3f}", share, probability
                ))
            else:
                rule = model.features.rules[index]
                fired.append(RuleContribution(index, rule.describe(), share, rule.expectation))
        explanations.append(PairRiskExplanation(
            machine_probability=probability,
            machine_label=int(labels[row]),
            risk_score=float(risk_scores[row]),
            equivalence_mean=float(distribution.means[row]),
            equivalence_std=float(stds[row]),
            interval_low=float(lows[row]),
            interval_high=float(highs[row]),
            fired_rules=fired,
        ))
    return explanations


def hexed(value):
    """``value`` with every float replaced by its exact hex spelling."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {key: hexed(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [hexed(item) for item in value]
    return value


def assert_same_rows(actual: list, expected: list) -> None:
    """Row by row, so a mismatch reports one small row, not a whole-batch diff."""
    assert len(actual) == len(expected)
    for row, (got, want) in enumerate(zip(actual, expected)):
        if hasattr(got, "to_dict"):
            got, want = got.to_dict(), want.to_dict()
        assert hexed(got) == hexed(want), f"row {row}"


# ------------------------------------------------------------ share kernel
def synthetic_batch(n_pairs: int, seed: int = 0):
    """Membership, rule weights and output weights with ties and an uncovered row."""
    rng = np.random.default_rng(seed)
    n_rules = 9
    membership = (rng.random((n_pairs, n_rules)) < 0.4).astype(float)
    # Three distinct weights over nine rules: fired rules tie exactly.
    rule_weights = rng.choice([0.5, 1.25, 2.0], size=n_rules)
    output_weights = rng.choice([0.5, 1.25, 0.8, 3.0], size=n_pairs)
    membership[0, :] = 0.0
    output_weights[0] = 0.0  # uncovered: total weight 0
    if n_pairs > 1:
        membership[1, :] = 1.0
        rule_weights[:] = np.where(rule_weights == 2.0, 1.25, rule_weights)
        output_weights[1] = 1.25  # the output ties the fired rules
    return membership, rule_weights, output_weights


@pytest.mark.parametrize("order", ["F", "C"])
@pytest.mark.parametrize("n_pairs", BATCH_SIZES)
@pytest.mark.parametrize("top", TOP_RULES)
def test_batched_shares_match_the_row_loop(order, n_pairs, top):
    membership, rule_weights, output_weights = synthetic_batch(n_pairs)
    membership = np.asarray(membership, order=order)
    batched = feature_contributions(membership, rule_weights, output_weights, top_rules=top)
    assert_same_rows(batched, [
        row_contributions(membership[row], rule_weights, float(output_weights[row]))[:top]
        for row in range(n_pairs)
    ])
    assert batched[0] == []
    if n_pairs > 1 and top is None:
        # Ties keep rule-index order, the classifier output last.
        output_share = dict(batched[1])[-1]
        tied = [index for index, share in batched[1] if share == output_share]
        assert tied == [*np.flatnonzero(rule_weights == 1.25).tolist(), -1]
        assert len(tied) > 2


def test_row_totals_are_layout_independent():
    rng = np.random.default_rng(3)
    membership = (rng.random((300, 40)) < 0.5).astype(float)
    rule_weights = rng.random(40) * 3.0
    output_weights = rng.random(300)
    assert_same_rows(*[
        feature_contributions(np.asarray(membership, order=order), rule_weights, output_weights)
        for order in ("F", "C")
    ])


# ------------------------------------------------------------- quantile
def test_truncated_quantile_matches_scipy_stats_bit_for_bit():
    rng = np.random.default_rng(7)
    means = np.concatenate([rng.uniform(-0.5, 1.5, 20_000), [0.3, 1.4, -0.2]])
    stds = np.concatenate([rng.uniform(0.0, 1.0, 20_000), [0.0, 0.0, 1e-13]])
    stds[::17] = 0.0
    for level in (0.05, 0.1, 0.5, 0.9, 0.95):
        assert np.array_equal(
            truncated_normal_quantile(means, stds, level).view(np.int64),
            stats_truncated_normal_quantile(means, stds, level).view(np.int64),
        )


# ---------------------------------------------------------------- explain
@pytest.fixture(scope="module")
def models(prepared_ds):
    """A trained model, its untrained prior (equal rule weights: exact share
    ties) and a model whose every weight is 0 (every pair uncovered at p=0.5)."""
    features = prepared_ds.risk_features
    validation = prepared_ds.validation
    trained = LearnRiskModel(features, config=TrainingConfig(epochs=20, seed=0)).fit(
        validation.features, validation.probabilities,
        validation.machine_labels, validation.ground_truth,
    )
    prior = LearnRiskModel(features)
    weightless = LearnRiskModel(features)
    weightless.parameters.rule_weight_raw.data[:] = -800.0
    weightless.parameters.beta_raw.data[:] = -800.0
    return {"trained": trained, "prior": prior, "weightless": weightless}


def explain_inputs(prepared_ds, n_pairs: int):
    test = prepared_ds.test
    rows = np.random.default_rng(n_pairs).integers(0, len(test.workload), size=n_pairs)
    return test.features[rows], test.probabilities[rows], test.machine_labels[rows]


@pytest.mark.parametrize("name", ["trained", "prior"])
@pytest.mark.parametrize("n_pairs", BATCH_SIZES)
@pytest.mark.parametrize("top", TOP_RULES)
def test_explain_pairs_matches_the_row_loop(models, prepared_ds, name, n_pairs, top):
    model = models[name]
    inputs = explain_inputs(prepared_ds, n_pairs)
    assert_same_rows(
        model.explain_pairs(*inputs, top_rules=top),
        row_explanations(model, *inputs, top_rules=top),
    )


def test_explain_pairs_matches_the_row_loop_on_c_ordered_membership(
    models, prepared_ds, monkeypatch
):
    model = models["trained"]
    features = model.features
    kernel_membership = type(features).membership
    assert not kernel_membership(features, prepared_ds.test.features[:5]).flags.c_contiguous
    monkeypatch.setattr(
        type(features), "membership",
        lambda self, matrix: np.ascontiguousarray(kernel_membership(self, matrix)),
    )
    inputs = explain_inputs(prepared_ds, 256)
    assert_same_rows(
        model.explain_pairs(*inputs, top_rules=3),
        row_explanations(model, *inputs, top_rules=3),
    )


def test_uncovered_pairs_explain_with_no_rules(models, prepared_ds):
    model = models["weightless"]
    features, _, labels = explain_inputs(prepared_ds, 37)
    probabilities = np.full(37, 0.5)
    explanations = model.explain_pairs(features, probabilities, labels)
    assert all(one.fired_rules == [] for one in explanations)
    assert_same_rows(
        explanations, row_explanations(model, features, probabilities, labels, top_rules=None)
    )
