"""Portfolio aggregation of risk-feature distributions (Section 4.2, Eq. 2–3).

Each pair is a *portfolio* whose component *stocks* are its risk features: the
one-sided rules covering it plus the classifier-output feature.  The pair's
equivalence-probability distribution is the weighted aggregate of its
components' distributions.  We use the weight-normalised portfolio form

    μ_i  = Σ_j x_ij · w_j · μ_j   /  Σ_j x_ij · w_j
    σ²_i = Σ_j x_ij · w_j² · σ_j² / (Σ_j x_ij · w_j)²

which is Eq. 2–3 with the weights normalised per pair so that μ_i stays a valid
probability (see DESIGN.md).  This module contains the plain-numpy version used
at scoring time; the differentiable version used by training lives in
:mod:`repro.risk.training` and mirrors the same formulas with
:class:`~repro.autodiff.Tensor` operations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..exceptions import ConfigurationError
from ..numerics import batch_invariant_matvec as _matvec

_MINIMUM_TOTAL_WEIGHT = 1e-12


@dataclass(frozen=True)
class PortfolioDistribution:
    """Per-pair aggregated equivalence-probability distribution."""

    means: np.ndarray
    variances: np.ndarray

    @property
    def stds(self) -> np.ndarray:
        return np.sqrt(np.maximum(self.variances, 0.0))

    def __len__(self) -> int:
        return len(self.means)


def aggregate_portfolio(
    membership: np.ndarray,
    rule_weights: np.ndarray,
    rule_means: np.ndarray,
    rule_stds: np.ndarray,
    output_weights: np.ndarray | None = None,
    output_means: np.ndarray | None = None,
    output_stds: np.ndarray | None = None,
) -> PortfolioDistribution:
    """Aggregate rule and classifier-output features into per-pair distributions.

    Parameters
    ----------
    membership:
        Binary ``(n_pairs, n_rules)`` matrix: ``membership[i, j] = 1`` when
        pair ``i`` has rule feature ``j``.
    rule_weights, rule_means, rule_stds:
        Per-rule weight, expectation and standard deviation (length ``n_rules``).
    output_weights, output_means, output_stds:
        Per-pair weight, expectation and standard deviation of the
        classifier-output feature; omit all three to aggregate rules only.
    """
    rule_weights = np.asarray(rule_weights, dtype=float)
    rule_means = np.asarray(rule_means, dtype=float)
    rule_stds = np.asarray(rule_stds, dtype=float)
    # C order up front: the batch-invariant matvec normalises layout (the
    # summation association follows the strides), so converting the rule
    # kernel's F-ordered output once here saves two of the three copies.
    membership = np.ascontiguousarray(membership, dtype=float)
    n_pairs, n_rules = membership.shape
    if not (len(rule_weights) == len(rule_means) == len(rule_stds) == n_rules):
        raise ConfigurationError("rule weight/mean/std lengths must match the membership matrix")

    mean_weights = rule_weights * rule_means
    variance_weights = rule_weights ** 2 * rule_stds ** 2
    total_weight = _matvec(membership, rule_weights)
    weighted_mean = _matvec(membership, mean_weights)
    weighted_variance = _matvec(membership, variance_weights)

    has_output = output_weights is not None
    if has_output:
        output_weights = np.asarray(output_weights, dtype=float)
        output_means = np.asarray(output_means, dtype=float)
        output_stds = np.asarray(output_stds, dtype=float)
        if not (len(output_weights) == len(output_means) == len(output_stds) == n_pairs):
            raise ConfigurationError("output feature arrays must have one entry per pair")
        total_weight = total_weight + output_weights
        weighted_mean = weighted_mean + output_weights * output_means
        weighted_variance = weighted_variance + output_weights ** 2 * output_stds ** 2

    safe_total = np.maximum(total_weight, _MINIMUM_TOTAL_WEIGHT)
    means = weighted_mean / safe_total
    variances = weighted_variance / safe_total ** 2
    # Pairs with no feature at all fall back to a maximally uncertain prior.
    uncovered = total_weight <= _MINIMUM_TOTAL_WEIGHT
    if np.any(uncovered):
        means = means.copy()
        variances = variances.copy()
        means[uncovered] = 0.5
        variances[uncovered] = 0.25
    return PortfolioDistribution(means=means, variances=variances)


def feature_contributions(
    membership: np.ndarray,
    rule_weights: np.ndarray,
    output_weights: np.ndarray,
    top_rules: int | None = None,
) -> list[list[tuple[int, float]]]:
    """Each pair's fired features by share of its portfolio weight, heaviest first.

    For every row of ``membership``: ``(feature_index, share)`` tuples, where
    ``feature_index`` is the rule index or ``-1`` for the classifier-output
    feature and a pair's shares sum to 1; ``top_rules`` keeps the first
    ``top_rules`` (``None`` keeps all).  Equal shares keep rule-index order,
    the classifier output last.  A pair whose total weight is at most
    ``1e-12`` gets no entries.  Used by the interpretability API
    (:meth:`LearnRiskModel.explain_pairs`).
    """
    membership = np.asarray(membership, dtype=float)
    n_pairs, n_rules = membership.shape
    # C order: each row total is then the same pairwise sum a 1-D row's
    # ``.sum()`` takes, so the shares do not depend on the batch's layout.
    weights = np.ascontiguousarray(membership * np.asarray(rule_weights, dtype=float))
    output_weights = np.asarray(output_weights, dtype=float)
    totals = weights.sum(axis=1) + output_weights
    covered = totals > _MINIMUM_TOTAL_WEIGHT
    features = np.concatenate([weights, output_weights[:, None]], axis=1)
    shares = features / np.where(covered, totals, 1.0)[:, None]
    fired = np.concatenate([membership > 0, np.ones((n_pairs, 1), dtype=bool)], axis=1)
    order = np.argsort(np.where(fired, -shares, np.inf), axis=1, kind="stable")
    counts = np.where(covered, fired.sum(axis=1), 0)
    if top_rules is not None:
        counts = np.minimum(counts, top_rules)
    labels = np.append(np.arange(n_rules), -1)
    contributions: list[list[tuple[int, float]]] = []
    for kept, row_shares, count in zip(order, shares, counts.tolist()):
        kept = kept[:count]
        contributions.append(list(zip(labels[kept].tolist(), row_shares[kept].tolist())))
    return contributions
