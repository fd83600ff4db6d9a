"""The *StaticRisk* baseline (Chen et al. 2018, the paper's reference [14]).

StaticRisk estimates a pair's equivalence-probability distribution by Bayesian
inference and measures its risk by Conditional Value at Risk.  The prior comes
from the classifier's probability output (a Beta prior with a fixed equivalent
sample size); the evidence comes from the labeled pairs sharing the pair's risk
features: for every one-sided rule covering the pair, the rule's match /
non-match counts on the labeled (classifier-training) data are added as pseudo
observations.  The posterior Beta is approximated by a normal distribution and
the CVaR of the mislabeling loss is the risk score.  Unlike LearnRisk, nothing
is learnable: the counts are used as-is and there are no weights to tune.
"""

from __future__ import annotations

import numpy as np

from ..exceptions import ConfigurationError
from ..risk.distributions import beta_to_normal
from ..risk.feature_generation import GeneratedRiskFeatures
from ..risk.metrics import conditional_value_at_risk
from ..risk.portfolio import PortfolioDistribution
from .base import BaseRiskScorer, RiskContext


class StaticRiskBaseline(BaseRiskScorer):
    """Bayesian (non-learnable) risk estimation with a CVaR risk metric.

    Parameters
    ----------
    prior_strength:
        Equivalent sample size of the classifier-output Beta prior.
    evidence_scale:
        Multiplier applied to rule evidence counts (1.0 uses raw counts; the
        scale caps the influence of very large rules so the prior is not
        completely washed out, mirroring the sample-based inference of [14]).
    max_evidence:
        Cap on the total pseudo-observation count contributed by rules.
    theta:
        CVaR confidence level.
    """

    name = "StaticRisk"

    def __init__(
        self,
        prior_strength: float = 10.0,
        evidence_scale: float = 1.0,
        max_evidence: float = 200.0,
        theta: float = 0.9,
    ) -> None:
        super().__init__()
        if prior_strength <= 0:
            raise ConfigurationError("prior_strength must be positive")
        if not 0.0 < theta < 1.0:
            raise ConfigurationError("theta must be in (0, 1)")
        self.prior_strength = prior_strength
        self.evidence_scale = evidence_scale
        self.max_evidence = max_evidence
        self.theta = theta
        self._features: GeneratedRiskFeatures | None = None
        self._rule_matches: np.ndarray | None = None
        self._rule_totals: np.ndarray | None = None

    def fit(self, context: RiskContext) -> "StaticRiskBaseline":
        self._features = context.risk_features
        if self._features is None:
            raise ConfigurationError(
                "StaticRiskBaseline requires context.risk_features "
                "(share the GeneratedRiskFeatures produced for LearnRisk)"
            )
        membership = self._features.membership(np.asarray(context.train_features, dtype=float))
        labels = np.asarray(context.train_labels, dtype=float)
        self._rule_totals = membership.sum(axis=0)
        self._rule_matches = membership.T @ labels
        self._fitted = True
        return self

    def score(
        self,
        metric_matrix: np.ndarray,
        machine_probabilities: np.ndarray,
        machine_labels: np.ndarray,
    ) -> np.ndarray:
        self._check_fitted()
        metric_matrix = np.asarray(metric_matrix, dtype=float)
        probabilities = np.clip(np.asarray(machine_probabilities, dtype=float), 1e-3, 1.0 - 1e-3)
        machine_labels = np.asarray(machine_labels, dtype=int)
        membership = self._features.membership(metric_matrix)

        # Prior pseudo-counts from the classifier output.
        prior_alpha = probabilities * self.prior_strength
        prior_beta = (1.0 - probabilities) * self.prior_strength

        # Evidence pseudo-counts from the covering rules' labeled samples.
        evidence_matches = membership @ (self._rule_matches * self.evidence_scale)
        evidence_totals = membership @ (self._rule_totals * self.evidence_scale)
        over_cap = evidence_totals > self.max_evidence
        if np.any(over_cap):
            shrink = np.ones_like(evidence_totals)
            shrink[over_cap] = self.max_evidence / evidence_totals[over_cap]
            evidence_matches = evidence_matches * shrink
            evidence_totals = evidence_totals * shrink

        posterior_alpha = prior_alpha + evidence_matches
        posterior_beta = prior_beta + (evidence_totals - evidence_matches)

        means = np.empty(len(probabilities), dtype=float)
        variances = np.empty(len(probabilities), dtype=float)
        for index, (alpha, beta) in enumerate(zip(posterior_alpha, posterior_beta)):
            normal = beta_to_normal(max(alpha, 1e-3), max(beta, 1e-3))
            means[index] = normal.mean
            variances[index] = normal.variance
        distribution = PortfolioDistribution(means=means, variances=variances)
        return conditional_value_at_risk(distribution, machine_labels, theta=self.theta)
