"""Probability distributions used by the risk model.

The risk model represents a pair's equivalence probability as a normal
distribution (an approximation of the Beta posterior justified in Section 4.2),
truncated to ``[0, 1]`` because the underlying quantity is a probability.  This
module provides the distribution helpers: Beta→Normal approximation, the
truncated-normal quantile used when *scoring* pairs, and the plain normal
quantile used as the differentiable surrogate when *training*.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import special, stats

from ..exceptions import ConfigurationError


@dataclass(frozen=True)
class NormalDistribution:
    """A (possibly truncated) normal distribution over the equivalence probability."""

    mean: float
    variance: float

    @property
    def std(self) -> float:
        return float(np.sqrt(max(self.variance, 0.0)))

    def quantile(self, level: float, truncated: bool = True) -> float:
        """Return the ``level``-quantile, optionally truncated to [0, 1]."""
        return float(
            truncated_normal_quantile(np.array([self.mean]), np.array([self.std]), level)[0]
            if truncated
            else normal_quantile(np.array([self.mean]), np.array([self.std]), level)[0]
        )


def beta_to_normal(alpha: float, beta: float) -> NormalDistribution:
    """Approximate a Beta(α, β) distribution by a normal with matched moments.

    Valid when α and β are reasonably large (>= 10 per the paper); smaller
    values still return the moment-matched normal, which is what the model
    uses as a smooth prior.
    """
    if alpha <= 0 or beta <= 0:
        raise ConfigurationError("Beta shape parameters must be positive")
    mean = alpha / (alpha + beta)
    variance = alpha * beta / ((alpha + beta) ** 2 * (alpha + beta + 1.0))
    return NormalDistribution(mean=float(mean), variance=float(variance))


def normal_quantile(means: np.ndarray, stds: np.ndarray, level: float) -> np.ndarray:
    """Quantile of untruncated normals: ``μ + z_level·σ`` (vectorised)."""
    if not 0.0 < level < 1.0:
        raise ConfigurationError("quantile level must be in (0, 1)")
    z_value = float(stats.norm.ppf(level))
    return np.asarray(means, dtype=float) + z_value * np.asarray(stds, dtype=float)


def truncated_normal_quantile(
    means: np.ndarray,
    stds: np.ndarray,
    level: float,
    lower: float = 0.0,
    upper: float = 1.0,
) -> np.ndarray:
    """Quantile of normals truncated to ``[lower, upper]`` (vectorised).

    Pairs with a (near-)zero standard deviation degenerate to their clipped
    mean, which is the correct limiting behaviour.  The standard normal CDF
    and its inverse come straight from ``scipy.special`` (``ndtr``/``ndtri``,
    what ``stats.norm.cdf``/``ppf`` compute), which skips the per-call
    argument handling of the ``stats`` front end on every explained batch.
    """
    if not 0.0 < level < 1.0:
        raise ConfigurationError("quantile level must be in (0, 1)")
    means = np.asarray(means, dtype=float)
    stds = np.asarray(stds, dtype=float)
    result = np.clip(means, lower, upper)
    positive = stds > 1e-12
    if np.any(positive):
        mu = means[positive]
        sigma = stds[positive]
        alpha = (lower - mu) / sigma
        beta = (upper - mu) / sigma
        lower_cdf = special.ndtr(alpha)
        upper_cdf = special.ndtr(beta)
        probabilities = lower_cdf + level * (upper_cdf - lower_cdf)
        probabilities = np.clip(probabilities, 1e-12, 1.0 - 1e-12)
        result[positive] = mu + sigma * special.ndtri(probabilities)
    return np.clip(result, lower, upper)
