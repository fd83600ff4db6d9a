"""LearnRisk: risk features, portfolio risk model, VaR metrics and training."""

from .distributions import (
    NormalDistribution,
    beta_to_normal,
    normal_quantile,
    truncated_normal_quantile,
)
from .engine import RuleKernel
from .feature_generation import GeneratedRiskFeatures, RiskFeatureGenerator
from .metrics import (
    conditional_value_at_risk,
    expectation_risk,
    rank_by_risk,
    register_risk_metric,
    registered_risk_metrics,
    resolve_risk_metric,
    value_at_risk,
)
from .model import LearnRiskModel, RuleContribution
from .onesided_tree import (
    OneSidedSplit,
    OneSidedTreeBuilder,
    OneSidedTreeConfig,
    best_one_sided_split,
    gini_value,
)
from .portfolio import PortfolioDistribution, aggregate_portfolio, feature_contributions
from .rules import (
    Condition,
    RiskRule,
    deduplicate_rules,
    estimate_expectations,
    remove_redundant_rules,
)
from .training import (
    RiskModelTrainer,
    RiskParameters,
    TrainingConfig,
    TrainingResult,
    output_bin_matrix,
    sample_ranking_pairs,
)

__all__ = [
    "Condition",
    "GeneratedRiskFeatures",
    "LearnRiskModel",
    "NormalDistribution",
    "OneSidedSplit",
    "OneSidedTreeBuilder",
    "OneSidedTreeConfig",
    "PortfolioDistribution",
    "RiskFeatureGenerator",
    "RiskModelTrainer",
    "RiskParameters",
    "RiskRule",
    "RuleContribution",
    "RuleKernel",
    "TrainingConfig",
    "TrainingResult",
    "aggregate_portfolio",
    "best_one_sided_split",
    "beta_to_normal",
    "conditional_value_at_risk",
    "deduplicate_rules",
    "estimate_expectations",
    "expectation_risk",
    "feature_contributions",
    "gini_value",
    "normal_quantile",
    "output_bin_matrix",
    "rank_by_risk",
    "register_risk_metric",
    "registered_risk_metrics",
    "remove_redundant_rules",
    "resolve_risk_metric",
    "sample_ranking_pairs",
    "truncated_normal_quantile",
    "value_at_risk",
]
