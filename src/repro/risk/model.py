"""The LearnRisk risk model (Section 6).

:class:`LearnRiskModel` is the paper's primary contribution: an interpretable
and learnable model that ranks classifier-labeled pairs by their risk of being
mislabeled.  Its risk features are the one-sided rules produced by
:class:`~repro.risk.feature_generation.RiskFeatureGenerator` plus the
classifier-output feature; each feature carries an equivalence-probability
distribution; a pair's distribution is the weighted portfolio aggregate of its
features' distributions; and the pair's risk is the Value-at-Risk of its
mislabeling loss.  The feature weights, feature variances (via relative
standard deviations) and the classifier-output influence function are learned
on validation data with a pairwise learning-to-rank loss.

Typical usage (array level; see :mod:`repro.compose.staged` for the workload level)::

    features = RiskFeatureGenerator().generate(train_workload)
    model = LearnRiskModel(features)
    model.fit(validation_metrics, validation_probabilities,
              validation_machine_labels, validation_ground_truth)
    risk = model.score(test_metrics, test_probabilities, test_machine_labels)
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..data.records import MATCH
from ..exceptions import ConfigurationError, NotFittedError, PersistenceError
from ..features.vectorizer import PairVectorizer
from ..obs import get_recorder
from ..serialization import (
    component_state,
    dataclass_from_dict,
    require_state,
    state_field,
)
from .distributions import truncated_normal_quantile
from .feature_generation import GeneratedRiskFeatures
from .metrics import resolve_risk_metric
from ..numerics import batch_invariant_matvec
from .portfolio import PortfolioDistribution, aggregate_portfolio, feature_contributions
from .training import (
    RiskModelTrainer,
    RiskParameters,
    TrainingConfig,
    TrainingResult,
    output_bin_matrix,
)


@dataclass(frozen=True)
class RuleContribution:
    """One risk feature's contribution to a pair's aggregated distribution.

    ``rule_index`` is the feature's position in the model's rule list, or
    ``-1`` for the classifier-output feature; ``weight_share`` is its share of
    the pair's total portfolio weight (shares of one pair sum to 1).
    """

    rule_index: int
    description: str
    weight_share: float
    expectation: float

    @property
    def is_classifier_output(self) -> bool:
        return self.rule_index == -1

    def to_dict(self) -> dict:
        return {
            "rule_index": self.rule_index,
            "description": self.description,
            "weight_share": self.weight_share,
            "expectation": self.expectation,
            "is_classifier_output": self.is_classifier_output,
        }


@dataclass(frozen=True)
class PairRiskExplanation:
    """Decision-level telemetry for one scored pair.

    The full interpretability payload the paper motivates: which rules fired
    on the pair (with their portfolio weight shares), the aggregated
    equivalence-probability distribution behind the score, and the central
    ``2θ−1`` probability interval ``[interval_low, interval_high]`` of that
    (truncated-normal) distribution at the model's VaR confidence θ.
    """

    machine_probability: float
    machine_label: int
    risk_score: float
    equivalence_mean: float
    equivalence_std: float
    interval_low: float
    interval_high: float
    fired_rules: list[RuleContribution]

    def to_dict(self) -> dict:
        return {
            "machine_probability": self.machine_probability,
            "machine_label": self.machine_label,
            "risk_score": self.risk_score,
            "equivalence_mean": self.equivalence_mean,
            "equivalence_std": self.equivalence_std,
            "interval_low": self.interval_low,
            "interval_high": self.interval_high,
            "fired_rules": [rule.to_dict() for rule in self.fired_rules],
        }


class LearnRiskModel:
    """Interpretable and learnable risk model for ER (the paper's LearnRisk).

    Parameters
    ----------
    features:
        Generated risk features (rules + fitted vectoriser).
    config:
        Training hyper-parameters; the VaR confidence ``theta`` also drives
        scoring.
    n_output_bins:
        Number of classifier-output bins, each with its own learnable RSD.
    risk_metric:
        Name of a registered risk metric: ``"var"`` (paper default), ``"cvar"``
        or ``"expectation"`` out of the box; custom metrics plug in through
        :func:`repro.risk.metrics.register_risk_metric`.
    initial_weight, initial_rsd, initial_alpha, initial_beta:
        Effective initial values of the trainable parameters.
    """

    def __init__(
        self,
        features: GeneratedRiskFeatures,
        config: TrainingConfig | None = None,
        n_output_bins: int = 10,
        risk_metric: str = "var",
        initial_weight: float = 1.0,
        initial_rsd: float = 0.2,
        initial_alpha: float = 0.2,
        initial_beta: float = 1.0,
    ) -> None:
        # Resolve eagerly so a typo fails at construction, not deep in scoring.
        self._risk_metric_function = resolve_risk_metric(risk_metric)
        if n_output_bins < 1:
            raise ConfigurationError("n_output_bins must be >= 1")
        self.features = features
        self.config = config or TrainingConfig()
        self.n_output_bins = n_output_bins
        self.risk_metric = risk_metric
        self.parameters = RiskParameters.initialise(
            n_rules=len(features.rules),
            n_output_bins=n_output_bins,
            initial_weight=initial_weight,
            initial_rsd=initial_rsd,
            initial_alpha=initial_alpha,
            initial_beta=initial_beta,
        )
        self.training_result: TrainingResult | None = None
        self._fitted = False

    # ----------------------------------------------------------- parameters
    @property
    def rule_weights(self) -> np.ndarray:
        """Effective (post-softplus) rule weights."""
        return np.log1p(np.exp(self.parameters.rule_weight_raw.data))

    @property
    def rule_rsds(self) -> np.ndarray:
        """Effective (post-softplus) rule relative standard deviations."""
        return np.log1p(np.exp(self.parameters.rule_rsd_raw.data))

    @property
    def rule_expectations(self) -> np.ndarray:
        """Prior expectations of the rule features (fixed, not trained)."""
        return np.array([rule.expectation for rule in self.features.rules], dtype=float)

    @property
    def influence_alpha(self) -> float:
        """Effective α of the classifier-output influence function (Eq. 11)."""
        return float(np.log1p(np.exp(self.parameters.alpha_raw.data[0])))

    @property
    def influence_beta(self) -> float:
        """Effective β of the classifier-output influence function (Eq. 11)."""
        return float(np.log1p(np.exp(self.parameters.beta_raw.data[0])))

    @property
    def output_rsds(self) -> np.ndarray:
        """Effective per-bin RSD of the classifier-output feature."""
        return np.log1p(np.exp(self.parameters.output_rsd_raw.data))

    def influence_weight(self, probabilities: np.ndarray) -> np.ndarray:
        """The influence-function weight of the classifier output (Eq. 11)."""
        probabilities = np.asarray(probabilities, dtype=float)
        alpha = self.influence_alpha
        beta = self.influence_beta
        return -np.exp(-((probabilities - 0.5) ** 2) / (2.0 * alpha ** 2)) + beta + 1.0

    # ------------------------------------------------------------------- fit
    def fit(
        self,
        metric_matrix: np.ndarray,
        machine_probabilities: np.ndarray,
        machine_labels: np.ndarray,
        ground_truth: np.ndarray,
    ) -> "LearnRiskModel":
        """Train the risk model on risk-training (validation) data.

        Parameters
        ----------
        metric_matrix:
            Basic-metric matrix of the risk-training pairs (from the same
            vectoriser the features were generated with).
        machine_probabilities, machine_labels:
            The classifier's probability outputs and hard labels on those pairs.
        ground_truth:
            True labels of those pairs; the risk label of a pair is
            ``machine_label != ground_truth``.
        """
        metric_matrix = np.asarray(metric_matrix, dtype=float)
        machine_probabilities = np.asarray(machine_probabilities, dtype=float)
        machine_labels = np.asarray(machine_labels, dtype=int)
        ground_truth = np.asarray(ground_truth, dtype=int)
        if not (len(metric_matrix) == len(machine_probabilities) == len(machine_labels) == len(ground_truth)):
            raise ConfigurationError("all fit inputs must have one entry per pair")

        # Membership comes from the features' compiled RuleKernel (built once,
        # reused by every later score/distribution call on this model).
        membership = self.features.membership(metric_matrix)
        risk_labels = (machine_labels != ground_truth).astype(int)
        trainer = RiskModelTrainer(self.config)
        self.training_result = trainer.train(
            self.parameters,
            membership,
            self.rule_expectations,
            machine_probabilities,
            machine_labels,
            risk_labels,
        )
        self._fitted = True
        return self

    # ----------------------------------------------------------- distribution
    def distribution(
        self,
        metric_matrix: np.ndarray,
        machine_probabilities: np.ndarray,
    ) -> PortfolioDistribution:
        """Aggregate the equivalence-probability distribution of each pair."""
        metric_matrix = np.asarray(metric_matrix, dtype=float)
        machine_probabilities = np.asarray(machine_probabilities, dtype=float)
        with get_recorder().span("rule_kernel"):
            membership = self.features.membership(metric_matrix)
        return self._distribution_from_membership(membership, machine_probabilities)

    def _distribution_from_membership(
        self,
        membership: np.ndarray,
        machine_probabilities: np.ndarray,
    ) -> PortfolioDistribution:
        """Portfolio aggregation over a precomputed membership matrix.

        Split out of :meth:`distribution` so :meth:`explain_pairs` can reuse
        the membership it needs anyway without computing rule coverage twice.
        """
        with get_recorder().span("aggregate"):
            rule_means = self.rule_expectations
            rule_stds = self.rule_rsds * rule_means if len(rule_means) else np.array([])
            output_bins = output_bin_matrix(machine_probabilities, self.n_output_bins)
            # Batch-invariant matvec (repro.numerics): streamed chunked scoring
            # must be bit-identical to the eager path at any chunk size.
            output_rsd = batch_invariant_matvec(output_bins, self.output_rsds)
            return aggregate_portfolio(
                membership,
                self.rule_weights,
                rule_means,
                rule_stds,
                output_weights=self.influence_weight(machine_probabilities),
                output_means=machine_probabilities,
                output_stds=output_rsd * machine_probabilities,
            )

    # ----------------------------------------------------------------- score
    def score(
        self,
        metric_matrix: np.ndarray,
        machine_probabilities: np.ndarray,
        machine_labels: np.ndarray,
    ) -> np.ndarray:
        """Risk score of each pair (higher = more likely mislabeled).

        The model may be used unfitted (all parameters at their initial
        values), which corresponds to the untrained prior risk model; ``fit``
        is required for the learned behaviour evaluated in the paper.
        """
        machine_labels = np.asarray(machine_labels, dtype=int)
        with get_recorder().span("risk_score"):
            distribution = self.distribution(metric_matrix, machine_probabilities)
            return np.asarray(
                self._risk_metric_function(distribution, machine_labels, theta=self.config.theta),
                dtype=float,
            )

    def rank(
        self,
        metric_matrix: np.ndarray,
        machine_probabilities: np.ndarray,
        machine_labels: np.ndarray,
    ) -> np.ndarray:
        """Indices of pairs ordered from highest to lowest risk."""
        scores = self.score(metric_matrix, machine_probabilities, machine_labels)
        return np.argsort(-scores, kind="stable")

    # ------------------------------------------------------------ interpret
    def _rule_contribution(
        self, feature_index: int, share: float, machine_probability: float
    ) -> RuleContribution:
        """One kept feature of a pair's explanation (``-1``: the classifier output)."""
        if feature_index == -1:
            return RuleContribution(
                rule_index=-1,
                description=f"classifier output = {machine_probability:.3f}",
                weight_share=share,
                expectation=machine_probability,
            )
        rule = self.features.rules[feature_index]
        return RuleContribution(
            rule_index=feature_index,
            description=rule.describe(),
            weight_share=share,
            expectation=rule.expectation,
        )

    def explain_pairs(
        self,
        metric_matrix: np.ndarray,
        machine_probabilities: np.ndarray,
        machine_labels: np.ndarray,
        top_rules: int | None = None,
    ) -> list[PairRiskExplanation]:
        """Full decision-level explanations, one per pair.

        For every pair: the rules that fired on it (with portfolio weight
        shares), its aggregated equivalence-probability distribution, the
        central probability interval at the model's VaR confidence θ
        (``[F⁻¹(1−θ), F⁻¹(θ)]`` of the truncated normal), and its risk score,
        bit-identical to :meth:`score` — the paper's interpretability payoff:
        a risky pair can be traced back to the human-readable rules
        responsible.  ``top_rules`` keeps each pair's heaviest rules (highest
        weight share first).  Weights, shares and the kept rules are computed
        for the whole batch at once (:func:`feature_contributions`); only the
        kept rules are described.
        """
        metric_matrix = np.asarray(metric_matrix, dtype=float)
        machine_probabilities = np.asarray(machine_probabilities, dtype=float)
        machine_labels = np.asarray(machine_labels, dtype=int)
        recorder = get_recorder()
        with recorder.span("explain_pairs"):
            with recorder.span("rule_kernel"):
                membership = self.features.membership(metric_matrix)
            distribution = self._distribution_from_membership(
                membership, machine_probabilities
            )
            risk_scores = np.asarray(
                self._risk_metric_function(
                    distribution, machine_labels, theta=self.config.theta
                ),
                dtype=float,
            )
            theta = self.config.theta
            stds = distribution.stds
            interval_lows = truncated_normal_quantile(
                distribution.means, stds, 1.0 - theta
            )
            interval_highs = truncated_normal_quantile(distribution.means, stds, theta)
            contributions = feature_contributions(
                membership,
                self.rule_weights,
                self.influence_weight(machine_probabilities),
                top_rules=top_rules,
            )
            return [
                PairRiskExplanation(
                    machine_probability=probability,
                    machine_label=label,
                    risk_score=risk_score,
                    equivalence_mean=mean,
                    equivalence_std=std,
                    interval_low=low,
                    interval_high=high,
                    fired_rules=[
                        self._rule_contribution(index, share, probability)
                        for index, share in kept
                    ],
                )
                for probability, label, risk_score, mean, std, low, high, kept in zip(
                    machine_probabilities.tolist(),
                    machine_labels.tolist(),
                    risk_scores.tolist(),
                    distribution.means.tolist(),
                    stds.tolist(),
                    interval_lows.tolist(),
                    interval_highs.tolist(),
                    contributions,
                )
            ]

    # ------------------------------------------------------------ persistence
    STATE_KIND = "learn_risk_model"
    STATE_VERSION = 1

    def to_state(self, include_vectorizer: bool = True) -> dict:
        """Export the risk model (features, config and learned parameters).

        ``include_vectorizer`` is forwarded to
        :meth:`GeneratedRiskFeatures.to_state`; pass ``False`` when the
        enclosing state already stores the shared vectoriser.
        """
        return component_state(self.STATE_KIND, self.STATE_VERSION, {
            "features": self.features.to_state(include_vectorizer=include_vectorizer),
            "config": asdict(self.config),
            "n_output_bins": self.n_output_bins,
            "risk_metric": self.risk_metric,
            "parameters": self.parameters.to_state(),
            "fitted": self._fitted,
            "training_result": (
                None if self.training_result is None else self.training_result.to_dict()
            ),
        })

    @classmethod
    def from_state(
        cls, state: dict, vectorizer: PairVectorizer | None = None
    ) -> "LearnRiskModel":
        """Rebuild a model written by :meth:`to_state`.

        ``vectorizer`` is forwarded to
        :meth:`GeneratedRiskFeatures.from_state` so a caller can share one
        loaded vectoriser across components.
        """
        state = require_state(state, cls.STATE_KIND, cls.STATE_VERSION)
        features = GeneratedRiskFeatures.from_state(
            state_field(state, "features", cls.STATE_KIND), vectorizer=vectorizer
        )
        config = dataclass_from_dict(TrainingConfig, state_field(state, "config", cls.STATE_KIND))
        model = cls(
            features,
            config=config,
            n_output_bins=int(state.get("n_output_bins", 10)),
            risk_metric=str(state.get("risk_metric", "var")),
        )
        model.parameters = RiskParameters.from_state(
            state_field(state, "parameters", cls.STATE_KIND)
        )
        if model.parameters.rule_weight_raw.size != len(features.rules):
            raise PersistenceError(
                f"saved risk parameters cover {model.parameters.rule_weight_raw.size} rules "
                f"but the saved features define {len(features.rules)}"
            )
        training_result = state.get("training_result")
        if training_result is not None:
            model.training_result = TrainingResult.from_dict(training_result)
        model._fitted = bool(state.get("fitted", False))
        return model

    # -------------------------------------------------------------- summary
    def summary(self) -> dict[str, float]:
        """Key fitted quantities, for logging and the ``serve fit`` report."""
        if not self._fitted:
            raise NotFittedError("LearnRiskModel.summary requires a fitted model")
        matching_rules = sum(1 for rule in self.features.rules if rule.label == MATCH)
        final_loss = self.training_result.losses[-1] if self.training_result.losses else float("nan")
        return {
            "n_rules": float(len(self.features.rules)),
            "n_matching_rules": float(matching_rules),
            "alpha": self.influence_alpha,
            "beta": self.influence_beta,
            "final_loss": final_loss,
            "n_rank_pairs": float(self.training_result.n_rank_pairs if self.training_result else 0),
        }
