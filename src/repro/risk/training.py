"""Learning-to-rank training of the risk model (Section 6.2).

The trainable parameters are the rule weights, the rule relative standard
deviations (RSD), the two shape parameters (α, β) of the classifier-output
influence function (Eq. 11) and the per-bin RSD of the classifier-output
feature.  Training minimises the pairwise cross-entropy ranking loss of
Eq. 13–15: for a mislabeled pair ``d_i`` and a correctly labeled pair ``d_j``
the model should assign ``γ_i > γ_j``, where γ is the (differentiable,
untruncated-normal) VaR score.  Optimisation is gradient descent through the
:mod:`repro.autodiff` engine with optional L1/L2 regularisation, exactly the
procedure the paper implements on TensorFlow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from ..autodiff import SGD, Adam, Tensor
from ..exceptions import ConfigurationError
from ..numerics import auroc_score
from ..serialization import as_float_array, component_state, require_state, state_field

_SOFTPLUS_EPS = 1e-6


def inverse_softplus(value: float) -> float:
    """Return ``x`` such that ``softplus(x) = value`` (used to initialise raw parameters)."""
    if value <= 0:
        raise ConfigurationError("softplus output must be positive")
    return float(np.log(np.expm1(value) + _SOFTPLUS_EPS))


@dataclass
class RiskParameters:
    """The trainable tensors of the risk model.

    ``rule_weight_raw`` and ``rule_rsd_raw`` are passed through softplus so
    the effective weights/RSDs stay positive; ``alpha_raw`` / ``beta_raw``
    likewise parameterise the influence function's positive shape parameters;
    ``output_rsd_raw`` holds one raw RSD per classifier-output bin.
    """

    rule_weight_raw: Tensor
    rule_rsd_raw: Tensor
    alpha_raw: Tensor
    beta_raw: Tensor
    output_rsd_raw: Tensor

    def all_parameters(self) -> list[Tensor]:
        parameters = [self.alpha_raw, self.beta_raw, self.output_rsd_raw]
        if self.rule_weight_raw.size:
            parameters.extend([self.rule_weight_raw, self.rule_rsd_raw])
        return parameters

    def snapshot(self) -> list[np.ndarray]:
        """Copy the current raw parameter values (used for best-epoch selection)."""
        return [parameter.data.copy() for parameter in (
            self.rule_weight_raw, self.rule_rsd_raw, self.alpha_raw,
            self.beta_raw, self.output_rsd_raw,
        )]

    def restore(self, snapshot: list[np.ndarray]) -> None:
        """Restore raw parameter values from a :meth:`snapshot`."""
        tensors = (self.rule_weight_raw, self.rule_rsd_raw, self.alpha_raw,
                   self.beta_raw, self.output_rsd_raw)
        for tensor, values in zip(tensors, snapshot):
            tensor.data = values.copy()

    @classmethod
    def initialise(
        cls,
        n_rules: int,
        n_output_bins: int,
        initial_weight: float = 1.0,
        initial_rsd: float = 0.2,
        initial_alpha: float = 0.2,
        initial_beta: float = 1.0,
    ) -> "RiskParameters":
        """Create the raw parameter tensors with the given effective initial values."""
        weight_init = inverse_softplus(initial_weight)
        rsd_init = inverse_softplus(initial_rsd)
        return cls(
            rule_weight_raw=Tensor(np.full(n_rules, weight_init), requires_grad=True),
            rule_rsd_raw=Tensor(np.full(n_rules, rsd_init), requires_grad=True),
            alpha_raw=Tensor(np.array([inverse_softplus(initial_alpha)]), requires_grad=True),
            beta_raw=Tensor(np.array([inverse_softplus(initial_beta)]), requires_grad=True),
            output_rsd_raw=Tensor(np.full(n_output_bins, rsd_init), requires_grad=True),
        )

    # ------------------------------------------------------------ persistence
    STATE_KIND = "risk_parameters"
    STATE_VERSION = 1

    def to_state(self) -> dict:
        """Export the raw parameter arrays as a state dict."""
        return component_state(self.STATE_KIND, self.STATE_VERSION, {
            "rule_weight_raw": self.rule_weight_raw.data.copy(),
            "rule_rsd_raw": self.rule_rsd_raw.data.copy(),
            "alpha_raw": self.alpha_raw.data.copy(),
            "beta_raw": self.beta_raw.data.copy(),
            "output_rsd_raw": self.output_rsd_raw.data.copy(),
        })

    @classmethod
    def from_state(cls, state: dict) -> "RiskParameters":
        """Rebuild parameters written by :meth:`to_state`."""
        state = require_state(state, cls.STATE_KIND, cls.STATE_VERSION)

        def tensor(field: str) -> Tensor:
            values = as_float_array(
                state_field(state, field, cls.STATE_KIND), field, cls.STATE_KIND
            )
            return Tensor(values.copy(), requires_grad=True)

        return cls(
            rule_weight_raw=tensor("rule_weight_raw"),
            rule_rsd_raw=tensor("rule_rsd_raw"),
            alpha_raw=tensor("alpha_raw"),
            beta_raw=tensor("beta_raw"),
            output_rsd_raw=tensor("output_rsd_raw"),
        )


@dataclass
class TrainingConfig:
    """Hyper-parameters of the risk-model training loop.

    The defaults mirror the paper's setup (confidence 0.9, 1000-epoch budget)
    but use Adam with a moderate learning rate, which reaches the same ranking
    loss in far fewer epochs; set ``optimizer="sgd"`` and
    ``learning_rate=0.001`` for the literal configuration of Eq. 16–17.
    """

    theta: float = 0.9
    epochs: int = 200
    learning_rate: float = 0.05
    optimizer: str = "adam"
    l1: float = 1e-5
    l2: float = 1e-4
    rsd_anchor_l2: float = 0.05
    weight_anchor_l2: float = 0.01
    max_rank_pairs: int = 20000
    holdout_fraction: float = 0.25
    selection_interval: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.theta < 1.0:
            raise ConfigurationError("theta must be in (0, 1)")
        if self.epochs < 1:
            raise ConfigurationError("epochs must be >= 1")
        if self.optimizer not in {"adam", "sgd"}:
            raise ConfigurationError("optimizer must be 'adam' or 'sgd'")


@dataclass
class TrainingResult:
    """Loss trajectory and the sampled ranking-pair count of one training run."""

    losses: list[float] = field(default_factory=list)
    n_rank_pairs: int = 0
    trained: bool = False
    best_epoch: int = 0
    best_holdout_auroc: float = float("nan")

    def to_dict(self) -> dict:
        """JSON-safe representation used by the persistence protocol."""
        return {
            "losses": [float(loss) for loss in self.losses],
            "n_rank_pairs": self.n_rank_pairs,
            "trained": self.trained,
            "best_epoch": self.best_epoch,
            "best_holdout_auroc": self.best_holdout_auroc,
        }

    @classmethod
    def from_dict(cls, values: dict) -> "TrainingResult":
        """Rebuild a result written by :meth:`to_dict`."""
        return cls(
            losses=[float(loss) for loss in values.get("losses", [])],
            n_rank_pairs=int(values.get("n_rank_pairs", 0)),
            trained=bool(values.get("trained", False)),
            best_epoch=int(values.get("best_epoch", 0)),
            best_holdout_auroc=float(values.get("best_holdout_auroc", float("nan"))),
        )


def output_bin_matrix(probabilities: np.ndarray, n_bins: int) -> np.ndarray:
    """One-hot ``(n_pairs, n_bins)`` matrix assigning each classifier output to a bin."""
    probabilities = np.asarray(probabilities, dtype=float)
    bins = np.clip((probabilities * n_bins).astype(int), 0, n_bins - 1)
    matrix = np.zeros((len(probabilities), n_bins), dtype=float)
    matrix[np.arange(len(probabilities)), bins] = 1.0
    return matrix


def sample_ranking_pairs(
    risk_labels: np.ndarray, max_pairs: int, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sample (mislabeled, correct) index pairs for the ranking loss.

    Returns the index arrays ``(positives, negatives)`` of equal length; when
    the full cross product is small it is used exhaustively, otherwise pairs
    are sampled uniformly at random.
    """
    risk_labels = np.asarray(risk_labels, dtype=int)
    positive_indices = np.nonzero(risk_labels == 1)[0]
    negative_indices = np.nonzero(risk_labels == 0)[0]
    if len(positive_indices) == 0 or len(negative_indices) == 0:
        return np.array([], dtype=int), np.array([], dtype=int)
    total = len(positive_indices) * len(negative_indices)
    if total <= max_pairs:
        positives = np.repeat(positive_indices, len(negative_indices))
        negatives = np.tile(negative_indices, len(positive_indices))
        return positives, negatives
    rng = np.random.default_rng(seed)
    positives = rng.choice(positive_indices, size=max_pairs, replace=True)
    negatives = rng.choice(negative_indices, size=max_pairs, replace=True)
    return positives, negatives


def differentiable_var_scores(
    parameters: RiskParameters,
    membership: np.ndarray,
    rule_means: np.ndarray,
    output_probabilities: np.ndarray,
    output_bins: np.ndarray,
    machine_labels: np.ndarray,
    theta: float,
) -> Tensor:
    """Compute the differentiable VaR score γ of every pair as a Tensor.

    Mirrors :func:`repro.risk.metrics.value_at_risk` with the untruncated
    normal quantile so gradients flow to every parameter.
    """
    n_pairs = len(output_probabilities)
    z_theta = float(stats.norm.ppf(theta))
    membership_tensor = Tensor(membership)
    probabilities = np.asarray(output_probabilities, dtype=float)

    # Classifier-output feature: weight from the influence function (Eq. 11),
    # expectation = the classifier probability, std = per-bin RSD * expectation.
    alpha = parameters.alpha_raw.softplus()
    beta = parameters.beta_raw.softplus()
    deviation = Tensor((probabilities - 0.5) ** 2)
    gaussian_term = ((deviation / (alpha * alpha * 2.0)) * -1.0).exp()
    output_weight = gaussian_term * -1.0 + beta + 1.0
    output_rsd = Tensor(output_bins).matmul(parameters.output_rsd_raw.softplus())
    output_mean = Tensor(probabilities)
    output_std = output_rsd * output_mean

    if membership.shape[1] > 0:
        rule_weight = parameters.rule_weight_raw.softplus()
        rule_rsd = parameters.rule_rsd_raw.softplus()
        rule_mean_tensor = Tensor(rule_means)
        rule_std = rule_rsd * rule_mean_tensor
        total_weight = membership_tensor.matmul(rule_weight) + output_weight
        weighted_mean = (
            membership_tensor.matmul(rule_weight * rule_mean_tensor)
            + output_weight * output_mean
        )
        weighted_variance = (
            membership_tensor.matmul(rule_weight * rule_weight * rule_std * rule_std)
            + output_weight * output_weight * output_std * output_std
        )
    else:
        total_weight = output_weight
        weighted_mean = output_weight * output_mean
        weighted_variance = output_weight * output_weight * output_std * output_std

    mean = weighted_mean / total_weight
    std = (weighted_variance / (total_weight * total_weight) + 1e-12).sqrt()

    machine_labels = np.asarray(machine_labels, dtype=float)
    labeled_match = Tensor(machine_labels)
    # Loss expectation: p for unmatching-labeled pairs, 1 - p for matching-labeled pairs.
    loss_mean = labeled_match * (1.0 - mean) + (1.0 - labeled_match) * mean
    gamma = loss_mean + std * z_theta
    assert gamma.shape == (n_pairs,)
    return gamma


def ranking_loss(gamma: Tensor, positives: np.ndarray, negatives: np.ndarray) -> Tensor:
    """Pairwise cross-entropy ranking loss (Eq. 13–15) for p̄ = 1 pairs."""
    positive_scores = gamma.take(positives)
    negative_scores = gamma.take(negatives)
    probabilities = (positive_scores - negative_scores).sigmoid().clip(1e-7, 1.0 - 1e-7)
    return -(probabilities.log()).mean()


class RiskModelTrainer:
    """Runs the gradient-descent training loop over a :class:`RiskParameters` set."""

    def __init__(self, config: TrainingConfig) -> None:
        self.config = config

    def train(
        self,
        parameters: RiskParameters,
        membership: np.ndarray,
        rule_means: np.ndarray,
        output_probabilities: np.ndarray,
        machine_labels: np.ndarray,
        risk_labels: np.ndarray,
    ) -> TrainingResult:
        """Optimise ``parameters`` in place; returns the loss trajectory.

        ``risk_labels`` marks mislabeled pairs (1) versus correctly labeled
        pairs (0) in the risk-training (validation) data.  With no mislabeled
        or no correct pair the loss is undefined and the parameters keep their
        initial values (``trained`` is ``False`` in the result).

        A fraction of the risk-training pairs (``holdout_fraction``) is held
        out for best-epoch selection: every ``selection_interval`` epochs the
        holdout AUROC is evaluated and the best parameter snapshot (including
        the initial one) is restored at the end.  This keeps the learned model
        from drifting below its prior on workloads with very few mislabeled
        validation pairs.
        """
        result = TrainingResult()
        risk_labels = np.asarray(risk_labels, dtype=int)
        output_probabilities = np.asarray(output_probabilities, dtype=float)
        machine_labels = np.asarray(machine_labels, dtype=int)

        _, holdout_indices = self._split_holdout(risk_labels)
        fit_risk_labels = risk_labels.copy()
        if holdout_indices is not None:
            # Exclude the holdout pairs from the ranking loss by marking them
            # with a sentinel that sample_ranking_pairs ignores (-1).
            fit_risk_labels = fit_risk_labels.astype(int)
            fit_risk_labels[holdout_indices] = -1

        positives, negatives = sample_ranking_pairs(
            fit_risk_labels, self.config.max_rank_pairs, self.config.seed
        )
        result.n_rank_pairs = len(positives)
        if len(positives) == 0:
            return result

        output_bins = output_bin_matrix(output_probabilities, parameters.output_rsd_raw.size)

        def holdout_auroc() -> float:
            if holdout_indices is None:
                return float("nan")
            gamma = differentiable_var_scores(
                parameters, membership, rule_means, output_probabilities,
                output_bins, machine_labels, self.config.theta,
            ).numpy()
            # _split_holdout only returns a holdout holding both classes.
            return auroc_score(risk_labels[holdout_indices], gamma[holdout_indices])

        best_snapshot = parameters.snapshot()
        best_auroc = holdout_auroc()
        best_epoch = 0
        trainable = parameters.all_parameters()
        if self.config.optimizer == "adam":
            optimizer = Adam(trainable, learning_rate=self.config.learning_rate)
        else:
            optimizer = SGD(trainable, learning_rate=self.config.learning_rate)

        has_rules = bool(parameters.rule_weight_raw.size)
        # Anchors: the initial effective values act as priors so that a handful
        # of mislabeled validation pairs cannot blow individual variances up.
        initial_rule_rsd = np.log1p(np.exp(parameters.rule_rsd_raw.data.copy()))
        initial_output_rsd = np.log1p(np.exp(parameters.output_rsd_raw.data.copy()))
        initial_weight = np.log1p(np.exp(parameters.rule_weight_raw.data.copy())) if has_rules else None

        for epoch in range(self.config.epochs):
            optimizer.zero_grad()
            gamma = differentiable_var_scores(
                parameters, membership, rule_means, output_probabilities,
                output_bins, machine_labels, self.config.theta,
            )
            loss = ranking_loss(gamma, positives, negatives)
            if has_rules:
                effective = parameters.rule_weight_raw.softplus()
                loss = loss + (effective * effective).sum() * self.config.l2
                loss = loss + effective.abs().sum() * self.config.l1
                weight_drift = effective - initial_weight
                loss = loss + (weight_drift * weight_drift).mean() * self.config.weight_anchor_l2
                rsd_drift = parameters.rule_rsd_raw.softplus() - initial_rule_rsd
                loss = loss + (rsd_drift * rsd_drift).mean() * self.config.rsd_anchor_l2
            output_drift = parameters.output_rsd_raw.softplus() - initial_output_rsd
            loss = loss + (output_drift * output_drift).mean() * self.config.rsd_anchor_l2
            loss.backward()
            optimizer.step()
            result.losses.append(loss.item())

            is_last_epoch = epoch == self.config.epochs - 1
            if holdout_indices is not None and (
                is_last_epoch or (epoch + 1) % self.config.selection_interval == 0
            ):
                current_auroc = holdout_auroc()
                if np.isnan(best_auroc) or (
                    not np.isnan(current_auroc) and current_auroc > best_auroc
                ):
                    best_auroc = current_auroc
                    best_snapshot = parameters.snapshot()
                    best_epoch = epoch + 1

        if holdout_indices is not None and not np.isnan(best_auroc):
            parameters.restore(best_snapshot)
            result.best_epoch = best_epoch
            result.best_holdout_auroc = float(best_auroc)
        result.trained = True
        return result

    def _split_holdout(self, risk_labels: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
        """Stratified split of the risk-training pairs into fit and holdout indices.

        Returns ``(fit_indices, holdout_indices)``; ``holdout_indices`` is
        ``None`` when the holdout would not contain both classes (too little
        data for selection to be meaningful).
        """
        if self.config.holdout_fraction <= 0.0:
            return np.arange(len(risk_labels)), None
        rng = np.random.default_rng(self.config.seed + 17)
        holdout: list[int] = []
        fit: list[int] = []
        for label in (0, 1):
            class_indices = np.nonzero(risk_labels == label)[0]
            rng.shuffle(class_indices)
            split_point = int(round(len(class_indices) * self.config.holdout_fraction))
            holdout.extend(int(i) for i in class_indices[:split_point])
            fit.extend(int(i) for i in class_indices[split_point:])
        holdout_array = np.asarray(sorted(holdout), dtype=int)
        fit_array = np.asarray(sorted(fit), dtype=int)
        holdout_labels = risk_labels[holdout_array] if len(holdout_array) else np.array([])
        fit_labels = risk_labels[fit_array] if len(fit_array) else np.array([])
        if (
            len(holdout_array) == 0
            or holdout_labels.sum() == 0
            or holdout_labels.sum() == len(holdout_array)
            or fit_labels.sum() == 0
            or fit_labels.sum() == len(fit_array)
        ):
            return np.arange(len(risk_labels)), None
        return fit_array, holdout_array
