"""The small pipeline most suites fit: the default shape, sized for tests.

A one-layer MLP, depth-2 rules and 40 risk-training epochs, built through the
spec like any served model.  Import it as ``from fast_spec import ...``.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.compose import StagedPipeline

FAST_SPEC = {
    "classifier": {"kind": "mlp", "params": {"hidden_sizes": [16], "epochs": 15}},
    "risk_features": {
        "kind": "onesided_tree",
        "params": {"tree": {"max_depth": 2, "min_support": 4, "max_thresholds": 24}},
    },
    "training": {"epochs": 40},
}

#: The second model the serving suites fit, so two versions score apart.
LOGISTIC_CHALLENGER = {"kind": "logistic", "params": {"epochs": 80, "seed": 1}}


def fast_pipeline(
    seed: int = 0, classifier: str | Mapping[str, Any] | None = None
) -> StagedPipeline:
    """An unfitted pipeline of :data:`FAST_SPEC` at ``seed``.

    ``classifier`` replaces the spec's MLP with another classifier spec.
    """
    spec = {**FAST_SPEC, "seed": seed}
    if classifier is not None:
        spec["classifier"] = classifier
    return StagedPipeline(spec)
